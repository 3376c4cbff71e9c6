"""The three processing phases of the blockchain network.

Endorsement is a pure delay (parallel max over the endorsing peers),
ordering batches endorsed transactions into blocks cut by size or timeout
and adds an affine service time in the node count, and validation is a
single serial station per channel with a per-block overhead plus a
per-transaction cost.  Validity is decided at validation time: VSCC first,
then the MVCC version comparison against the channel ledger, where earlier
commits within the same block already count (first writer wins).
"""

PENDING = "pending"
VALID = "valid"
MVCC_INVALID = "mvcc_invalid"
VSCC_INVALID = "vscc_invalid"


class Transaction:
    __slots__ = (
        "id",
        "key",
        "channel",
        "gen_time",
        "arrive_time",
        "endorse_done",
        "captured_version",
        "order_done",
        "commit_time",
        "validity",
    )

    def __init__(self, tid, key, channel, gen_time, arrive_time):
        self.id = tid
        self.key = key
        self.channel = channel
        self.gen_time = gen_time
        self.arrive_time = arrive_time
        self.endorse_done = None
        self.captured_version = None
        self.order_done = None
        self.commit_time = None
        self.validity = PENDING


def ordering_delay(cfg):
    """Service time to turn a cut block into a deliverable one."""
    return cfg.ordering_base + cfg.ordering_per_kafka * (cfg.n_kafka - 4)


def commit_block(txs, ledger, completion, vscc_fail_prob, rng, versioned=None):
    """Decide and apply each transaction of a block (`txs`, in block order);
    stamp commit times.

    VSCC is drawn first; a transaction that passes it is valid iff its
    captured version equals the ledger's current version, which already
    counts the commits of this block's earlier transactions.  Valid updates
    are applied at once; invalid ones leave the ledger untouched.  If
    `versioned` is given, the ledger holds that key only: any other key is a
    unique proposal id, never written before, so it is valid once it passes
    VSCC and its update is not stored.

    Returns (the valid transactions in block order, the number of MVCC
    conflicts).
    """
    committed = []
    conflicts = 0
    for tx in txs:
        tx.commit_time = completion
        if vscc_fail_prob > 0.0 and rng.random() < vscc_fail_prob:
            tx.validity = VSCC_INVALID
        elif versioned is not None and tx.key != versioned:
            tx.validity = VALID
            committed.append(tx)
        elif tx.captured_version == ledger.read_version(tx.key):
            tx.validity = VALID
            ledger.apply_update(tx.key, tx.gen_time)
            committed.append(tx)
        else:
            tx.validity = MVCC_INVALID
            conflicts += 1
    return committed, conflicts
