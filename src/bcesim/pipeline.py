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

    def __init__(self, tid, key, channel, gen_time, arrive_time, endorse_done=None):
        self.id = tid
        self.key = key
        self.channel = channel
        self.gen_time = gen_time
        self.arrive_time = arrive_time
        self.endorse_done = endorse_done
        self.captured_version = None
        self.order_done = None
        self.commit_time = None
        self.validity = PENDING


def ordering_delay(cfg):
    """Service time to turn a cut block into a deliverable one."""
    return cfg.ordering_base + cfg.ordering_per_kafka * (cfg.n_kafka - 4)
