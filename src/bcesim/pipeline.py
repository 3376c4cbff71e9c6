"""The three processing phases of the blockchain network.

Endorsement is a pure delay (parallel max over the endorsing peers),
ordering batches endorsed transactions into blocks cut by size or timeout
and adds an affine service time in the node count, and validation is a
single serial station per channel with a per-block overhead plus a
per-transaction cost.  Validity is decided at validation time: VSCC first,
then the MVCC version comparison against the channel ledger, where earlier
commits within the same block already count (first writer wins).
"""

from dataclasses import dataclass

from .dists import Delay

PENDING = "pending"
VALID = "valid"
MVCC_INVALID = "mvcc_invalid"
VSCC_INVALID = "vscc_invalid"


@dataclass(frozen=True)
class BlockchainParams:
    block_size: int  # max transactions per block
    timeout: float  # block-generation timeout, seconds
    n_endorsers: int
    n_kafka: int  # >= 4, the minimum cluster size
    n_channels: int


@dataclass(frozen=True)
class ServiceTimes:
    endorse_per_peer: Delay
    ordering_base: float
    ordering_per_kafka: float  # per node beyond the 4-node minimum
    validate_block_overhead: float
    validate_per_tx: float


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


class Block:
    __slots__ = ("txs", "cut_time", "channel")

    def __init__(self, txs, cut_time, channel):
        self.txs = txs
        self.cut_time = cut_time
        self.channel = channel


def ordering_delay(params, svc):
    """Service time to turn a cut block into a deliverable one."""
    return svc.ordering_base + svc.ordering_per_kafka * (params.n_kafka - 4)


def validation_duration(svc, n_txs):
    return svc.validate_block_overhead + svc.validate_per_tx * n_txs


def validate_block(block, ledger, vscc_fail_prob, rng):
    """Mark each transaction valid / mvcc_invalid / vscc_invalid, in block order.

    A transaction passes MVCC iff its captured version equals the current
    ledger version plus the commits earlier transactions of this same block
    will apply.  Never touches the ledger.
    """
    pending = {}
    for tx in block.txs:
        if vscc_fail_prob > 0.0 and rng.random() < vscc_fail_prob:
            tx.validity = VSCC_INVALID
            continue
        current = ledger.read_version(tx.key) + pending.get(tx.key, 0)
        if tx.captured_version == current:
            tx.validity = VALID
            pending[tx.key] = pending.get(tx.key, 0) + 1
        else:
            tx.validity = MVCC_INVALID


def commit_block(block, ledger, completion):
    """Apply every valid update and stamp commit times on all transactions.

    Returns the committed (valid) transactions; the caller reports the ones
    touching the tracked key.  Invalid transactions leave the ledger untouched.
    """
    committed = []
    for tx in block.txs:
        tx.commit_time = completion
        if tx.validity == VALID:
            ledger.apply_update(tx.key, tx.gen_time)
            committed.append(tx)
    return committed
