"""Update sources, transmitter queue discipline, and the lossy channel.

Sources emit timestamped update proposals.  A single shared channel serves
the transmitter queue under FCFS or LCFS; each transmission succeeds with
probability ``stp`` and is otherwise dropped permanently (no retransmission,
so the delivered rate thins to total_rate * stp).
"""

from dataclasses import dataclass
from heapq import heappop, heappush

from .dists import Delay

# The tracked ledger key. Background proposals use their own unique ids as
# keys so MVCC conflicts can only involve the target.
TARGET_KEY = 0


@dataclass(frozen=True)
class SourceConfig:
    total_rate: float  # packets/second, > 0
    generation_mode: str  # "periodic" | "exponential"
    target_ratio: float  # fraction of packets addressing the target key
    discipline: str  # "fcfs" | "lcfs"
    stp: float  # successful transmission probability
    comm_latency: Delay  # propagation delay after a successful transmission
    transmit_time: float  # channel occupancy per packet, seconds


class Proposal:
    __slots__ = ("id", "key", "channel", "gen_time")

    def __init__(self, pid, key, channel, gen_time):
        self.id = pid
        self.key = key
        self.channel = channel
        self.gen_time = gen_time


def next_generation_time(cfg, now, rng):
    """Time of the next proposal: exact period in periodic mode, Exp draw otherwise."""
    if cfg.generation_mode == "periodic":
        return now + 1.0 / cfg.total_rate
    return now + rng.expovariate(cfg.total_rate)


def assign_key(cfg, rng, fresh_key):
    """Target key with probability target_ratio, else the given unique background key."""
    if rng.random() < cfg.target_ratio:
        return TARGET_KEY
    return fresh_key


class TransmitterQueue:
    """Proposals waiting for the shared channel.

    FCFS pops the oldest generation time, LCFS the newest; ties break by
    insertion order (FCFS the first pushed, LCFS the last).  Each discipline
    keeps a heap keyed so that its next proposal is the minimum, so the
    discipline holds for any queue state and push and pop are O(log n).
    """

    __slots__ = ("discipline", "_heap", "_seq", "_sign")

    def __init__(self, discipline):
        self.discipline = discipline
        self._heap = []  # (sign * gen_time, sign * insertion seq, proposal)
        self._seq = 0
        self._sign = 1 if discipline == "fcfs" else -1

    def push(self, proposal):
        sign = self._sign
        heappush(self._heap, (sign * proposal.gen_time, sign * self._seq, proposal))
        self._seq += 1

    def pop(self):
        return heappop(self._heap)[2]

    def __len__(self):
        return len(self._heap)
