"""Update sources, transmitter queue discipline, and the lossy channel.

Sources emit timestamped update proposals.  A single shared channel serves
the transmitter queue under FCFS or LCFS; each transmission succeeds with
probability ``stp`` and is otherwise dropped permanently (no retransmission,
so the delivered rate thins to total_rate * stp).
"""

from heapq import heappop, heappush

# The tracked ledger key. Background proposals use their own unique ids as
# keys so MVCC conflicts can only involve the target.
TARGET_KEY = 0


class Proposal:
    __slots__ = ("id", "key", "channel", "gen_time")

    def __init__(self, pid, key, channel, gen_time):
        self.id = pid
        self.key = key
        self.channel = channel
        self.gen_time = gen_time


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
