"""Simulation kernel: virtual clock, ordered event queue, seeded RNG streams.

Events are plain tuples ``(time, seq, kind, payload)``.  ``seq`` is assigned
in scheduling order and breaks ties between events at the same virtual time,
which makes every dispatch order a deterministic total order.
"""

import enum
import heapq
import random


class SimulationError(RuntimeError):
    """Internal ordering bug (scheduling in the past, out-of-order commits)."""


class ConfigError(ValueError):
    """Invalid parameter or malformed configuration input."""


class EventKind(enum.IntEnum):
    GENERATION = 0
    TRANSMIT_COMPLETE = 1
    ENDORSE_COMPLETE = 2
    TIMEOUT_FIRE = 3
    BLOCK_READY = 4
    VALIDATION_COMPLETE = 5


class EventQueue:
    """Min-heap of events ordered by (time, seq) with the virtual clock.

    The clock advances only in next_event(), to the time of the event being
    dispatched, so it never decreases.
    """

    __slots__ = ("_heap", "_seq", "clock")

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.clock = 0.0

    def schedule(self, time, kind, payload=None):
        """Insert an event; returns its seq number (the event id)."""
        if time < self.clock:
            raise SimulationError(
                f"scheduled event at t={time} behind clock t={self.clock}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, int(kind), payload))
        return seq

    def next_event(self):
        """Pop the minimum (time, seq) event and advance the clock; None when empty."""
        if not self._heap:
            return None
        ev = heapq.heappop(self._heap)
        self.clock = ev[0]
        return ev

    def __len__(self):
        return len(self._heap)


def make_stream(master_seed, stream_id):
    """Seeded generator for one stochastic concern.

    Identical (master_seed, stream_id) pairs yield identical draw sequences;
    distinct concerns get distinct streams so that changing one parameter
    never perturbs unrelated draws (common random numbers across sweeps).
    """
    return random.Random(f"{master_seed}/{stream_id}")


def sample_exponential(rng, rate):
    """One Exp(rate) draw, mean 1/rate seconds."""
    if rate <= 0:
        raise ConfigError(f"exponential rate must be positive, got {rate}")
    return rng.expovariate(rate)
