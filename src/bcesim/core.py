"""Shared error types and the seeded RNG streams.

The event loop itself lives in `bcesim.simulation.run_once`.
"""

import random


class SimulationError(RuntimeError):
    """Internal ordering bug (an event behind the clock, out-of-order commits)."""


class ConfigError(ValueError):
    """Invalid parameter or malformed configuration input."""


def make_stream(master_seed, stream_id):
    """Seeded generator for one stochastic concern.

    Identical (master_seed, stream_id) pairs yield identical draw sequences;
    distinct concerns get distinct streams so that changing one parameter
    never perturbs unrelated draws (common random numbers across sweeps).
    """
    return random.Random(f"{master_seed}/{stream_id}")
