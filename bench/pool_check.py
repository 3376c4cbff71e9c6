"""Check that calibration keeps speed-ups from a process pool at their host size.

    python3 bench/pool_check.py [rounds]

Run from the root of a checkout.  Each round times the same 8 md1_channel
replications twice under calibrate.SpeedSampler, once one after another in
this process and once in a pool of 2 worker processes, and prints the median
over the rounds of serial ÷ pooled time, in host and in calibrated seconds.
If the reference loop counted time spent waiting behind the pool's workers,
the calibrated ratio would read higher than the host ratio.
"""

import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bcesim.config import parse_config  # noqa: E402
from bcesim.experiments import run_replication  # noqa: E402
from calibrate import SpeedSampler, speed_factor  # noqa: E402
from workloads import MD1_CONFIG  # noqa: E402

REPS = 8
CFG = parse_config(MD1_CONFIG + "master_seed = 7\n")


def timed(run):
    """(host, calibrated) seconds of one call of `run`."""
    sampler = SpeedSampler()
    with sampler:
        start = time.perf_counter()
        run()
        end = time.perf_counter()
    host = end - start - sampler.paused(start, end)
    return host, host * speed_factor(sampler.loop_s)


def main():
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    host, calibrated = [], []
    with ProcessPoolExecutor(2) as pool:
        list(pool.map(run_replication, [CFG] * 2, range(2)))  # start both workers
        for _ in range(rounds):
            serial = timed(lambda: [run_replication(CFG, k) for k in range(REPS)])
            pooled = timed(lambda: list(pool.map(run_replication, [CFG] * REPS, range(REPS))))
            host.append(serial[0] / pooled[0])
            calibrated.append(serial[1] / pooled[1])
    print(f"serial / 2-process pool over {rounds} rounds (median): "
          f"host {statistics.median(host):.3f}, calibrated {statistics.median(calibrated):.3f}")


if __name__ == "__main__":
    main()
