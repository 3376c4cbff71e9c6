"""Machine-speed calibration for the host-time metrics.

The machines this benchmark runs on share their cores, and their speed at
pure-Python work drifts by 30% or more within seconds to minutes.  While a
worker runs its workload, a SIGALRM handler times a short fixed event loop
(`reference_loop`, which no change to bcesim can touch) every PERIOD_S of
wall time; a few more timings are taken before and after.  The loop is timed
in the CPU time of its thread, so a workload that keeps every core busy with
its own child processes does not make the machine look slow (`pool_check.py`
tests this).  Drift shows in CPU time as well as wall time.  Host seconds are
reported as calibrated seconds: each sampled instant counts at the speed the
loop ran at, rescaled to the speed at which the loop takes REF_S.  Time spent
in the handler is taken out of the workload's host time.
"""

import heapq
import random
import signal
import statistics
import time

# Chosen so that calibrated seconds roughly match host seconds in the quiet phases of
# a 2-vCPU x86-64 VM under CPython 3.11.7.
REF_S = 0.00039
PERIOD_S = 0.025  # one loop timing per 25 ms of workload: about 2% extra work
EDGE_ROUNDS = 8  # loop timings before and after the workload


class _Job:
    __slots__ = ("key", "born")


# Reused across calls, so that the loop allocates almost no objects the
# garbage collector tracks and sampling barely shifts the workload's
# collections.
_JOBS = [_Job() for _ in range(64)]


def reference_loop(n=300):
    """A small event loop with the same kinds of work as the simulator: a heap,
    seeded draws, slotted attribute access, dict counters and number
    formatting."""
    rng = random.Random(20240101)
    heap = [rng.expovariate(1.0) for _ in range(8)]
    heapq.heapify(heap)
    versions = {}
    out = []
    for i in range(n):
        t = heapq.heappop(heap)
        job = _JOBS[i & 63]
        job.key = i % 5 if rng.random() < 0.3 else i
        job.born = t
        versions[job.key] = versions.get(job.key, 0) + 1
        out.append(f"{job.key},{format(t, '.10g')}")
        heapq.heappush(heap, t + rng.expovariate(1.0))
    return len(out)


def _timed_loop():
    # CPU time of this thread, so that time spent waiting for a core (behind
    # the workload's own child processes, say) does not read as a slow machine.
    start = time.thread_time()
    reference_loop()
    return time.thread_time() - start


class SpeedSampler:
    """Context manager that samples the machine's speed while its body runs.

    `loop_s` holds every loop timing; `paused(start, end)` is the host time
    the handler took from the body between two perf_counter readings.
    """

    def __init__(self):
        self.loop_s = []
        self._pauses = []  # (perf_counter at handler entry, seconds in handler)
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.loop_s.append(_timed_loop())
        self._pauses.append((start, time.perf_counter() - start))

    def paused(self, start, end):
        return sum(d for t, d in self._pauses if start <= t < end)

    def __enter__(self):
        self.loop_s += [_timed_loop() for _ in range(EDGE_ROUNDS)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.loop_s += [_timed_loop() for _ in range(EDGE_ROUNDS)]
        return False


def speed_factor(loop_s):
    """Calibrated seconds per host second, from the loop timings of one pass."""
    return statistics.fmean(REF_S / s for s in loop_s)
