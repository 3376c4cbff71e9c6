"""Age-of-Information sample-path accounting and derived statistics.

The age of the tracked key rises with slope 1 and drops at each commit of
fresher data to (commit time - generation time); it never touches zero.
All statistics are computed exactly on the piecewise-linear path, never by
sampling.  Commits of stale data (possible under LCFS reordering) do not
reset the age: freshness is defined by the largest committed generation
time seen so far.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .core import ConfigError, SimulationError
from .pipeline import VALID


_COMMIT_TIME = itemgetter(0)  # t_u of a reset


class AoISamplePath:
    """Ordered commit reset points (t_u, t_g) over an observation window."""

    __slots__ = ("start", "end", "resets", "freshest_gen", "_last_commit")

    def __init__(self, start, end):
        self.start = start
        self.end = end
        self.resets = []  # (t_u, t_g), t_u nondecreasing, t_g increasing
        self.freshest_gen = -math.inf
        self._last_commit = -math.inf

    def record_commit(self, t_u, t_g):
        """Register a committed update; appended as a reset only if fresher."""
        if t_u < self._last_commit:
            raise SimulationError(
                f"commit at t={t_u} behind previous commit at t={self._last_commit}"
            )
        if t_u <= t_g:
            raise SimulationError(f"commit time {t_u} not after generation time {t_g}")
        self._last_commit = t_u
        if t_g > self.freshest_gen:
            self.resets.append((t_u, t_g))
            self.freshest_gen = t_g

    def restricted(self, start, end):
        """Copy of the path truncated to resets with t_u inside [start, end]."""
        path = AoISamplePath(start, end)
        resets = self.resets
        path.resets = resets[bisect_left(resets, start, key=_COMMIT_TIME):
                             bisect_right(resets, end, key=_COMMIT_TIME)]
        if path.resets:
            path.freshest_gen = path.resets[-1][1]
            path._last_commit = path.resets[-1][0]
        return path


def _segments(path):
    """Linear pieces (seg_start, seg_end, age_at_seg_start) of the sawtooth.

    Measurement runs from the first reset to the path end; the age in each
    piece rises with slope exactly 1.
    """
    resets = path.resets
    for i, (t_u, t_g) in enumerate(resets):
        seg_end = resets[i + 1][0] if i + 1 < len(resets) else path.end
        yield t_u, seg_end, t_u - t_g


def _measured_time(path):
    """Length of [first reset, end], or None where no time average exists:
    the path has no reset, or that window has zero length."""
    if not path.resets:
        return None
    duration = path.end - path.resets[0][0]
    if duration < 0:
        raise SimulationError(f"horizon {path.end} before first reset {path.resets[0][0]}")
    return duration if duration > 0 else None


def average_aoi(path):
    """Time-average age over [first reset, end]; None when there is no such window."""
    duration = _measured_time(path)
    if duration is None:
        return None
    area = 0.0
    for seg_start, seg_end, age in _segments(path):
        length = seg_end - seg_start
        area += (age + (age + length)) * 0.5 * length
    return area / duration


def violation_probability(path, target):
    """Fraction of measurement time with age above the target threshold."""
    if target < 0:
        raise ConfigError(f"target AoI must be >= 0, got {target}")
    duration = _measured_time(path)
    if duration is None:
        return None
    above = 0.0
    for seg_start, seg_end, age in _segments(path):
        length = seg_end - seg_start
        # slope 1: time above target within the piece
        above += min(length, max(0.0, age + length - target))
    return above / duration


def aoi_ccdf(path, grid):
    """Violation probabilities over a sorted copy of the grid; nonincreasing."""
    return [violation_probability(path, g) for g in sorted(grid)]


@dataclass
class LatencyBreakdown:
    """Per-phase latency means of committed target-key transactions, plus
    outcome counts over all generated proposals."""

    comm_lat: float | None
    endorse_lat: float | None
    order_lat: float | None
    validate_lat: float | None
    n_generated: int
    n_valid: int
    n_mvcc_invalid: int
    n_vscc_invalid: int
    n_lost: int


def latency_means(transactions, target_key):
    """Mean (comm, endorse, order, validate) latency of the valid target-key
    transactions, each summed in the given order; all None if there are none."""
    sums = [0.0, 0.0, 0.0, 0.0]
    n_target = 0
    for tx in transactions:
        if tx.key == target_key and tx.validity == VALID:
            n_target += 1
            sums[0] += tx.arrive_time - tx.gen_time
            sums[1] += tx.endorse_done - tx.arrive_time
            sums[2] += tx.order_done - tx.endorse_done
            sums[3] += tx.commit_time - tx.order_done
    return [s / n_target for s in sums] if n_target else [None] * 4
