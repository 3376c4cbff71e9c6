"""Age-of-Information sample-path accounting and derived statistics.

The age of the tracked key rises with slope 1 and drops at each commit of
fresher data to (commit time - generation time); it never touches zero.
All statistics are computed exactly on the piecewise-linear path, never by
sampling.  Commits of stale data (possible under LCFS reordering) do not
reset the age: freshness is defined by the largest committed generation
time seen so far.
"""

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .core import ConfigError, SimulationError


_COMMIT_TIME = itemgetter(0)  # t_u of a reset


class AoISamplePath:
    """Ordered commit reset points (t_u, t_g) over an observation window."""

    __slots__ = ("start", "end", "resets")

    def __init__(self, start, end):
        self.start = start
        self.end = end
        self.resets = []  # (t_u, t_g), t_u nondecreasing, t_g increasing

    def restricted(self, start, end):
        """Copy of the path truncated to resets with t_u inside [start, end]."""
        path = AoISamplePath(start, end)
        resets = self.resets
        path.resets = resets[bisect_left(resets, start, key=_COMMIT_TIME):
                             bisect_right(resets, end, key=_COMMIT_TIME)]
        return path


def _measured_time(path):
    """Length of [first reset, end], or None where no time average exists:
    the path has no reset, or that window has zero length."""
    if not path.resets:
        return None
    duration = path.end - path.resets[0][0]
    if duration < 0:
        raise SimulationError(f"horizon {path.end} before first reset {path.resets[0][0]}")
    return duration if duration > 0 else None


def _pieces(path):
    """The resets with the path end after them, as (t_u, t_g) pairs: each
    linear piece of the sawtooth runs from one pair's t_u to the next's."""
    return itertools.chain(path.resets, [(path.end, None)])


def average_aoi(path):
    """Time-average age over [first reset, end]; None when there is no such window.

    Measurement runs from the first reset to the path end; in the piece from
    each reset to the next the age rises with slope exactly 1.
    """
    duration = _measured_time(path)
    if duration is None:
        return None
    area = 0.0
    pieces = _pieces(path)
    t_u, t_g = next(pieces)
    for seg_end, next_g in pieces:
        age = t_u - t_g
        length = seg_end - t_u
        area += (age + (age + length)) * 0.5 * length
        t_u, t_g = seg_end, next_g
    return area / duration


def violation_probability(path, target):
    """Fraction of measurement time with age above the target threshold."""
    if target < 0:
        raise ConfigError(f"target AoI must be >= 0, got {target}")
    duration = _measured_time(path)
    if duration is None:
        return None
    above = 0.0
    pieces = _pieces(path)
    t_u, t_g = next(pieces)
    for seg_end, next_g in pieces:
        age = t_u - t_g
        length = seg_end - t_u
        # slope 1: time above target within the piece, at most its length
        over = age + length - target
        if over > 0.0:
            above += over if over < length else length
        t_u, t_g = seg_end, next_g
    return above / duration


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
