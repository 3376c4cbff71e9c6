import math
import random

import pytest
from hypothesis import given, strategies as st

from bcesim.core import ConfigError, SimulationError
from bcesim.metrics import AoISamplePath, average_aoi, violation_probability
from des_oracle import CommitPath


def aoi_ccdf(path, grid):
    """Violation probabilities over a sorted copy of the grid; nonincreasing."""
    return [violation_probability(path, g) for g in sorted(grid)]


def path_from(resets, start=0.0, end=10.0):
    path = CommitPath(start, end)
    for t_u, t_g in resets:
        path.record_commit(t_u, t_g)
    return path


def random_path(rng, max_resets=50):
    """A valid sawtooth path: increasing commit times and freshness."""
    path = CommitPath(0.0, 0.0)
    t_u = rng.uniform(0.1, 1.0)
    gen_floor = 0.0
    for _ in range(rng.randint(1, max_resets)):
        t_g = rng.uniform(gen_floor, t_u * 0.999)
        path.record_commit(t_u, t_g)
        gen_floor = t_g
        t_u += rng.uniform(0.05, 2.0)
    path.end = path.resets[-1][0] + rng.uniform(0.1, 2.0)
    return path


def test_hand_trapezoid_two_resets():
    path = path_from([(2.0, 1.0), (5.0, 4.5)], end=6.0)
    assert average_aoi(path) == pytest.approx(2.125)


def test_single_reset_trapezoid():
    path = path_from([(1.0, 0.5)], end=2.0)
    assert average_aoi(path) == pytest.approx(1.0)


def test_empty_path_has_no_average():
    assert average_aoi(AoISamplePath(0.0, 10.0)) is None


def test_zero_length_window_has_no_average():
    path = path_from([(10.0, 9.0)], end=10.0)  # the one reset falls on the end
    assert average_aoi(path) is None
    assert violation_probability(path, 0.5) is None
    path.end = 9.5
    with pytest.raises(SimulationError):
        average_aoi(path)


def test_violation_hand_interval():
    path = path_from([(2.0, 1.0), (5.0, 4.5)], end=6.0)
    assert violation_probability(path, 3.0) == pytest.approx(0.25)


def test_violation_extremes():
    path = path_from([(2.0, 1.0), (5.0, 4.5)], end=6.0)
    assert violation_probability(path, 0.0) == 1.0  # age never touches zero
    assert violation_probability(path, 1e9) == 0.0
    with pytest.raises(ConfigError):
        violation_probability(path, -1.0)


def _min_max_violation(path, target):
    """violation_probability with the time above target of each piece taken as
    min(length, max(0, age + length - target))."""
    ends = [t_u for t_u, _ in path.resets[1:]] + [path.end]
    above = 0.0
    for (t_u, t_g), seg_end in zip(path.resets, ends):
        age = t_u - t_g
        length = seg_end - t_u
        above += min(length, max(0.0, age + length - target))
    return above / (path.end - path.resets[0][0])


def test_violation_equals_min_max_expression_bit_for_bit():
    rng = random.Random(12)
    paths = [random_path(rng) for _ in range(300)]
    # zero-length pieces: two blocks committing at one instant
    paths.append(path_from([(1.0, 0.5), (2.0, 1.0), (2.0, 1.5), (3.0, 2.0), (3.0, 2.5)]))
    for path in paths:
        ages = [t_u - t_g for t_u, t_g in path.resets]
        # target 0, targets at a reset age and at a piece's end age (where the
        # time above is the whole piece or none of it), and a spread of others
        targets = [0.0, ages[0], ages[-1] + (path.end - path.resets[-1][0])]
        targets += [rng.uniform(0.0, 2.0 * max(ages)) for _ in range(5)]
        for target in targets:
            expected = _min_max_violation(path, target)
            assert violation_probability(path, target).hex() == expected.hex()


@st.composite
def sawtooth_paths(draw):
    """A path from drawn commits: nondecreasing commit times (equal ones give
    zero-length pieces), each generation a fraction of its commit time (a
    stale one is dropped), and an end at or after the last commit."""
    path = CommitPath(0.0, 0.0)
    t_u = draw(st.floats(0.01, 10.0))
    for gap, share in draw(st.lists(st.tuples(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 5.0),
                                              st.floats(0.0, 0.999)), min_size=1, max_size=30)):
        path.record_commit(t_u, t_u * share)
        t_u += gap
    path.end = path.resets[-1][0] + draw(st.floats(0.0, 5.0))
    return path


def _trapezoid_average(path):
    """average_aoi as the plain trapezoid sum over the pieces."""
    ends = [t_u for t_u, _ in path.resets[1:]] + [path.end]
    area = 0.0
    for (t_u, t_g), seg_end in zip(path.resets, ends):
        age = t_u - t_g
        length = seg_end - t_u
        area += (age + (age + length)) * 0.5 * length
    return area / (path.end - path.resets[0][0])


@given(sawtooth_paths())
def test_average_equals_trapezoid_sum_bit_for_bit(path):
    if path.end == path.resets[0][0]:  # no window to average over
        assert average_aoi(path) is None
    else:
        assert average_aoi(path).hex() == _trapezoid_average(path).hex()


def test_ccdf_matches_violation_and_sorts_grid():
    path = path_from([(2.0, 1.0), (5.0, 4.5)], end=6.0)
    assert aoi_ccdf(path, [3.0]) == [pytest.approx(0.25)]
    assert aoi_ccdf(path, [0.0]) == [1.0]
    probs = aoi_ccdf(path, [3.0, 0.5, 2.0])
    assert probs == sorted(probs, reverse=True)


def test_stale_commit_is_ignored():
    path = path_from([(2.0, 1.0), (3.0, 0.5)], end=6.0)
    assert path.resets == [(2.0, 1.0)]
    with_stale = path_from([(2.0, 1.0), (3.0, 0.5), (5.0, 4.5)], end=6.0)
    without = path_from([(2.0, 1.0), (5.0, 4.5)], end=6.0)
    assert average_aoi(with_stale) == average_aoi(without)
    assert violation_probability(with_stale, 2.0) == violation_probability(without, 2.0)


def test_commit_preconditions():
    path = path_from([(2.0, 1.0)])
    with pytest.raises(SimulationError):
        path.record_commit(1.5, 1.2)  # out-of-order commit time
    with pytest.raises(SimulationError):
        path.record_commit(3.0, 3.0)  # zero update latency is impossible


def test_age_is_strictly_positive():
    rng = random.Random(7)
    for _ in range(50):
        path = random_path(rng)
        for t_u, t_g in path.resets:
            assert t_u - t_g > 0


def test_average_at_least_minimum_reset_age():
    rng = random.Random(8)
    for _ in range(50):
        path = random_path(rng)
        assert average_aoi(path) >= min(t_u - t_g for t_u, t_g in path.resets)


@given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=10))
def test_violation_nonincreasing_in_target(targets):
    rng = random.Random(9)
    path = random_path(rng)
    probs = aoi_ccdf(path, targets)
    for lo, hi in zip(probs, probs[1:]):
        assert hi <= lo + 1e-12


def test_statistics_consistent_under_warmup_restriction():
    rng = random.Random(10)
    for _ in range(30):
        path = random_path(rng)
        cut = path.resets[len(path.resets) // 2][0]
        truncated = path.restricted(cut, path.end)
        rebuilt = CommitPath(cut, path.end)
        for t_u, t_g in path.resets:
            if t_u >= cut:
                rebuilt.record_commit(t_u, t_g)
        assert truncated.resets == rebuilt.resets
        assert average_aoi(truncated) == average_aoi(rebuilt)
        assert violation_probability(truncated, 1.0) == pytest.approx(
            violation_probability(rebuilt, 1.0)
        )


def test_restriction_keeps_every_reset_on_the_window_edges():
    # Two blocks committing at one instant give resets with equal t_u.
    path = path_from([(1.0, 0.5), (2.0, 1.0), (2.0, 1.5), (3.0, 2.0), (3.0, 2.5), (4.0, 3.0)])
    for start, end in [(2.0, 3.0), (2.0, 2.0), (1.5, 3.5), (0.0, 10.0), (3.5, 3.75)]:
        window = path.restricted(start, end)
        assert window.resets == [r for r in path.resets if start <= r[0] <= end]
        assert (window.start, window.end) == (start, end)


def test_grid_oracle_agreement_small():
    from aoi_oracle import grid_average_aoi, grid_violation_probability

    rng = random.Random(11)
    for _ in range(10):
        path = random_path(rng, max_resets=10)
        exact = average_aoi(path)
        assert math.isclose(exact, grid_average_aoi(path), rel_tol=1e-6)
        for target in (0.1, 0.5, 1.0, 3.0):
            assert abs(
                violation_probability(path, target)
                - grid_violation_probability(path, target)
            ) < 1e-6
