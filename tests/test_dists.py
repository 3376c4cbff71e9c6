import pytest

from bcesim.core import ConfigError, make_stream
from bcesim.dists import Delay


def test_parse_fixed_and_exp():
    assert Delay.parse("fixed:0.05") == Delay("fixed", 0.05)
    assert Delay.parse("exp:0.02") == Delay("exp", 0.02)


@pytest.mark.parametrize(
    "text", ["0.05", "normal:1", "fixed:", "exp:-1", "fixed:-0.1", "exp:nan", "fixed:inf"]
)
def test_parse_rejects_bad_syntax(text):
    with pytest.raises(ConfigError):
        Delay.parse(text)


def test_fixed_sampling_is_constant():
    rng = make_stream(1, "d")
    d = Delay("fixed", 0.3)
    assert d.sample(rng) == 0.3
    assert d.sample_max(rng, 5) == 0.3


def test_exp_sample_mean():
    rng = make_stream(1, "d")
    d = Delay("exp", 0.02)
    n = 10**5
    mean = sum(d.sample(rng) for _ in range(n)) / n
    assert mean == pytest.approx(0.02, rel=0.02)


def test_max_of_three_exponentials_mean():
    # E[max of 3 iid Exp(mean m)] = m * (1 + 1/2 + 1/3)
    rng = make_stream(2, "d")
    d = Delay("exp", 0.02)
    n = 10**5
    mean = sum(d.sample_max(rng, 3) for _ in range(n)) / n
    assert mean == pytest.approx(0.02 * (1 + 0.5 + 1 / 3), rel=0.02)


def test_max_draw_monotone_in_peer_count_for_shared_uniform():
    d = Delay("exp", 0.02)
    for n1, n2 in [(1, 2), (2, 3), (1, 3)]:
        a = make_stream(9, "d")
        b = make_stream(9, "d")
        for _ in range(1000):
            assert d.sample_max(a, n1) <= d.sample_max(b, n2)
