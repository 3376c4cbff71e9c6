import statistics

import pytest
from hypothesis import given, strategies as st

from bcesim.config import paper_default
from bcesim.dists import Delay
from bcesim.simulation import run_once
from bcesim.workload import TARGET_KEY, Proposal, TransmitterQueue


def _proposals(n, seed, **overrides):
    """(id, key, channel, gen_time) of every proposal of a run of about n proposals.

    With stp 0 every proposal is lost at once, so the run is only the workload.
    """
    cfg = paper_default().replace(warmup=0.0, stp=0.0, **overrides)
    cfg = cfg.replace(horizon=n / cfg.total_rate)
    result = run_once(cfg, seed)
    assert len(result.lost) == result.breakdown.n_generated > 0
    return result.lost


def test_periodic_generation_is_exact():
    for rate in (10.0, 1.0, 3.0):
        gens = [gen for *_, gen in _proposals(50, 1, total_rate=rate)]
        period = 1.0 / rate
        assert gens[0] == period
        assert all(b == a + period for a, b in zip(gens, gens[1:]))


def test_exponential_generation_mean_gap():
    proposals = _proposals(2 * 10**5, 2, total_rate=20.0, generation_mode="exponential")
    gens = [0.0] + [gen for *_, gen in proposals]
    gaps = [b - a for a, b in zip(gens, gens[1:])]
    assert statistics.fmean(gaps) == pytest.approx(0.05, rel=0.01)
    assert statistics.pstdev(gaps) == pytest.approx(0.05, rel=0.02)  # exponential, not periodic


def test_assign_key_extremes():
    always = _proposals(200, 3, target_ratio=1.0)
    never = _proposals(200, 3, target_ratio=0.0)
    assert all(key == TARGET_KEY for _, key, _, _ in always)
    assert all(key == pid for pid, key, _, _ in never)


def test_assign_key_frequency():
    proposals = _proposals(2 * 10**5, 4, target_ratio=0.3)
    hits = sum(1 for _, key, _, _ in proposals if key == TARGET_KEY)
    assert abs(hits / len(proposals) - 0.3) < 0.005


def test_background_keys_unique():
    cfg = paper_default().replace(horizon=50.0, warmup=0.0, target_ratio=0.5)
    result = run_once(cfg, 11)
    background = [tx.key for tx in result.transactions if tx.key != TARGET_KEY]
    assert len(background) == len(set(background))


def test_deterministic_delivery_arithmetic():
    # pop at t=2, transmit 0.01, fixed latency 0.05 -> arrival 2.06
    cfg = paper_default().replace(
        total_rate=0.5,
        horizon=2.0,
        warmup=0.0,
        transmit_time=0.01,
        comm_latency=Delay("fixed", 0.05),
    )
    result = run_once(cfg, 1)
    assert len(result.transactions) == 1
    assert result.transactions[0].gen_time == 2.0
    assert result.transactions[0].arrive_time == pytest.approx(2.06)


def test_zero_stp_loses_everything():
    cfg = paper_default().replace(stp=0.0, horizon=50.0, warmup=0.0)
    result = run_once(cfg, 5)
    assert result.breakdown.n_generated - result.breakdown.n_lost == 0
    assert len(result.lost) == result.breakdown.n_generated > 0
    assert result.transactions == []


def test_lost_proposals_never_reach_the_ledger():
    cfg = paper_default().replace(stp=0.4, horizon=100.0, warmup=0.0, target_ratio=0.5)
    result = run_once(cfg, 6)
    lost_ids = {pid for pid, _, _, _ in result.lost}
    assert lost_ids.isdisjoint({tx.id for tx in result.transactions})
    committed_bg = {
        tx.key for tx in result.transactions if tx.key != TARGET_KEY and tx.commit_time
    }
    assert lost_ids.isdisjoint(committed_bg)


def _queue_with(discipline, gen_times):
    q = TransmitterQueue(discipline)
    for i, t in enumerate(gen_times):
        q.push(Proposal(i + 1, i + 1, 0, t))
    return q


@given(st.lists(st.floats(0, 100), min_size=1, max_size=30))
def test_fcfs_pops_minimum_gen_time(gen_times):
    q = _queue_with("fcfs", gen_times)
    popped = [q.pop().gen_time for _ in range(len(gen_times))]
    assert popped == sorted(gen_times)


@given(st.lists(st.floats(0, 100), min_size=1, max_size=30))
def test_lcfs_pops_maximum_gen_time(gen_times):
    q = _queue_with("lcfs", gen_times)
    popped = [q.pop().gen_time for _ in range(len(gen_times))]
    assert popped == sorted(gen_times, reverse=True)


@pytest.mark.parametrize("discipline, order", [("fcfs", [1, 2, 3, 4]), ("lcfs", [4, 3, 2, 1])])
def test_equal_gen_times_pop_by_insertion_order(discipline, order):
    q = _queue_with(discipline, [5.0, 5.0, 5.0, 5.0])
    assert [q.pop().id for _ in range(4)] == order
