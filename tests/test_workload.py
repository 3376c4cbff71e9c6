import pytest
from hypothesis import given, strategies as st

from bcesim.config import paper_default
from bcesim.core import make_stream
from bcesim.dists import Delay
from bcesim.simulation import run_once
from bcesim.workload import (
    TARGET_KEY,
    Proposal,
    SourceConfig,
    TransmitterQueue,
    assign_key,
    next_generation_time,
)


def _source(**overrides):
    base = dict(
        total_rate=10.0,
        generation_mode="periodic",
        target_ratio=0.3,
        discipline="fcfs",
        stp=1.0,
        comm_latency=Delay("fixed", 0.0),
        transmit_time=0.0,
    )
    base.update(overrides)
    return SourceConfig(**base)


def test_periodic_generation_is_exact():
    rng = make_stream(1, "g")
    assert next_generation_time(_source(total_rate=10.0), 0.0, rng) == 0.1
    assert next_generation_time(_source(total_rate=1.0), 5.0, rng) == 6.0


def test_exponential_generation_mean_gap():
    cfg = _source(total_rate=20.0, generation_mode="exponential")
    rng = make_stream(2, "g")
    n = 10**6
    total = sum(next_generation_time(cfg, 0.0, rng) for _ in range(n))
    assert total / n == pytest.approx(0.05, rel=0.01)


def test_assign_key_extremes():
    rng = make_stream(3, "k")
    always = _source(target_ratio=1.0)
    never = _source(target_ratio=0.0)
    for i in range(200):
        assert assign_key(always, rng, i + 1) == TARGET_KEY
        assert assign_key(never, rng, i + 1) == i + 1


def test_assign_key_frequency():
    rng = make_stream(4, "k")
    cfg = _source(target_ratio=0.3)
    n = 10**6
    hits = sum(1 for i in range(n) if assign_key(cfg, rng, i + 1) == TARGET_KEY)
    assert abs(hits / n - 0.3) < 0.005


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
    assert result.n_delivered == 0
    assert len(result.lost) == result.n_generated > 0
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
