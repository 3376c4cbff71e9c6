import math
import statistics

import pytest

from bcesim.config import paper_default
from bcesim.dists import Delay
from bcesim.frontback import TARGET_KEY, run_once
from des_oracle import transactions


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
    background = [tx.key for tx in transactions(result) if tx.key != TARGET_KEY]
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
    (tx,) = transactions(result)
    assert tx.gen_time == 2.0
    assert tx.arrive_time == pytest.approx(2.06)


def test_zero_stp_loses_everything():
    cfg = paper_default().replace(stp=0.0, horizon=50.0, warmup=0.0)
    result = run_once(cfg, 5)
    assert result.breakdown.n_generated - result.breakdown.n_lost == 0
    assert len(result.lost) == result.breakdown.n_generated > 0
    assert transactions(result) == []


def test_lost_proposals_never_reach_the_ledger():
    cfg = paper_default().replace(stp=0.4, horizon=100.0, warmup=0.0, target_ratio=0.5)
    result = run_once(cfg, 6)
    lost_ids = {pid for pid, _, _, _ in result.lost}
    assert lost_ids.isdisjoint({tx.id for tx in transactions(result)})
    committed_bg = {
        tx.key for tx in transactions(result) if tx.key != TARGET_KEY and tx.commit_time
    }
    assert lost_ids.isdisjoint(committed_bg)


def md1_transmitter(discipline, horizon=100.0):
    """The benchmark's M/D/1 shape: Poisson proposals at 9/s queue for a
    channel that takes 0.1 s each (load 0.9) and loses none, and arrive the
    instant their transmission ends."""
    return paper_default().replace(
        horizon=horizon, warmup=0.0, generation_mode="exponential", total_rate=9.0,
        discipline=discipline, transmit_time=0.1, stp=1.0, comm_latency=Delay("fixed", 0.0),
    )


def transmitter_replay(result, discipline):
    """Replay the transmitter of a full-record `md1_transmitter` run from its
    record: (the transmissions that did not serve the proposal the
    discipline picks, the most proposals that were waiting at one start).

    The record lists the delivered transactions in delivery order, with ids
    counting generations, and a transaction arrives when its transmission
    ends.  A transmission starts when the previous one ends or, if the
    channel was idle, at its own proposal's generation, whichever is later;
    the proposals generated by then and not yet sent were waiting.  FCFS
    serves the oldest of them, LCFS the newest.
    """
    delivered = transactions(result)
    assert len(delivered) == result.breakdown.n_generated  # no loss: every proposal is here
    by_generation = sorted(delivered, key=lambda tx: tx.id)
    pick = min if discipline == "fcfs" else max
    waiting, generated, end = set(), 0, -math.inf
    wrong = peak = 0
    for tx in delivered:
        start = max(end, tx.gen_time)
        while generated < len(by_generation) and by_generation[generated].gen_time <= start:
            waiting.add(by_generation[generated])
            generated += 1
        peak = max(peak, len(waiting))
        wrong += tx is not pick(waiting, key=lambda w: w.gen_time)
        waiting.remove(tx)
        end = tx.arrive_time
    return wrong, peak


@pytest.mark.parametrize("discipline", ["fcfs", "lcfs"])
def test_transmitter_serves_by_discipline(discipline):
    for seed in range(1, 5):
        wrong, peak = transmitter_replay(run_once(md1_transmitter(discipline), seed), discipline)
        assert wrong == 0 and peak >= 5, (seed, wrong, peak)
