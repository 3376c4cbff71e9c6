"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The scenario sweeps run at their full preset settings (2000 s horizon,
30 replications), so this module dominates the suite's runtime; expect
several minutes on a single core.  Scenario results are computed once per
session and shared across criteria.
"""

import random
import statistics

import pytest

import bcesim.experiments
from aoi_oracle import grid_average_aoi, grid_violation_probability
from bcesim.config import paper_default
from bcesim.experiments import SCENARIO_SWEEPS, run_scenario, run_sweep
from bcesim.ledger import LedgerState
from bcesim.metrics import aoi_ccdf, average_aoi, violation_probability
from bcesim.pipeline import VALID
from bcesim.simulation import run_once
from bcesim.workload import TARGET_KEY
from test_metrics import random_path


def check(number, name, passed, detail=""):
    print(f"[criterion {number:02d}] {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def _sweep(name):
    param, values, overrides = SCENARIO_SWEEPS[name]
    _, summaries = run_sweep(paper_default().replace(**overrides), param, values)
    return values, summaries


def _aoi_stats(summaries):
    means = [statistics.mean(s.avg_aoi for s in reps) for reps in summaries]
    stds = [statistics.stdev(s.avg_aoi for s in reps) for reps in summaries]
    return means, stds


@pytest.fixture(scope="session")
def fig2():
    return _sweep("fig2")


@pytest.fixture(scope="session")
def fig3():
    return _sweep("fig3")


@pytest.fixture(scope="session")
def fig4():
    return _sweep("fig4")


@pytest.fixture(scope="session")
def fig5():
    return _sweep("fig5")


@pytest.fixture(scope="session")
def fig6():
    return _sweep("fig6")


@pytest.fixture(scope="session")
def nodes():
    """One real run of the `nodes` scenario: (its CSV text, the replication
    summaries of each of its five configs in row order)."""
    summaries = []

    def recording(*args):
        rows, per_value = run_sweep(*args)
        summaries.extend(per_value)
        return rows, per_value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bcesim.experiments, "run_sweep", recording)
        csv_text = run_scenario("nodes")
    assert len(summaries) == 5
    return csv_text, summaries


def test_criterion_01_aoi_oracle_equivalence():
    rng = random.Random(20260823)
    worst_avg = 0.0
    worst_viol = 0.0
    for _ in range(100):
        path = random_path(rng, max_resets=50)
        exact = average_aoi(path)
        rel = abs(exact - grid_average_aoi(path)) / abs(exact)
        worst_avg = max(worst_avg, rel)
        for target in (0.05, 0.5, 1.0, 2.0, 5.0):
            diff = abs(
                violation_probability(path, target)
                - grid_violation_probability(path, target)
            )
            worst_viol = max(worst_viol, diff)
    check(
        1,
        "AoI oracle equivalence",
        worst_avg < 1e-6 and worst_viol < 1e-6,
        f"max rel err {worst_avg:.2e}, max abs err {worst_viol:.2e}",
    )


def test_criterion_02_thinning_identity():
    cfg = paper_default().replace(total_rate=20.0, replications=1, warmup=0.0)
    details = []
    ok = True
    for theta in (0.25, 0.5, 0.75):
        result = run_once(cfg.replace(stp=theta), cfg.master_seed)
        rate = (result.breakdown.n_generated - result.breakdown.n_lost) / cfg.horizon
        expected = 20.0 * theta
        ok = ok and abs(rate - expected) <= 0.02 * expected
        details.append(f"theta={theta}: {rate:.3f}/s vs {expected:.1f}/s")
    check(2, "thinning identity", ok, "; ".join(details))


def test_criterion_03_block_size_shape(fig2):
    values, summaries = fig2
    means, stds = _aoi_stats(summaries)
    argmin = values[means.index(min(means))]
    i6, i20 = values.index(6), values.index(20)
    separated = means[i20] - stds[i20] > means[i6] + stds[i6]
    check(
        3,
        "block-size U shape",
        2 <= argmin <= 6 and separated,
        f"argmin B={argmin}, AoI(6)={means[i6]:.3f}+-{stds[i6]:.3f}, "
        f"AoI(20)={means[i20]:.3f}+-{stds[i20]:.3f}",
    )


def test_criterion_04_timeout_shape(fig3):
    values, summaries = fig3
    means, _ = _aoi_stats(summaries)
    argmin = values[means.index(min(means))]
    interior = values[0] < argmin < values[-1]
    i25, i30 = values.index(2.5), values.index(3.0)
    saturated = abs(means[i25] - means[i30]) < 0.03 * means[i30]
    check(
        4,
        "timeout tradeoff and saturation",
        interior and saturated,
        f"argmin T={argmin}, AoI(2.5)={means[i25]:.4f}, AoI(3.0)={means[i30]:.4f}",
    )


def test_criterion_05_target_ratio_shape(fig4):
    values, summaries = fig4
    means, _ = _aoi_stats(summaries)
    argmin = values[means.index(min(means))]
    interior = values[0] < argmin < values[-1]
    fracs = [statistics.mean(s.mvcc_invalid_frac for s in reps) for reps in summaries]
    monotone = all(b >= a for a, b in zip(fracs, fracs[1:]))
    check(
        5,
        "ratio tradeoff with MVCC invalidation",
        interior and monotone,
        f"argmin r={argmin}, invalid frac {fracs[0]:.3f}..{fracs[-1]:.3f}",
    )


def test_criterion_06_stp_shape(fig5):
    values, summaries = fig5
    means, stds = _aoi_stats(summaries)
    decreasing_low = means[0] > means[1] > means[2]
    i_star = means.index(min(means))
    theta_star = values[i_star]
    i_one = values.index(1.0)
    separated = means[i_one] - stds[i_one] > means[i_star] + stds[i_star]
    identity_ok = True
    for theta, reps in zip(values, summaries):
        # delivery rate is binomially noisy per rep, so check the mean
        ratio = statistics.mean(s.n_delivered for s in reps) / 2000.0 / (20.0 * theta)
        identity_ok = identity_ok and 0.98 <= ratio <= 1.02
    check(
        6,
        "STP tradeoff",
        decreasing_low and theta_star < 1.0 and separated and identity_ok,
        f"theta*={theta_star}, AoI(theta*)={means[i_star]:.3f}, "
        f"AoI(1.0)={means[i_one]:.3f}",
    )


def test_criterion_07_violation_monotone(fig6):
    rng = random.Random(7)
    per_path_ok = True
    for _ in range(20):
        path = random_path(rng)
        probs = aoi_ccdf(path, [0.1 * i for i in range(40)])
        per_path_ok = per_path_ok and all(
            b <= a for a, b in zip(probs, probs[1:])
        )
    values, summaries = fig6
    probs = [statistics.mean(s.violation_prob for s in reps) for reps in summaries]
    monotone = all(b <= a for a, b in zip(probs, probs[1:]))
    reliable = probs[-1] < 0.1
    check(
        7,
        "violation probability vs target",
        per_path_ok and monotone and reliable,
        f"P(A>{values[-1]})={probs[-1]:.4f}",
    )


def test_criterion_08_node_count_direction(nodes):
    # the rows: n_endorsers 1, 2, 3 at n_kafka 4, then n_kafka 4, 5 at
    # three endorsers, all at timeout 1
    _, summaries = nodes
    aois = [statistics.mean(s.avg_aoi for s in reps) for reps in summaries]
    endorser_aois, kafka_aois = aois[:3], aois[3:]
    endorsers_ok = endorser_aois[0] <= endorser_aois[1] <= endorser_aois[2]
    kafka_ok = kafka_aois[0] <= kafka_aois[1]
    check(
        8,
        "node-count direction",
        endorsers_ok and kafka_ok,
        f"endorsers {['%.4f' % a for a in endorser_aois]}, "
        f"kafka {['%.4f' % a for a in kafka_aois]}",
    )


def test_criterion_09_mvcc_ledger_exactness():
    cfg = paper_default().replace(
        horizon=400.0,
        warmup=0.0,
        stp=0.7,
        vscc_fail_prob=0.02,
        target_ratio=0.5,
    )
    ok = True
    details = []
    for seed in (1, 2, 3):
        result = run_once(cfg, seed)
        bd = result.breakdown
        conserved = (
            bd.n_valid + bd.n_mvcc_invalid + bd.n_vscc_invalid + bd.n_lost
            == bd.n_generated
        )
        committed = [tx for tx in result.transactions if tx.validity == VALID]
        committed.sort(key=lambda tx: (tx.commit_time, tx.id))
        replay = LedgerState()
        for tx in committed:
            replay.apply_update(tx.key, tx.gen_time)
        gapless = replay.entries() == result.ledgers[0].entries()
        n_target = sum(1 for tx in committed if tx.key == TARGET_KEY)
        versions_ok = result.ledgers[0].read_version(TARGET_KEY) == n_target
        ok = ok and conserved and gapless and versions_ok
        details.append(f"seed {seed}: {bd.n_generated} proposals")
    check(9, "MVCC/ledger exactness", ok, "; ".join(details))


def test_criterion_10_determinism_byte_identical(nodes):
    first, _ = nodes
    second = run_scenario("nodes")
    check(
        10,
        "byte-identical scenario rerun",
        first == second,
        f"{len(first)} bytes",
    )


def test_criterion_11_discipline_property():
    from bcesim.workload import Proposal, TransmitterQueue

    rng = random.Random(13)
    ok = True
    for _ in range(200):
        gen_times = [round(rng.uniform(0, 50), 2) for _ in range(rng.randint(1, 40))]
        for discipline, oracle in (("fcfs", min), ("lcfs", max)):
            q = TransmitterQueue(discipline)
            for i, t in enumerate(gen_times):
                q.push(Proposal(i, i, 0, t))
            remaining = list(gen_times)
            while len(q):
                popped = q.pop().gen_time
                ok = ok and popped == oracle(remaining)
                remaining.remove(popped)
    check(11, "FCFS/LCFS pop discipline", ok)
