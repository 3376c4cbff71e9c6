import gc
import re

import pytest
from hypothesis import given, reject, settings, strategies as st

from bcesim.config import paper_default
from bcesim.core import ConfigError, SimulationError
from bcesim.dists import Delay
from bcesim.experiments import summarize
from bcesim.pipeline import VALID
from bcesim.simulation import run_once
from bcesim.workload import TARGET_KEY
from des_oracle import latency_breakdown, run_oracle


def _trace(result):
    return [
        (tx.id, tx.key, tx.arrive_time, tx.endorse_done, tx.order_done,
         tx.commit_time, tx.validity)
        for tx in result.transactions
    ]


def _everything(engine, cfg, seed, arrivals):
    """Every observable of a run, or the error it stopped with, for exact comparison."""
    try:
        result = engine(cfg, seed, arrivals)
    except SimulationError as exc:  # e.g. a commit at its own generation instant
        return str(exc)
    return (
        [
            (tx.id, tx.key, tx.channel, tx.gen_time, tx.arrive_time, tx.endorse_done,
             tx.captured_version, tx.order_done, tx.commit_time, tx.validity)
            for tx in result.transactions
        ],
        result.lost,
        (result.path.start, result.path.end, result.path.resets),
        result.full_path.resets,
        result.breakdown,
        result.n_generated,
        result.n_delivered,
        result.blocks_committed,
        result.blocks_in_window,
        result.block_times,
        [ledger.entries() for ledger in result.ledgers],
    )


# Multiples of 1/8 add up exactly in binary floating point, so with periodic
# generation at 1, 2, 4 or 8 per second events of different phases land on
# the very same instant and the order of same-instant events decides the run.
_EXACT = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
_ARRIVALS = st.lists(
    st.tuples(
        st.integers(0, 40).map(lambda k: k * 0.125),  # arrive time
        _EXACT,  # endorse delay
        st.sampled_from([TARGET_KEY, 1, 2]),
        st.sampled_from([0.125, 0.5]),  # age at arrival
    ).map(lambda a: (a[0], a[1], a[2], a[0] - a[3])),
    max_size=30,
)


@st.composite
def _models(draw):
    if draw(st.booleans()):
        # a coarse grid of fixed delays: ties between every pair of phases
        exact = st.sampled_from([0.0, 0.5, 1.0])
        delays = exact.map(lambda v: Delay("fixed", v))
        rates = [1.0, 2.0, 4.0]
        timeouts = [0.5, 1.0]
    else:
        exact = _EXACT
        delays = st.one_of(
            exact.map(lambda v: Delay("fixed", v)),
            st.sampled_from([0.05, 0.3]).map(lambda mean: Delay("exp", mean)),
        )
        rates = [1.0, 2.0, 4.0, 8.0, 5.0]
        timeouts = [0.125, 0.25, 0.5, 1.0]
    model = dict(
        horizon=60.0,
        warmup=draw(st.sampled_from([0.0, 4.0])),
        total_rate=draw(st.sampled_from(rates)),
        generation_mode=draw(st.sampled_from(["periodic", "periodic", "exponential"])),
        target_ratio=draw(st.sampled_from([0.3, 0.7, 1.0])),
        discipline=draw(st.sampled_from(["fcfs", "lcfs"])),
        stp=draw(st.sampled_from([1.0, 0.5])),
        comm_latency=draw(delays),
        transmit_time=draw(exact),
        block_size=draw(st.integers(1, 4)),
        timeout=draw(st.sampled_from(timeouts)),
        n_endorsers=draw(st.integers(1, 3)),
        n_kafka=draw(st.sampled_from([4, 5])),
        n_channels=draw(st.integers(1, 2)),
        endorse_time=draw(delays),
        ordering_base=draw(exact),
        ordering_per_kafka=draw(exact),
        validate_block_overhead=draw(exact),
        validate_per_tx=draw(exact),
        vscc_fail_prob=draw(st.sampled_from([0.0, 0.3])),
    )
    try:
        cfg = paper_default().replace(**model)
    except ConfigError:  # a zero-latency pipeline, rejected before any run
        reject()
    arrivals = draw(st.one_of(st.none(), _ARRIVALS))
    return cfg, arrivals


@settings(settings.get_profile("simulation"), max_examples=200)
@given(_models(), st.integers(0, 1000))
def test_run_matches_event_heap_oracle(model, seed):
    cfg, arrivals = model
    assert _everything(run_once, cfg, seed, arrivals) == _everything(
        run_oracle, cfg, seed, arrivals
    )


def _assert_lean_summary_exact(cfg, seed, measure):
    """A lean run summarizes exactly like the full record of the same run,
    with its outcome counts and latency means taken from the transactions."""
    try:
        full = run_once(cfg, seed)
    except SimulationError as exc:
        with pytest.raises(SimulationError, match=re.escape(str(exc))):
            run_once(cfg, seed, record=False)
        return
    lean = run_once(cfg, seed, record=False)
    assert (lean.transactions, lean.lost, lean.ledgers) == (None, None, None)
    full.breakdown = latency_breakdown(full.transactions, len(full.lost), full.n_generated,
                                       TARGET_KEY)
    full.n_delivered = len(full.transactions)
    assert summarize(measure, lean) == summarize(measure, full)


@settings(settings.get_profile("simulation"), max_examples=200)
@given(
    _models(),
    st.integers(0, 1000),
    st.sampled_from([0.0, 4.0, 17.25, 59.5]),
    st.sampled_from([None, 0.0, 0.5, 2.0]),
)
def test_lean_run_summarizes_like_the_full_record(model, seed, warmup, target_aoi):
    cfg, _ = model  # injected arrivals always give the full record
    _assert_lean_summary_exact(cfg, seed, cfg.replace(warmup=warmup, target_aoi=target_aoi))


@pytest.mark.parametrize("seed", [1022, 1023])
def test_lean_latency_means_are_summed_in_delivery_order(seed):
    # Two channels, losses and slow endorsements reorder commits against
    # deliveries; at seed 1022, summing the means in commit order instead
    # changes the last bits of a latency mean.
    cfg = paper_default().replace(
        total_rate=20.0,
        generation_mode="exponential",
        target_ratio=0.3,
        stp=0.7,
        transmit_time=0.01,
        block_size=3,
        timeout=2.0,
        n_channels=2,
        n_endorsers=3,
        endorse_time=Delay("exp", 0.2),
        comm_latency=Delay("exp", 0.05),
        horizon=300.0,
        warmup=20.0,
    )
    _assert_lean_summary_exact(cfg, seed, cfg)


def test_injected_arrivals_always_keep_the_full_record(quick_cfg):
    arrivals = [(1.0, 0.0, TARGET_KEY, 0.9), (1.5, 0.0, 1, 1.4), (1.6, 0.0, 1, 1.5)]
    cfg = quick_cfg.replace(warmup=0.0)
    lean = run_once(cfg, 1, arrivals=arrivals, record=False)
    assert [tx.key for tx in lean.transactions] == [TARGET_KEY, 1, 1]
    assert lean.ledgers[0].entries() == {TARGET_KEY: (1, 0.9), 1: (1, 1.4)}
    assert _everything(lambda *_: lean, cfg, 1, arrivals) == _everything(
        run_once, cfg, 1, arrivals
    )


def test_injected_arrival_behind_the_clock_raises(quick_cfg):
    with pytest.raises(SimulationError, match="behind"):
        run_once(quick_cfg, 1, arrivals=[(-1.0, 0.5, TARGET_KEY, -2.0)])


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_gc_state(quick_cfg, enabled):
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        run_once(quick_cfg, 1)
        assert gc.isenabled() == enabled
        with pytest.raises(SimulationError, match="behind"):
            run_once(quick_cfg, 1, arrivals=[(-1.0, 0.5, TARGET_KEY, -2.0)])
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_run_leaves_no_cyclic_garbage(quick_cfg):
    configs = [
        quick_cfg.replace(discipline="lcfs", transmit_time=0.05),
        quick_cfg.replace(stp=0.6, comm_latency=Delay("exp", 0.05)),
        quick_cfg.replace(n_channels=2, vscc_fail_prob=0.2, target_ratio=0.5),
        quick_cfg.replace(block_size=1),
    ]
    gc.collect()
    for cfg in configs:
        result = run_once(cfg, 3)
        assert result.transactions
        del result
        assert gc.collect() == 0


def test_identical_seed_gives_bit_identical_traces(quick_cfg):
    cfg = quick_cfg.replace(stp=0.8, generation_mode="exponential")
    a = run_once(cfg, 99)
    b = run_once(cfg, 99)
    assert _trace(a) == _trace(b)
    assert a.path.resets == b.path.resets
    assert a.lost == b.lost


def test_different_seeds_differ(quick_cfg):
    cfg = quick_cfg.replace(generation_mode="exponential")
    assert _trace(run_once(cfg, 1)) != _trace(run_once(cfg, 2))


def test_outcome_counts_partition_generated(quick_cfg):
    cfg = quick_cfg.replace(stp=0.6, vscc_fail_prob=0.05, target_ratio=0.5)
    result = run_once(cfg, 17)
    bd = result.breakdown
    assert bd.n_valid + bd.n_mvcc_invalid + bd.n_vscc_invalid + bd.n_lost == (
        result.n_generated
    )
    assert all(tx.validity != "pending" for tx in result.transactions)


def test_committed_version_sequence_is_gapless(quick_cfg):
    result = run_once(quick_cfg, 21)
    n_target_commits = sum(
        1
        for tx in result.transactions
        if tx.key == TARGET_KEY and tx.validity == VALID
    )
    assert result.ledgers[0].read_version(TARGET_KEY) == n_target_commits > 0


def test_ledger_replay_matches_final_state(quick_cfg):
    from bcesim.ledger import LedgerState

    result = run_once(quick_cfg.replace(target_ratio=0.6), 23)
    committed = [tx for tx in result.transactions if tx.validity == VALID]
    committed.sort(key=lambda tx: (tx.commit_time, tx.id))
    replay = LedgerState()
    for tx in committed:
        replay.apply_update(tx.key, tx.gen_time)
    assert replay.entries() == result.ledgers[0].entries()


def test_warmup_only_affects_the_measured_window():
    cfg = paper_default().replace(horizon=300.0, warmup=0.0)
    full = run_once(cfg, 31)
    warmed = run_once(cfg.replace(warmup=50.0), 31)
    assert warmed.path.resets == [r for r in full.path.resets if r[0] >= 50.0]


def test_result_rewindows_like_a_run_with_that_warmup():
    cfg = paper_default().replace(horizon=300.0, warmup=0.0, block_size=3)
    base = run_once(cfg, 31)
    for warmup in (0.0, 0.05, 50.0, 299.5):
        run = run_once(cfg.replace(warmup=warmup), 31)
        path, blocks = base.window(warmup)
        assert (path.start, path.end, path.resets) == (run.path.start, run.path.end, run.path.resets)
        assert blocks == run.blocks_in_window
        assert run.window(warmup) == (run.path, run.blocks_in_window)


def test_multi_channel_trace_equals_single_channel_sub_workload():
    cfg = paper_default().replace(
        horizon=300.0,
        warmup=0.0,
        n_channels=3,
        block_size=5,
        timeout=0.5,
        target_ratio=0.2,
    )
    main = run_once(cfg, 41)
    for channel in range(3):
        txs = [tx for tx in main.transactions if tx.channel == channel]
        arrivals = [
            (tx.arrive_time, tx.endorse_done - tx.arrive_time, tx.key, tx.gen_time)
            for tx in txs
        ]
        sub_cfg = cfg.replace(n_channels=1)
        sub = run_once(sub_cfg, 41, arrivals=arrivals)
        assert [
            (tx.key, tx.endorse_done, tx.captured_version, tx.order_done,
             tx.commit_time, tx.validity)
            for tx in sub.transactions
        ] == [
            (tx.key, tx.endorse_done, tx.captured_version, tx.order_done,
             tx.commit_time, tx.validity)
            for tx in txs
        ]


def test_target_key_stays_on_channel_zero():
    cfg = paper_default().replace(horizon=200.0, warmup=0.0, n_channels=4)
    result = run_once(cfg, 43)
    assert all(
        tx.channel == 0 for tx in result.transactions if tx.key == TARGET_KEY
    )
    assert {tx.channel for tx in result.transactions} == {0, 1, 2, 3}


def test_lcfs_can_commit_stale_data_without_resetting_age():
    cfg = paper_default().replace(
        horizon=200.0,
        warmup=0.0,
        discipline="lcfs",
        transmit_time=0.2,  # saturated transmitter so LCFS reorders
        target_ratio=1.0,
        total_rate=10.0,
        block_size=1,
    )
    result = run_once(cfg, 47)
    gens = [r[1] for r in result.path.resets]
    assert gens == sorted(gens)
    committed_gens = [
        tx.gen_time
        for tx in result.transactions
        if tx.validity == VALID and tx.commit_time is not None
    ]
    assert committed_gens != sorted(committed_gens)  # reordering really happened
