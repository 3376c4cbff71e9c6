import dataclasses
import gc
import heapq
import re
from collections import Counter

import pytest
from hypothesis import given, reject, settings, strategies as st

import bcesim.frontback
from bcesim.config import BACK_FIELDS, paper_default
from bcesim.core import ConfigError, SimulationError
from bcesim.dists import Delay
from bcesim.experiments import summarize
from bcesim.frontback import arrivals_front, run_back, run_front
from bcesim.metrics import AoISamplePath, average_aoi
from bcesim.pipeline import VALID
from bcesim.simulation import _BLOCK_READY, _TIMEOUT_FIRE, run_once
from bcesim.workload import TARGET_KEY
from des_oracle import latency_breakdown, run_oracle


def _trace(result):
    return [
        (tx.id, tx.key, tx.arrive_time, tx.endorse_done, tx.order_done,
         tx.commit_time, tx.validity)
        for tx in result.transactions
    ]


def _record(result):
    """Every field of a run's record, each Transaction and ledger as its
    fields, for exact comparison."""
    return (
        None if result.transactions is None else [
            (tx.id, tx.key, tx.channel, tx.gen_time, tx.arrive_time, tx.endorse_done,
             tx.captured_version, tx.order_done, tx.commit_time, tx.validity)
            for tx in result.transactions
        ],
        result.lost,
        (result.path.start, result.path.end, result.path.resets),
        result.block_times,
        result.blocks_committed,
        result.breakdown,
        None if result.ledgers is None else [ledger.entries() for ledger in result.ledgers],
    )


def _everything(engine, cfg, seed, arrivals):
    """Every observable of a run, or the error it stopped with, for exact comparison."""
    try:
        result = engine(cfg, seed, arrivals)
    except SimulationError as exc:  # e.g. a commit at its own generation instant
        return str(exc)
    return _record(result)


def _run(cfg, seed, arrivals):
    """A full-record run; with `arrivals`, a back over those injected endorsements."""
    if arrivals is None:
        return run_once(cfg, seed)
    return run_back(cfg, seed, arrivals_front(arrivals), record=True)


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
    assert _everything(_run, cfg, seed, arrivals) == _everything(
        run_oracle, cfg, seed, arrivals
    )


@pytest.mark.parametrize("transmit_time", [0.05, 0.1])
@pytest.mark.parametrize("discipline", ["fcfs", "lcfs"])
def test_transmitter_bound_runs_match_the_oracle(discipline, transmit_time):
    # The benchmark's M/D/1 shape, which the strategy above seldom draws: every
    # proposal queues at the transmitter and each later stage takes no time,
    # so a delivered proposal goes from endorsement to commit in one dispatch.
    cfg = paper_default().replace(
        horizon=60.0,
        warmup=5.0,
        generation_mode="exponential",
        total_rate=9.0,
        target_ratio=1.0,
        discipline=discipline,
        transmit_time=transmit_time,
        endorse_time=Delay("fixed", 0.0),
        ordering_base=0.0,
        validate_block_overhead=0.0,
        validate_per_tx=0.0,
        block_size=1,
    )
    for seed in (3, 4):
        assert _everything(_run, cfg, seed, None) == _everything(run_oracle, cfg, seed, None)
        _assert_lean_summary_exact(cfg, seed, cfg)


# Periodic generation and fixed dyadic delays, so that an event a dispatch
# schedules is often due at the very instant of a pending one.
_TIE_MODELS = {
    # Every stage takes half the generation period: an endorsement is due with
    # the next generation, a block-ready with a transmission and a
    # validation-complete with a heap event.
    "half-period stages": dict(
        total_rate=1.0, transmit_time=0.5, endorse_time=Delay("fixed", 0.5), ordering_base=0.5,
        validate_block_overhead=0.5, validate_per_tx=0.0, block_size=1,
    ),
    # Two channels: a block-ready is due with a generation, an endorsement and
    # a validation-complete with a heap event.
    "two channels": dict(
        total_rate=2.0, transmit_time=0.0, endorse_time=Delay("fixed", 0.25), ordering_base=0.25,
        validate_block_overhead=0.25, validate_per_tx=0.0, block_size=2, n_channels=2,
        target_ratio=0.5,
    ),
    # The two channels' validations draw from one VSCC stream, so the order
    # of a block-ready and a heap event due at its instant shows.
    "two channels, one VSCC stream": dict(
        total_rate=2.0, transmit_time=0.0, endorse_time=Delay("fixed", 0.0), ordering_base=0.25,
        validate_block_overhead=0.25, validate_per_tx=0.0, block_size=2, n_channels=2,
        target_ratio=0.5, vscc_fail_prob=0.5,
    ),
    # Size-2 blocks cut faster than the timeout: a channel's stale timeout
    # pops while its next batch waits and re-arms that batch's timeout, which
    # then falls due with a block-ready or validation-complete of the other
    # channel scheduled after the batch began.  The re-armed timeout keeps
    # the seq its batch took, so it goes first; the shared VSCC stream shows
    # the order later on.
    "a timeout re-armed after a size cut": dict(
        total_rate=8.0, transmit_time=0.0, endorse_time=Delay("fixed", 0.0), ordering_base=0.75,
        validate_block_overhead=0.75, validate_per_tx=0.0, block_size=2, n_channels=2,
        target_ratio=0.5, vscc_fail_prob=0.5,
    ),
}


def test_event_due_with_a_pending_one_waits_its_turn():
    # An event due at the instant of a pending one was scheduled after it, so
    # it must go through the heap instead of being handled at once: in the one
    # loop, and in the front and the back of a split run, full and lean.
    base = paper_default().replace(
        horizon=20.0, warmup=0.0, generation_mode="periodic", target_ratio=1.0,
        comm_latency=Delay("fixed", 0.0), ordering_per_kafka=0.0, timeout=1.0,
    )
    for name, model in _TIE_MODELS.items():
        cfg = base.replace(**model)
        expected = _everything(run_oracle, cfg, 1, None)
        assert _everything(_run, cfg, 1, None) == expected, name
        assert _everything(_front_and_back, cfg, 1, None) == expected, name
        assert _record(_front_and_back(cfg, 1, None, record=False)) == (
            _record(run_once(cfg, 1, record=False))
        ), name


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
    full.breakdown = latency_breakdown(full.transactions, len(full.lost),
                                       full.breakdown.n_generated, TARGET_KEY)
    assert full.breakdown.n_generated - full.breakdown.n_lost == len(full.transactions)
    assert summarize(measure, lean) == summarize(measure, full)


@settings(settings.get_profile("simulation"), max_examples=200)
@given(
    _models(),
    st.integers(0, 1000),
    st.sampled_from([0.0, 4.0, 17.25, 59.5]),
    st.sampled_from([None, 0.0, 0.5, 2.0]),
)
def test_lean_run_summarizes_like_the_full_record(model, seed, warmup, target_aoi):
    cfg, _ = model  # injected arrivals have no lean run
    _assert_lean_summary_exact(cfg, seed, cfg.replace(warmup=warmup, target_aoi=target_aoi))


def _front_and_back(cfg, seed, arrivals, record=True):
    return run_back(cfg, seed, run_front(cfg, seed, record=record), record)


@settings(settings.get_profile("simulation"), max_examples=200)
@given(_models(), st.integers(0, 1000))
def test_front_and_back_match_the_one_loop(model, seed):
    cfg, _ = model  # injected arrivals are covered by the oracle test
    assert _everything(_front_and_back, cfg, seed, None) == _everything(_run, cfg, seed, None)
    try:
        lean = run_once(cfg, seed, record=False)
    except SimulationError as exc:
        with pytest.raises(SimulationError, match=re.escape(str(exc))):
            _front_and_back(cfg, seed, None, record=False)
        return
    assert summarize(cfg, _front_and_back(cfg, seed, None, record=False)) == summarize(cfg, lean)


@pytest.mark.parametrize("block_size", [1, 2, 20])
def test_front_and_back_match_the_one_loop_over_a_long_run(block_size):
    # Paper defaults over 300 s.  At B = 1 the validator's load is 1.65, so its
    # queue grows all run and a cut block almost always joins it; at B = 2 the
    # load is 1.025; at B = 20 blocks are cut by timeout.  The strategy above
    # runs 60 s with B <= 4 and never builds such a queue.
    cfg = paper_default().replace(horizon=300.0, block_size=block_size)
    full = run_once(cfg, 3)
    backlog = full.blocks_committed - len(full.block_times)  # blocks left at the horizon
    assert backlog > {1: 1000, 2: 30, 20: 0}[block_size]
    assert _record(_front_and_back(cfg, 3, None)) == _record(full)
    assert _record(_front_and_back(cfg, 3, None, record=False)) == (
        _record(run_once(cfg, 3, record=False))
    )


def test_split_run_pushes_only_events_that_can_change_it(monkeypatch):
    # Paper defaults over 300 s: the front hands nearly every endorse-done
    # straight to the stream; at B = 1 a cut block joins its busy validator
    # instead of pushing a block-ready; at B = 2 a channel keeps one timeout
    # on the heap instead of one per batch.  Each count is 1.0 per endorsement
    # or per block without its rule.
    cfg = paper_default().replace(horizon=300.0)
    pushed = Counter()

    def counting(heap, item):
        pushed[item[2]] += 1  # by a back event's kind
        heapq.heappush(heap, item)

    monkeypatch.setattr(bcesim.frontback, "heappush", counting)
    front = run_front(cfg, 3)
    assert sum(pushed.values()) < len(front.stream) / 100
    for block_size, kind, share in [(1, _BLOCK_READY, 1 / 100), (2, _TIMEOUT_FIRE, 1 / 5)]:
        pushed.clear()
        blocks = run_back(cfg.replace(block_size=block_size), 3, front).blocks_committed
        assert pushed[kind] < blocks * share, block_size


def test_a_full_record_back_over_a_lean_front_is_rejected():
    # A lean front keeps only the target-key transactions and stands each
    # background one in by its channel's marker, which a full-record back
    # would version in the ledger as if it were a real key.
    cfg = paper_default().replace(horizon=60.0, warmup=0.0)
    lean = run_front(cfg, 1)
    assert not lean.record and run_front(cfg, 1, record=True).record
    with pytest.raises(ValueError, match="full-record front"):
        run_back(cfg, 1, lean, record=True)


def _front_fields(front):
    """Every field of a front, with each Transaction as its fields."""
    return (
        [x if isinstance(x, int) else
         (x.id, x.key, x.channel, x.gen_time, x.arrive_time, x.endorse_done)
         for x in front.stream],
        front.done, front.slot, front.n_before, front.slot_time, front.slot_sched,
        [tx.id for tx in front.transactions], front.lost, front.n_generated, front.n_lost,
    )


# A value other than quick_cfg's for each back-only key.
_OTHER_BACK_VALUE = {
    "block_size": 3,
    "timeout": 0.3,
    "ordering_base": 0.2,
    "ordering_per_kafka": 0.1,
    "n_kafka": 6,
    "validate_block_overhead": 0.3,
    "validate_per_tx": 0.01,
    "vscc_fail_prob": 0.3,
}


@pytest.mark.parametrize("key", sorted(BACK_FIELDS))
def test_back_fields_leave_the_front_unchanged(quick_cfg, key):
    cfg = quick_cfg.replace(n_channels=2, stp=0.6, discipline="lcfs", transmit_time=0.08)
    front = run_front(cfg, 5)
    assert {x for x in front.stream if isinstance(x, int)} == {-1, -2}
    assert front.n_lost > 0 and len(front.slot_time) > front.n_generated
    assert _front_fields(run_front(cfg.replace(**{key: _OTHER_BACK_VALUE[key]}), 5)) == (
        _front_fields(front)
    )


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


# Three ways to run: the one loop, full and lean, and a lean front and back.
_RUNS = {
    "one loop": run_once,
    "lean one loop": lambda cfg, seed: run_once(cfg, seed, record=False),
    "lean front and back": lambda cfg, seed: run_back(cfg, seed, run_front(cfg, seed)),
}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_a_run_reads_no_measurement_field(quick_cfg, run):
    # warmup and target_aoi are applied by `summarize` only: the record of a
    # run is the same, field for field, whatever their values.
    cfg = quick_cfg.replace(horizon=60.0, warmup=0.0, stp=0.8, transmit_time=0.02,
                            n_channels=2, block_size=3, vscc_fail_prob=0.1)
    result = _RUNS[run](cfg, 7)
    # resets and blocks before the first nonzero warmup, so a record cut to it would show
    assert result.path.resets[0][0] < 17.25 and result.block_times[0] < 17.25
    record = _record(result)
    for warmup in (0.0, 17.25, 59.5):
        for target_aoi in (None, 2.0):
            measure = cfg.replace(warmup=warmup, target_aoi=target_aoi)
            assert _record(_RUNS[run](measure, 7)) == record, (warmup, target_aoi)


def test_injected_arrival_behind_the_clock_raises(quick_cfg):
    with pytest.raises(SimulationError, match="behind"):
        run_back(quick_cfg, 1, arrivals_front([(-1.0, 0.5, TARGET_KEY, -2.0)]), record=True)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_gc_state(quick_cfg, enabled):
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        run_once(quick_cfg, 1)
        assert gc.isenabled() == enabled
        # dataclasses.replace skips validation, so the run's own check raises
        with pytest.raises(ConfigError, match="horizon"):
            run_once(dataclasses.replace(quick_cfg, horizon=-1.0), 1)
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
        bd.n_generated
    ) == len(result.transactions) + len(result.lost)
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
    warmed_cfg = cfg.replace(warmup=50.0)
    warmed = run_once(warmed_cfg, 31)
    assert warmed.path.resets == full.path.resets
    window = AoISamplePath(50.0, 300.0)
    window.resets = [r for r in full.path.resets if r[0] >= 50.0]
    summary = summarize(warmed_cfg, warmed)
    assert summary.avg_aoi == average_aoi(window)
    assert summary.block_rate == sum(t >= 50.0 for t in full.block_times) / 250.0


def test_result_rewindows_like_a_run_with_that_warmup():
    cfg = paper_default().replace(horizon=300.0, warmup=0.0, block_size=3)
    base = run_once(cfg, 31)
    for warmup in (0.0, 0.05, 50.0, 299.5):
        measure = cfg.replace(warmup=warmup)
        assert summarize(measure, base) == summarize(measure, run_once(measure, 31))


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
        sub = run_back(sub_cfg, 41, arrivals_front(arrivals), record=True)
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
