import dataclasses
import gc
import itertools
import operator
import re

import pytest
from hypothesis import given, reject, settings, strategies as st

import bcesim.core
import bcesim.frontback
import bcesim.simulation
from bcesim.config import BACK_FIELDS, paper_default
from bcesim.core import ConfigError, SimulationError
from bcesim.dists import Delay
from bcesim.experiments import run_sweep, summarize, trace_csv
from bcesim.frontback import run_back, run_front
from bcesim.metrics import AoISamplePath, average_aoi
from bcesim.pipeline import VALID, Transaction
from bcesim.simulation import run_once
from bcesim.workload import TARGET_KEY
from des_oracle import (
    apply_update,
    arrivals_front,
    entries,
    latency_breakdown,
    read_version,
    run_oracle,
)


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
        None if result.ledgers is None else [entries(ledger) for ledger in result.ledgers],
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
    return run_back(cfg, seed, arrivals_front(arrivals))


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
        block_size=draw(st.sampled_from([1, 2, 3, 4, 8])),
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
    # Three channels and a timeout of four generation periods: a background
    # channel's deadline falls due with a target-key endorsement, which must
    # make every cut due at its instant that was scheduled before it, and
    # the VSCC stream shows the order in which their blocks commit.
    "three channels, deadlines due with endorsements": dict(
        total_rate=4.0, transmit_time=0.0, endorse_time=Delay("fixed", 0.25), ordering_base=0.0,
        validate_block_overhead=0.25, validate_per_tx=0.0, block_size=3, n_channels=3,
        target_ratio=0.5, vscc_fail_prob=0.5,
    ),
}


def test_event_due_with_a_pending_one_waits_its_turn():
    # An event due at the instant of a pending one was scheduled after it, so
    # it must wait its turn as in the oracle's heap, in the front and the back
    # of a run, and a lean run must summarize like the full one.
    base = paper_default().replace(
        horizon=20.0, warmup=0.0, generation_mode="periodic", target_ratio=1.0,
        comm_latency=Delay("fixed", 0.0), ordering_per_kafka=0.0, timeout=1.0,
    )
    for name, model in _TIE_MODELS.items():
        cfg = base.replace(**model)
        assert _everything(_run, cfg, 1, None) == _everything(run_oracle, cfg, 1, None), name
        _assert_lean_summary_exact(cfg, 1, cfg)


# One channel: the ties above that only two channels reach, or none does.
_ONE_CHANNEL_TIES = {
    # An endorsement every second and a one-second timeout: a batch's timeout
    # falls due with the next endorsement of its channel.  The timeout was
    # scheduled first, so it cuts the batch without that endorsement.
    "a timeout due with an endorsement": dict(
        total_rate=1.0, transmit_time=0.5, endorse_time=Delay("fixed", 0.25), ordering_base=0.0,
        validate_block_overhead=0.25, validate_per_tx=0.25, block_size=2,
    ),
    # A block takes the generation period to validate, so the validator frees
    # at the instant the next block is ready, and a transmit-complete falls
    # due then too.  The one of the two that goes second schedules the next
    # validation-complete, which falls due with an endorsement: it decides
    # whether that block commits before the endorsement reads.
    "a block ready as its validator frees": dict(
        total_rate=2.0, transmit_time=0.25, endorse_time=Delay("fixed", 0.5), ordering_base=0.0,
        validate_block_overhead=0.5, validate_per_tx=0.0, block_size=1,
    ),
}


def test_a_one_channel_tie_waits_its_turn():
    base = paper_default().replace(
        horizon=20.0, warmup=0.0, generation_mode="periodic", target_ratio=1.0,
        comm_latency=Delay("fixed", 0.0), ordering_per_kafka=0.0, timeout=1.0,
    )
    for name, model in _ONE_CHANNEL_TIES.items():
        cfg = base.replace(**model)
        assert _everything(_run, cfg, 1, None) == _everything(run_oracle, cfg, 1, None), name
        _assert_lean_summary_exact(cfg, 1, cfg)


def test_a_validation_started_at_a_tie_is_scheduled_by_the_second_dispatch():
    # Ordering takes longer than a validation, so a block's ready, scheduled
    # at its cut, can fall due at the very instant its channel's validator
    # frees and go before that validation-complete.  The second of the two
    # starts the block's validation and so schedules its validation-complete,
    # after the other channel's events at that instant; that validation-
    # complete falls due with one of the other channel's, and the shared VSCC
    # stream shows which of the two blocks commits first.
    cfg = paper_default().replace(
        horizon=20.0, warmup=0.0, generation_mode="periodic", total_rate=8.0, target_ratio=0.3,
        comm_latency=Delay("fixed", 0.0), transmit_time=0.0, endorse_time=Delay("fixed", 0.25),
        ordering_base=1.0, ordering_per_kafka=0.0, validate_block_overhead=0.5,
        validate_per_tx=0.0, block_size=2, timeout=1.5, n_channels=2, vscc_fail_prob=0.5,
    )
    assert _everything(_run, cfg, 1, None) == _everything(run_oracle, cfg, 1, None)
    _assert_lean_summary_exact(cfg, 1, cfg)


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


def _in_stream_order(result):
    """A full record's transactions in endorse-done order, as the back reads them."""
    return sorted(result.transactions, key=operator.attrgetter("endorse_done"))


def _block_sizes(txs):
    """The size of each block, over one channel's transactions in stream order."""
    return [len(list(block)) for _, block in itertools.groupby(txs, operator.attrgetter("order_done"))]


def _longest_background_run(txs):
    return max(len(list(run)) for background, run in
               itertools.groupby(txs, lambda tx: tx.key != TARGET_KEY) if background)


# Paper defaults over 300 s, and what each shape shows in the full record
# and its backlog (the blocks left at the horizon).  The strategy above runs
# 60 s and never builds such a queue or such runs of cuts.
_LONG_RUNS = {
    # At B = 1 the validator's load is 1.65, so its queue grows all run and a
    # cut block almost always joins it; at B = 2 the load is 1.025.
    "1": (dict(block_size=1), lambda txs, backlog: backlog > 1000),
    "2": (dict(block_size=2), lambda txs, backlog: backlog > 30),
    # blocks cut by timeout
    "20": (dict(block_size=20), lambda txs, backlog: backlog > 0),
    # Nearly every endorsement's deadline passes before the next one, so the
    # cut pass steps block after block, each cut by its deadline.
    "deadline cuts in a row": (
        dict(block_size=10, timeout=0.05),
        lambda txs, backlog: len(_block_sizes(txs)) > 0.9 * len(txs) and backlog > 1000,
    ),
    # With Poisson proposals a block of ten spans the one-second timeout
    # about as often as not, so size and deadline cuts alternate and the
    # scan for a run of size cuts starts again after each deadline cut.
    "size and deadline cuts alternating": (
        dict(block_size=10, timeout=1.0, generation_mode="exponential"),
        lambda txs, backlog: sum(
            (a < 10) != (b < 10) for a, b in itertools.pairwise(_block_sizes(txs))) > 100,
    ),
    # one proposal in twenty on the target key: a lean back reads past long
    # runs of markers, many blocks holding none of its reads
    "long marker runs": (
        dict(target_ratio=0.05), lambda txs, backlog: _longest_background_run(txs) > 50,
    ),
}


@pytest.mark.parametrize("name", sorted(_LONG_RUNS))
def test_front_and_back_match_the_one_loop_over_a_long_run(name):
    overrides, shows_the_shape = _LONG_RUNS[name]
    cfg = paper_default().replace(horizon=300.0, **overrides)
    full = _run(cfg, 3, None)
    assert shows_the_shape(_in_stream_order(full), full.blocks_committed - len(full.block_times))
    assert _record(full) == _record(run_oracle(cfg, 3, None))
    _assert_lean_summary_exact(cfg, 3, cfg)


# Two 300 s shapes with a transmitter: the benchmark's M/D/1 shape, where
# every proposal queues, and a transmitter at capacity on dyadic delays, where
# every transmit-complete falls due with the next generation.
_TRANSMITTER_RUNS = {
    "md1 fcfs": dict(
        generation_mode="exponential", total_rate=9.0, target_ratio=1.0, transmit_time=0.1,
        endorse_time=Delay("fixed", 0.0), ordering_base=0.0, validate_block_overhead=0.0,
        validate_per_tx=0.0, block_size=1,
    ),
    "dyadic ties": dict(
        total_rate=8.0, transmit_time=0.125, endorse_time=Delay("fixed", 0.25), n_channels=2,
        stp=0.5,
    ),
}
_TRANSMITTER_RUNS["md1 lcfs"] = dict(_TRANSMITTER_RUNS["md1 fcfs"], discipline="lcfs")


@pytest.mark.parametrize("name", sorted(_TRANSMITTER_RUNS))
def test_front_and_back_match_the_one_loop_with_a_transmitter_over_a_long_run(name):
    # The strategy above runs 60 s, at most 480 proposals, so no test there
    # runs the front's slot pass over a long backlog or a long run of ties.
    cfg = paper_default().replace(horizon=300.0, **_TRANSMITTER_RUNS[name])
    front = run_front(cfg, 3, record=True)
    slot_time = front.timeline()[0]
    if name == "dyadic ties":
        assert len(set(slot_time)) < len(slot_time) * 0.6
    else:
        # a proposal waits behind ten others, and the queue drains after the horizon
        assert max(map(operator.sub, front.arrive_time, front.gen_time)) > 1.0
        assert slot_time[-1] > cfg.horizon
    assert _record(run_back(cfg, 3, front)) == _record(run_oracle(cfg, 3, None))
    _assert_lean_summary_exact(cfg, 3, cfg)


def _zero_endorse_uniform(monkeypatch, draw):
    """Make every endorse stream of the front return 0.0 as its `draw`-th
    uniform, before its own draws; return the list that gets one entry per
    zero returned."""
    zeros = []

    def make_stream(seed, stream_id):
        rng = bcesim.core.make_stream(seed, stream_id)
        if stream_id == "endorse":
            uniform, calls = rng.random, itertools.count(1)

            def random():
                if next(calls) == draw:
                    zeros.append(draw)
                    return 0.0
                return uniform()

            rng.random = random
        return rng

    monkeypatch.setattr(bcesim.frontback, "make_stream", make_stream)
    return zeros


@pytest.mark.parametrize("n_endorsers", [1, 3])
def test_a_zero_endorse_uniform_is_redrawn_in_both_engines(monkeypatch, n_endorsers):
    # The front draws the endorsement maxima inline, where a zero uniform makes
    # `log` raise; it then draws the stream again through `Delay.sample_max`,
    # which redraws the zero, as the oracle's event loop would.  So the zero
    # changes nothing, in a full or a lean run.
    cfg = paper_default().replace(horizon=60.0, warmup=0.0, n_endorsers=n_endorsers)
    plain, plain_lean = _record(run_once(cfg, 2)), _record(run_once(cfg, 2, record=False))
    zeros = _zero_endorse_uniform(monkeypatch, 100)
    assert _record(run_once(cfg, 2)) == plain and len(zeros) == 2  # inline, then redrawn
    assert _record(run_once(cfg, 2, record=False)) == plain_lean and len(zeros) == 4


def _uniforms_drawn(rng, seed, stream_id):
    """How many uniforms `rng`, the stream `stream_id` at `seed`, has drawn."""
    fresh = bcesim.core.make_stream(seed, stream_id)
    for n in range(10**5):
        if fresh.getstate() == rng.getstate():
            return n
        fresh.random()
    raise AssertionError(f"{stream_id} is not a stream of uniforms")


def test_a_front_at_target_ratio_one_draws_no_key_uniform(monkeypatch):
    # At `target_ratio` 1 every key uniform would put its proposal on the
    # target key, and no other draw follows from one, so the front draws
    # none, where the event-heap model draws one per generation.  Below 1 it
    # draws one per generation, as the model does.
    made = []

    def make_stream(seed, stream_id):
        rng = bcesim.core.make_stream(seed, stream_id)
        if stream_id == "key-assign":
            made.append(rng)
        return rng

    monkeypatch.setattr(bcesim.frontback, "make_stream", make_stream)
    cfg = paper_default().replace(horizon=60.0, warmup=0.0, target_ratio=1.0, n_channels=2,
                                  stp=0.5, transmit_time=0.05)
    assert _record(run_once(cfg, 2)) == _record(run_oracle(cfg, 2, None))
    _assert_lean_summary_exact(cfg, 2, cfg)
    assert made == []
    below = run_once(cfg.replace(target_ratio=0.7), 2)
    assert [_uniforms_drawn(rng, 2, "key-assign") for rng in made] == [below.breakdown.n_generated]


@pytest.mark.parametrize("vscc_fail_prob", [0.0, 0.3])
def test_one_channel_blocks_read_no_label(vscc_fail_prob):
    # At one channel the cuts, the completion times and the VSCC draws read
    # no label, so lean runs that differ in `target_ratio` alone commit the
    # same blocks at the same times: only which endorsements are kept, and
    # what they read and write, depends on it.
    cfg = paper_default().replace(horizon=500.0, timeout=1.0, vscc_fail_prob=vscc_fail_prob)
    runs = [run_once(cfg.replace(target_ratio=ratio), 7, record=False) for ratio in (0.1, 0.5, 0.9)]
    assert len(runs[0].block_times) > 400
    for run in runs[1:]:
        assert (run.block_times, run.blocks_committed) == (
            runs[0].block_times, runs[0].blocks_committed)
    assert len({run.breakdown.n_vscc_invalid for run in runs}) == 1


def test_split_run_holds_no_event_heap():
    # The front is passes over whole-run lists, and the back a timeline per
    # channel and one pass over the target key's reads, so neither half can
    # push an event.  Over 300 s the backs still cut, validate and commit
    # blocks: paper defaults at B = 1 (the validator's queue grows all run), 2
    # and 20 (cut by timeout), and the M/D/1 shape of the benchmark, where
    # ordering and validation take no time.
    for module in (bcesim.frontback, bcesim.simulation):
        assert not {"heappush", "heappop", "heapq"} & set(vars(module)), module
    cfg = paper_default().replace(horizon=300.0)
    md1 = cfg.replace(**_TRANSMITTER_RUNS["md1 fcfs"])
    front = run_front(cfg, 3)
    backs = [(cfg.replace(block_size=block_size), front) for block_size in (1, 2, 20)]
    for back, shared in backs + [(md1, run_front(md1, 3))]:
        assert run_back(back, 3, shared).blocks_committed > 100, back.block_size


def test_only_a_full_record_builds_transactions(monkeypatch):
    # A run keeps its endorsements as numbers and columns, so neither a lean
    # sweep nor the trace, which is written from the columns, builds a
    # Transaction; a full record builds one per delivered endorsement at the
    # first access to its `transactions`, and the same list after that.
    built = []
    init = Transaction.__init__

    def counted(tx, *fields):
        built.append(tx)
        init(tx, *fields)

    monkeypatch.setattr(Transaction, "__init__", counted)
    cfg = paper_default().replace(horizon=100.0, warmup=10.0, replications=2, n_channels=2,
                                  stp=0.8, transmit_time=0.02)
    run_sweep(cfg, "target_ratio", [0.3, 1.0])
    run_sweep(cfg.replace(target_ratio=1.0), "block_size", [1, 5])
    assert trace_csv(cfg).count("\n") > 200
    assert built == []
    result = run_once(cfg, 1)
    assert built == []
    transactions = result.transactions
    assert transactions == built
    assert len(built) == result.breakdown.n_generated - result.breakdown.n_lost > 100
    assert result.transactions is transactions and len(built) == len(transactions)


@pytest.mark.parametrize("name", ["md1 fcfs", "md1 lcfs", "queued blocks"])
def test_a_lean_back_resets_the_age_without_a_call(monkeypatch, name):
    # The back keeps the path's last commit and freshest generation in hand
    # and appends each reset itself: `record_commit` is called only to raise
    # its error.  On the M/D/1 shape every block commits at its cut; at
    # paper defaults with B = 5 each block completes after the next
    # endorsement, so it waits for commit.
    calls = []
    record_commit = AoISamplePath.record_commit

    def counted(path, t_u, t_g):
        calls.append(t_u)
        record_commit(path, t_u, t_g)

    monkeypatch.setattr(AoISamplePath, "record_commit", counted)
    model = _TRANSMITTER_RUNS.get(name, dict(block_size=5))
    result = run_once(paper_default().replace(horizon=300.0, **model), 3, record=False)
    assert calls == [] and len(result.path.resets) > 200


def test_a_full_record_shares_one_float_per_time_it_repeats():
    # The trace formats a time once when a line's time is the very object of
    # the line before, so the record shares them: one (order_done,
    # commit_time) pair of objects per block, and one float for the
    # generation and arrival of a proposal that arrives at its generation.
    cfg = paper_default().replace(horizon=100.0, warmup=0.0)
    txs = run_once(cfg, 1).transactions
    assert all(tx.arrive_time is tx.gen_time for tx in txs)
    blocks = {tx.commit_time for tx in txs}  # one channel: one block per commit time
    assert 30 < len(blocks) < len(txs)
    assert len({id(tx.commit_time) for tx in txs}) == len(blocks)
    assert len({id(tx.order_done) for tx in txs}) == len({tx.order_done for tx in txs})


def test_a_front_says_whether_it_holds_the_full_record():
    # A back takes its record mode from its front.  A lean front keeps only
    # the target-key endorsements and stands each background one in by its
    # channel's marker, which a full-record back would version in the ledger
    # as if it were a real key.
    cfg = paper_default().replace(horizon=60.0, warmup=0.0)
    assert not run_front(cfg, 1).record and run_front(cfg, 1, record=True).record


def _front_fields(front):
    """Every field of a front, each column as a list and the slot timeline
    built."""
    front.timeline()
    return [
        value if value is None or isinstance(value, int) else list(value)
        for value in (getattr(front, field.name) for field in dataclasses.fields(front))
    ]


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
    assert {x for x in front.stream if x < 0} == {-1, -2} and front.gen_time
    assert front.n_lost > 0 and len(front.timeline()[0]) > front.n_generated
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


def test_one_channel_latency_means_are_summed_in_delivery_order():
    # Exponential endorsements of mean 0.5 s at ten proposals a second, and
    # nothing after endorsement taking time: on one channel, updates overtake
    # each other often and every one commits at its endorse-done, valid in
    # stream order, so summing the means in that order, not by endorsement
    # number, changes their last bits, in a full record and a lean run.
    cfg = paper_default().replace(
        total_rate=10.0, generation_mode="exponential", target_ratio=0.6, block_size=1,
        endorse_time=Delay("exp", 0.5), ordering_base=0.0, ordering_per_kafka=0.0,
        validate_block_overhead=0.0, validate_per_tx=0.0, horizon=60.0, warmup=0.0,
    )
    assert _record(run_once(cfg, 1)) == _record(run_oracle(cfg, 1, None))
    _assert_lean_summary_exact(cfg, 1, cfg)


# Two ways to run: `run_once` (named for the one loop it once ran), full, and
# a lean front and back called directly.
_RUNS = {
    "one loop": run_once,
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
        run_back(quick_cfg, 1, arrivals_front([(-1.0, 0.5, TARGET_KEY, -2.0)]))


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
    assert read_version(result.ledgers[0], TARGET_KEY) == n_target_commits > 0


def test_ledger_replay_matches_final_state(quick_cfg):
    from bcesim.ledger import LedgerState

    result = run_once(quick_cfg.replace(target_ratio=0.6), 23)
    committed = [tx for tx in result.transactions if tx.validity == VALID]
    committed.sort(key=lambda tx: (tx.commit_time, tx.id))
    replay = LedgerState()
    for tx in committed:
        apply_update(replay, tx.key, tx.gen_time)
    assert entries(replay) == entries(result.ledgers[0])


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
        sub = run_back(sub_cfg, 41, arrivals_front(arrivals))
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
