import gc
import io

import pytest
from hypothesis import given, settings, strategies as st

import bcesim.core
import bcesim.experiments
import bcesim.frontback
from bcesim.config import BACK_FIELDS, paper_default
from bcesim.core import ConfigError
from bcesim.dists import Delay
from bcesim.experiments import (
    CSV_HEADER,
    aggregate_row,
    run_plain,
    run_plain_traced,
    run_replication,
    run_replications,
    run_scenario,
    run_sweep,
    trace_csv,
)
from conftest import count_runs, parse_csv


def test_csv_header_is_stable():
    assert CSV_HEADER == (
        "swept_param,value,rep_count,avg_aoi_mean,avg_aoi_std,comm_lat,endorse_lat,"
        "order_lat,validate_lat,mvcc_invalid_frac,block_rate,violation_prob"
    )


def test_plain_run_emits_one_row(quick_cfg):
    rows = parse_csv(run_plain(quick_cfg))
    assert len(rows) == 1
    assert rows[0]["swept_param"] == "none"
    assert rows[0]["rep_count"] == 2
    assert rows[0]["avg_aoi_mean"] > 0


def test_rerun_is_byte_identical(quick_cfg):
    cfg = quick_cfg.replace(generation_mode="exponential", stp=0.9)
    assert run_plain(cfg) == run_plain(cfg)


def test_batched_replications_match_individual_runs(quick_cfg):
    cfg = quick_cfg.replace(replications=3)
    batched = run_replications(cfg)
    assert batched == [run_replication(cfg, k) for k in range(3)]


def test_distinct_replications_differ(quick_cfg):
    cfg = quick_cfg.replace(generation_mode="exponential")
    a, b = run_replications(cfg)
    assert a.avg_aoi != b.avg_aoi


def test_sweep_rows_carry_param_and_value(quick_cfg):
    rows_text, summaries = run_sweep(quick_cfg, "block_size", [2, 5])
    rows = parse_csv(CSV_HEADER + "\n" + "\n".join(rows_text))
    assert [r["swept_param"] for r in rows] == ["block_size", "block_size"]
    assert [r["value"] for r in rows] == [2, 5]
    assert len(summaries) == 2 and len(summaries[0]) == 2


@pytest.mark.parametrize(
    "value, cell",
    [
        (12345678, "12345678"),
        (5, "5"),
        (1.0, "1"),
        (0.05, "0.05"),
        (1e-07, "1e-07"),
        (0.1234567891, "0.1234567891"),
        (1234567.5, "1234567.5"),
        (Delay("exp", 0.1234567), "exp:0.1234567"),
        (Delay("exp", 0.12345671), "exp:0.12345671"),
    ],
)
def test_swept_value_cell_reads_back_as_the_value(quick_cfg, value, cell):
    [summary] = run_replications(quick_cfg.replace(replications=1))
    assert aggregate_row("x", value, [summary]).split(",")[1] == cell


def test_unknown_sweep_parameter_rejected(quick_cfg):
    with pytest.raises(ConfigError):
        run_sweep(quick_cfg, "block_count", [1])


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        run_scenario("fig7")


def test_fig2_scenario_layout_on_a_small_base(quick_cfg):
    csv_text = run_scenario("fig2", base=quick_cfg)
    rows = parse_csv(csv_text)
    assert len(rows) == 20
    assert [r["value"] for r in rows] == list(range(1, 21))
    for row in rows:
        for name in ("avg_aoi_mean", "block_rate", "mvcc_invalid_frac"):
            assert isinstance(row[name], float)
        assert row["violation_prob"] == "NA"  # no target configured


def test_nodes_scenario_layout(quick_cfg):
    rows = parse_csv(run_scenario("nodes", base=quick_cfg))
    assert [(r["swept_param"], r["value"]) for r in rows] == [
        ("n_endorsers", 1),
        ("n_endorsers", 2),
        ("n_endorsers", 3),
        ("n_kafka", 4),
        ("n_kafka", 5),
    ]


def test_all_losses_reported_as_missing(quick_cfg):
    rows = parse_csv(run_plain(quick_cfg.replace(stp=0.0)))
    row = rows[0]
    assert row["avg_aoi_mean"] == "NA"
    assert row["comm_lat"] == "NA"
    assert row["block_rate"] == 0.0


def test_violation_prob_reported_when_target_set(quick_cfg):
    rows = parse_csv(run_plain(quick_cfg.replace(target_aoi=1.0)))
    assert 0.0 <= rows[0]["violation_prob"] <= 1.0


def test_trace_csv_covers_every_proposal(quick_cfg):
    cfg = quick_cfg.replace(replications=1, stp=0.7, horizon=60.0, warmup=0.0)
    lines = trace_csv(cfg).strip().split("\n")
    header, data = lines[0], lines[1:]
    assert header.startswith("rep,id,key,channel,gen_time")
    from bcesim.simulation import run_once

    result = run_once(cfg, cfg.master_seed)
    assert len(data) == result.breakdown.n_generated
    outcomes = [line.split(",")[-1] for line in data]
    assert set(outcomes) <= {"valid", "mvcc_invalid", "vscc_invalid", "lost"}
    assert outcomes.count("lost") == len(result.lost)


def test_a_traced_run_writes_each_replication_before_the_next_runs(monkeypatch, quick_cfg):
    # The trace goes to its stream replication by replication, so at most one
    # replication's text is held in memory.
    cfg = quick_cfg.replace(replications=3, horizon=60.0, warmup=0.0)
    out = io.StringIO()
    written = []  # (seed, trace lines in `out`) as each replication's front is built
    real_front = bcesim.frontback.Fronts.front

    def front(self, *args, **kwargs):
        written.append((self.seed, out.getvalue().count("\n")))
        return real_front(self, *args, **kwargs)

    monkeypatch.setattr(bcesim.frontback.Fronts, "front", front)
    plain = run_plain_traced(cfg, out)
    reps = [int(line.split(",", 1)[0]) for line in out.getvalue().splitlines()[1:]]
    before = [1 + sum(rep < k for rep in reps) for k in range(cfg.replications)]
    assert written == list(zip(range(cfg.master_seed, cfg.master_seed + 3), before))
    assert before[1] > 1 + 100  # replication 0's lines, header aside
    monkeypatch.undo()
    assert plain == run_plain(cfg) and out.getvalue() == trace_csv(cfg)


_TIME_FIELDS = ("gen_time", "arrive_time", "endorse_done", "order_done", "commit_time")


@pytest.mark.parametrize("overrides", [
    # a comm latency: every proposal arrives after its generation
    {"comm_latency": Delay("exp", 0.05), "stp": 0.7},
    # a queue at the transmitter: most arrive after their generation, some at it
    {"discipline": "lcfs", "transmit_time": 0.08, "stp": 0.6},
    # blocks of two channels interleave in delivery order
    {"n_channels": 2, "block_size": 3, "vscc_fail_prob": 0.2},
    {"n_channels": 3, "comm_latency": Delay("exp", 0.02), "vscc_fail_prob": 0.1, "stp": 0.5},
])
def test_trace_cells_equal_the_record(quick_cfg, overrides):
    from bcesim.simulation import run_once

    cfg = quick_cfg.replace(horizon=60.0, warmup=0.0, **overrides)
    header, *lines = trace_csv(cfg).rstrip("\n").split("\n")
    columns = header.split(",")
    expected = []
    for k in range(cfg.replications):
        result = run_once(cfg, cfg.master_seed + k)
        for tx in result.transactions:
            expected.append([str(k)] + [
                format(getattr(tx, name), ".10g") if name in _TIME_FIELDS
                else str(getattr(tx, name))
                for name in columns[1:]
            ])
        for pid, key, channel, gen_time in result.lost:
            expected.append([str(k), str(pid), str(key), str(channel),
                             format(gen_time, ".10g")] + ["NA"] * 5 + ["lost"])
    assert [line.split(",") for line in lines] == expected
    assert any(cells[-1] == "lost" for cells in expected) == (cfg.stp < 1.0)


MEASUREMENT_SWEEPS = [
    ("target_aoi", [0.0, 0.5, 2.0, 40.0]),
    ("warmup", [0.0, 20.0, 55.5, 199.0]),
]

# A front key with a repeated value: the two 0.2 configs share every run.
REPEATED_FRONT_SWEEP = ("target_ratio", [0.2, 0.5, 0.2])


@pytest.mark.parametrize("param, values", MEASUREMENT_SWEEPS + [REPEATED_FRONT_SWEEP])
def test_measurement_sweep_matches_separate_runs(quick_cfg, param, values):
    base = quick_cfg.replace(generation_mode="exponential", stp=0.8, target_aoi=1.0)
    rows, summaries = run_sweep(base, param, values)
    expected = [run_replications(base.replace(**{param: v})) for v in values]
    assert summaries == expected
    assert rows == [aggregate_row(param, v, s) for v, s in zip(values, expected)]


@pytest.mark.parametrize("param, values", MEASUREMENT_SWEEPS)
def test_measurement_sweep_simulates_each_replication_once(quick_cfg, monkeypatch, param, values):
    cfg = quick_cfg.replace(replications=3)
    calls = count_runs(monkeypatch)
    run_sweep(cfg, param, values)
    seeds = [cfg.master_seed + k for k in range(3)]
    assert calls == {"run_front": seeds, "run_back": seeds}


def test_model_sweep_simulates_every_value(quick_cfg, monkeypatch):
    seeds = [quick_cfg.master_seed + k for k in range(quick_cfg.replications)]
    # a back-only key: one front per replication, one back per value
    calls = count_runs(monkeypatch)
    run_sweep(quick_cfg, "block_size", [2, 5, 7])
    assert calls == {"run_front": seeds, "run_back": [s for s in seeds for _ in range(3)]}
    # a front key: a front and a back per distinct value and replication,
    # every value's at one replication before the next replication's
    calls = count_runs(monkeypatch)
    run_sweep(quick_cfg, "target_ratio", [0.2, 0.3, 0.5])
    per_value = [s for s in seeds for _ in range(3)]
    assert calls == {"run_front": per_value, "run_back": per_value}
    calls = count_runs(monkeypatch)
    run_sweep(quick_cfg, *REPEATED_FRONT_SWEEP)
    per_value = [s for s in seeds for _ in range(2)]
    assert calls == {"run_front": per_value, "run_back": per_value}


# Swept values of each back-only key, on a coarse grid of fixed delays.
_BACK_VALUES = {
    "block_size": st.integers(1, 4),
    "timeout": st.sampled_from([0.5, 1.0, 2.0]),
    "ordering_base": st.sampled_from([0.0, 0.5, 1.0]),
    "ordering_per_kafka": st.sampled_from([0.0, 0.5, 1.0]),
    "n_kafka": st.sampled_from([4, 5, 6]),
    "validate_block_overhead": st.sampled_from([0.0, 0.5, 1.0]),
    "validate_per_tx": st.sampled_from([0.0, 0.5, 1.0]),
    "vscc_fail_prob": st.sampled_from([0.0, 0.3]),
}


@st.composite
def _back_sweeps(draw, key):
    """A base config and two or three values of back key `key` for it."""
    exact = st.sampled_from([0.0, 0.5, 1.0])
    base = paper_default().replace(
        horizon=60.0,
        warmup=4.0,
        replications=2,
        total_rate=draw(st.sampled_from([1.0, 2.0, 4.0])),
        generation_mode=draw(st.sampled_from(["periodic", "periodic", "exponential"])),
        target_ratio=draw(st.sampled_from([0.3, 1.0])),
        discipline=draw(st.sampled_from(["fcfs", "lcfs"])),
        stp=draw(st.sampled_from([0.5, 1.0])),
        transmit_time=draw(st.sampled_from([0.25, 0.5])),
        comm_latency=Delay("fixed", draw(exact)),
        endorse_time=Delay("fixed", draw(exact)),
        n_channels=draw(st.integers(2, 3)),
        block_size=draw(_BACK_VALUES["block_size"]),
        timeout=draw(_BACK_VALUES["timeout"]),
        n_kafka=draw(_BACK_VALUES["n_kafka"]),
        ordering_base=draw(exact),
        ordering_per_kafka=draw(exact),
        validate_block_overhead=draw(exact),
        validate_per_tx=draw(exact),
        vscc_fail_prob=draw(st.sampled_from([0.0, 0.3])),
        master_seed=draw(st.integers(0, 1000)),
    )
    return base, draw(st.lists(_BACK_VALUES[key], min_size=2, max_size=3))


@pytest.mark.parametrize("key", sorted(BACK_FIELDS))
@settings(settings.get_profile("simulation"), max_examples=8)
@given(data=st.data())
def test_back_key_sweep_rows_equal_separate_runs(key, data):
    base, values = data.draw(_back_sweeps(key))
    rows, summaries = run_sweep(base, key, values)
    expected = [run_replications(base.replace(**{key: v})) for v in values]
    assert summaries == expected
    assert rows == [aggregate_row(key, v, s) for v, s in zip(values, expected)]


# Swept values of each front key.  Exponential delays make the comm and
# endorse streams draw, so their prefixes are shared across values.
_FRONT_VALUES = {
    "target_ratio": st.sampled_from([0.3, 0.7, 1.0, 0.0]),
    "stp": st.sampled_from([0.6, 0.3, 1.0]),
    "n_endorsers": st.integers(1, 3),
    "transmit_time": st.sampled_from([0.125, 0.25, 0.0]),
    "discipline": st.sampled_from(["lcfs", "fcfs"]),
    "comm_latency": st.sampled_from([Delay("exp", 0.05), Delay("fixed", 0.25), Delay("exp", 0.2)]),
    "endorse_time": st.sampled_from([Delay("exp", 0.05), Delay("fixed", 0.25), Delay("exp", 0.3)]),
    "total_rate": st.sampled_from([2.0, 4.0, 1.0]),
    "n_channels": st.integers(1, 3),
    "master_seed": st.integers(0, 3),  # replications at overlapping seeds share passes
    "horizon": st.sampled_from([30.0, 45.0, 60.0]),
    "replications": st.integers(1, 3),
}


@st.composite
def _front_sweeps(draw, key):
    """A base config and two or three values of front key `key` for it."""
    base = paper_default().replace(
        horizon=60.0,
        warmup=4.0,
        replications=2,
        **{other: draw(values) for other, values in _FRONT_VALUES.items()
           if other not in ("horizon", "replications")},
        generation_mode=draw(st.sampled_from(["periodic", "exponential"])),
        block_size=draw(st.integers(1, 4)),
        timeout=draw(st.sampled_from([0.5, 1.0])),
        ordering_base=draw(st.sampled_from([0.0, 0.5])),
        validate_block_overhead=draw(st.sampled_from([0.125, 0.25])),
        validate_per_tx=0.0,
        vscc_fail_prob=draw(st.sampled_from([0.0, 0.3])),
    )
    if base.target_ratio == 0.0:  # no tracked update at all: most of the row is NA
        base = base.replace(target_ratio=0.5)
    return base, draw(st.lists(_FRONT_VALUES[key], min_size=2, max_size=3, unique=True))


@pytest.mark.parametrize("key", sorted(_FRONT_VALUES))
@settings(settings.get_profile("simulation"), max_examples=12)
@given(data=st.data())
def test_front_sweep_rows_equal_separate_runs(key, data):
    # The values' fronts share every pass that reads none of the swept key,
    # and draw prefixes across stp values: each must give what it gives alone.
    base, values = data.draw(_front_sweeps(key))
    rows, summaries = run_sweep(base, key, values)
    expected = [run_replications(base.replace(**{key: v})) for v in values]
    assert summaries == expected
    assert rows == [aggregate_row(key, v, s) for v, s in zip(values, expected)]


@pytest.mark.parametrize("param, values", [
    ("target_ratio", [0.2, 0.5, 0.8]),
    ("stp", [0.4, 0.7, 1.0]),
    ("transmit_time", [0.0, 0.05, 0.1]),
    ("endorse_time", [Delay("exp", 0.05), Delay("fixed", 0.1)]),
])
def test_a_front_sweep_draws_the_generation_stream_once_per_replication(
    quick_cfg, monkeypatch, param, values
):
    cfg = quick_cfg.replace(generation_mode="exponential", replications=3)
    seeds = []

    def make_stream(seed, stream_id):
        if stream_id == "generation":
            seeds.append(seed)
        return bcesim.core.make_stream(seed, stream_id)

    monkeypatch.setattr(bcesim.frontback, "make_stream", make_stream)
    once = [cfg.master_seed + k for k in range(3)]
    run_sweep(cfg, param, values)
    assert seeds == once
    # the passes shared in one call are gone after it
    run_sweep(cfg, param, values)
    assert seeds == once * 2


def _collections_during_replications(monkeypatch, call):
    """Generations of the collections the cyclic collector starts while
    `experiments._replicate` runs, over call().  Also asserts that call()
    simulates and that the collector is paused at every front built and
    every run_back call."""
    started, paused = [], []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info["generation"])

    def replicate(*args, _real=bcesim.experiments._replicate, **kwargs):
        gc.callbacks.append(on_gc)
        try:
            return _real(*args, **kwargs)
        finally:
            gc.callbacks.remove(on_gc)

    monkeypatch.setattr(bcesim.experiments, "_replicate", replicate)
    for owner, name in ((bcesim.frontback.Fronts, "front"), (bcesim.frontback, "run_back")):
        def run(*args, _real=getattr(owner, name), **kwargs):
            paused.append(not gc.isenabled())
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, run)
    assert gc.isenabled()
    gc.collect()
    call()
    assert paused and all(paused), paused
    return started


@pytest.mark.parametrize(
    "workload", ["replication", "target_aoi sweep", "block_size sweep", "plain traced"]
)
def test_collector_never_wakes_during_replications(monkeypatch, quick_cfg, workload):
    call = {
        "replication": lambda: run_replication(quick_cfg, 0),
        "target_aoi sweep": lambda: run_sweep(quick_cfg, "target_aoi", [0.5, 1.0, 2.0]),
        "block_size sweep": lambda: run_sweep(quick_cfg, "block_size", [2, 5, 7]),
        "plain traced": lambda: run_plain_traced(quick_cfg, io.StringIO()),
    }[workload]
    assert _collections_during_replications(monkeypatch, call) == []
