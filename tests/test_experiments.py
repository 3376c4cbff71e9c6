import gc

import pytest
from hypothesis import given, settings, strategies as st

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


MEASUREMENT_SWEEPS = [
    ("target_aoi", [0.0, 0.5, 2.0, 40.0]),
    ("warmup", [0.0, 20.0, 55.5, 199.0]),
]


@pytest.mark.parametrize("param, values", MEASUREMENT_SWEEPS)
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
    assert calls == {
        "run_once": [cfg.master_seed + k for k in range(3)], "run_front": [], "run_back": [],
    }


def test_model_sweep_simulates_every_value(quick_cfg, monkeypatch):
    seeds = [quick_cfg.master_seed + k for k in range(quick_cfg.replications)]
    # a back-only key: one front per replication, one back per value
    calls = count_runs(monkeypatch)
    run_sweep(quick_cfg, "block_size", [2, 5, 7])
    assert calls == {
        "run_once": [], "run_front": seeds, "run_back": [s for s in seeds for _ in range(3)],
    }
    # a front key: every value is simulated whole
    calls = count_runs(monkeypatch)
    run_sweep(quick_cfg, "target_ratio", [0.2, 0.3, 0.5])
    assert calls == {"run_once": seeds * 3, "run_front": [], "run_back": []}


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
def _back_sweeps(draw):
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
    key = draw(st.sampled_from(sorted(BACK_FIELDS)))
    values = draw(st.lists(_BACK_VALUES[key], min_size=2, max_size=3))
    return base, key, values


@settings(settings.get_profile("simulation"), max_examples=60)
@given(_back_sweeps())
def test_back_sweep_rows_equal_separate_runs(sweep):
    base, key, values = sweep
    rows, summaries = run_sweep(base, key, values)
    expected = [run_replications(base.replace(**{key: v})) for v in values]
    assert summaries == expected
    assert rows == [aggregate_row(key, v, s) for v, s in zip(values, expected)]


def _collections_during(call):
    """Generations of the collections the cyclic collector starts during call()."""
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        call()
    finally:
        gc.callbacks.remove(on_gc)
    return started


@pytest.mark.parametrize(
    "workload", ["replication", "target_aoi sweep", "block_size sweep", "plain traced"]
)
def test_collector_never_wakes_during_replications(quick_cfg, workload):
    call = {
        "replication": lambda: run_replication(quick_cfg, 0),
        "target_aoi sweep": lambda: run_sweep(quick_cfg, "target_aoi", [0.5, 1.0, 2.0]),
        "block_size sweep": lambda: run_sweep(quick_cfg, "block_size", [2, 5, 7]),
        "plain traced": lambda: run_plain_traced(quick_cfg),
    }[workload]
    assert _collections_during(call) == []
