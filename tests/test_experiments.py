import gc

import pytest

from bcesim.core import ConfigError
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
    assert len(data) == result.n_generated
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
    assert calls == [cfg.master_seed + k for k in range(3)]


def test_model_sweep_simulates_every_value(quick_cfg, monkeypatch):
    calls = count_runs(monkeypatch)
    run_sweep(quick_cfg, "block_size", [2, 5, 7])
    assert len(calls) == 3 * quick_cfg.replications


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


@pytest.mark.parametrize("workload", ["replication", "target_aoi sweep", "plain traced"])
def test_collector_never_wakes_during_replications(quick_cfg, workload):
    call = {
        "replication": lambda: run_replication(quick_cfg, 0),
        "target_aoi sweep": lambda: run_sweep(quick_cfg, "target_aoi", [0.5, 1.0, 2.0]),
        "plain traced": lambda: run_plain_traced(quick_cfg),
    }[workload]
    assert _collections_during(call) == []
