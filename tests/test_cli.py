import pytest

import bcesim.cli
import bcesim.frontback
from bcesim.cli import main
from bcesim.config import parse_config
from bcesim.experiments import run_plain, run_scenario, trace_csv
from conftest import ZERO_LATENCY, count_runs, parse_csv

QUICK = "horizon = 120\nwarmup = 20\nreplications = 2\n"


def test_plain_run_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK)
    assert main(["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    rows = parse_csv(out)
    assert len(rows) == 1 and rows[0]["rep_count"] == 2


def test_out_file_and_seed_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["--config", str(cfg), "--seed", "7", "--out", str(out1)]) == 0
    assert main(["--config", str(cfg), "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_option(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK)
    out = tmp_path / "sweep.csv"
    assert main(
        ["--config", str(cfg), "--sweep", "block_size=2,4", "--out", str(out)]
    ) == 0
    rows = parse_csv(out.read_text())
    assert [r["value"] for r in rows] == [2, 4]


@pytest.mark.parametrize(
    "key, values",
    [
        ("master_seed", "12345678,12345679"),
        ("target_aoi", "0.1234567891,0.5"),
        ("comm_latency", "exp:0.1234567,exp:0.12345671"),
    ],
)
def test_swept_values_print_every_digit(tmp_path, key, values):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(cfg), "--sweep", f"{key}={values}", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert [row.split(",")[1] for row in rows] == values.split(",")


def test_trace_output(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK.replace("replications = 2", "replications = 1"))
    out = tmp_path / "out.csv"
    trace = tmp_path / "trace.csv"
    assert main(
        ["--config", str(cfg), "--out", str(out), "--trace", str(trace)]
    ) == 0
    lines = trace.read_text().strip().split("\n")
    assert lines[0].startswith("rep,id,key")
    assert len(lines) > 100


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text, key in [("stp = 1.3\n", "stp"), (ZERO_LATENCY, "transmit_time")]:
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err


def test_zero_length_measurement_window_reports_na(tmp_path, capsys):
    # Proposals commit at k/2 + 0.125, so the one reset inside
    # [warmup, horizon] falls on the horizon itself.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "target_ratio = 1\nendorse_time = fixed:0\nordering_base = 0\n"
        "validate_block_overhead = 0\nvalidate_per_tx = 0\nblock_size = 1\n"
        "total_rate = 2\ntransmit_time = 0.125\nhorizon = 10.125\nwarmup = 10.1\n"
        "replications = 1\n"
    )
    assert main(["--config", str(cfg)]) == 0
    [row] = parse_csv(capsys.readouterr().out)
    assert row["avg_aoi_mean"] == "NA"


def test_missing_config_file_is_diagnosed(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.cfg")]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_sweep_value_diagnosed(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK)
    assert main(["--config", str(cfg), "--sweep", "stp=0.5,2.0"]) == 2


def test_trace_run_simulates_each_replication_once(tmp_path, monkeypatch):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(QUICK + "stp = 0.8\n")
    cfg = parse_config(cfg_path.read_text())
    out = tmp_path / "out.csv"
    trace = tmp_path / "trace.csv"
    calls = count_runs(monkeypatch)
    streams = []  # the trace stream of each run_plain_traced call, open at the time
    real = bcesim.cli.run_plain_traced

    def run_plain_traced(cfg, stream):
        streams.append((stream.name, stream.closed))
        return real(cfg, stream)

    monkeypatch.setattr(bcesim.cli, "run_plain_traced", run_plain_traced)
    assert main(["--config", str(cfg_path), "--out", str(out), "--trace", str(trace)]) == 0
    seeds = [cfg.master_seed + k for k in range(cfg.replications)]
    assert calls == {"run_front": seeds, "run_back": seeds}
    assert streams == [(str(trace), False)]  # written to the trace file as it runs
    assert out.read_text() == run_plain(cfg)
    assert trace.read_text() == trace_csv(cfg)


@pytest.mark.parametrize("extra", [["--scenario", "fig6"], ["--sweep", "block_size=1,2"]])
def test_trace_with_scenario_or_sweep_rejected_before_simulating(
    tmp_path, monkeypatch, capsys, extra
):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before rejecting --trace")

    monkeypatch.setattr(bcesim.frontback.Fronts, "front", no_simulation)
    monkeypatch.setattr(bcesim.frontback, "run_back", no_simulation)
    trace = tmp_path / "trace.csv"
    assert main(extra + ["--reps", "1", "--trace", str(trace)]) == 2
    assert "--trace" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("option", ["--out", "--trace"])
def test_unwritable_output_path_rejected_before_simulating(tmp_path, monkeypatch, capsys, option):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK)
    calls = count_runs(monkeypatch)
    assert main(["--config", str(cfg), option, str(tmp_path / "absent" / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("simulate: error: ")
    assert calls == {"run_front": [], "run_back": []}


@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
def test_out_and_trace_naming_one_file_rejected_before_simulating(
    tmp_path, monkeypatch, capsys, spelling
):
    # The result CSV is written after the trace, so one file for both would
    # end up with the CSV over the start of the trace.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK)
    out = tmp_path / "x.csv"
    trace = {
        "same": out,
        "dotted": tmp_path / "." / "x.csv",
        "symlink": tmp_path / "link.csv",
    }[spelling]
    if spelling == "symlink":
        out.touch()
        trace.symlink_to(out)
    calls = count_runs(monkeypatch)
    assert main(["--config", str(cfg), "--out", str(out), "--trace", str(trace)]) == 2
    assert "--out and --trace name the same file" in capsys.readouterr().err
    assert calls == {"run_front": [], "run_back": []}


def test_bad_sweep_value_rejected_before_opening_the_output(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK)
    out = tmp_path / "sweep.csv"
    assert main(["--config", str(cfg), "--sweep", "stp=0.5,2.0", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "key, values",
    [("endorse_time", "exp:0.01,exp:0.02"), ("comm_latency", "fixed:0,exp:0.05")],
)
def test_delay_valued_sweep_prints_config_syntax(tmp_path, key, values):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(QUICK)
    out = tmp_path / "sweep.csv"
    assert main(
        ["--config", str(cfg), "--reps", "1", "--sweep", f"{key}={values}", "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert [line.split(",")[:3] for line in lines] == [
        [key, value, "1"] for value in values.split(",")
    ]


def test_overloaded_configs_are_warned_before_any_run(tmp_path, capsys, monkeypatch):
    # At paper defaults the validator's load bound is 10 * (0.125 / B + 0.04):
    # 1.65 at B = 1 and 1.025 at B = 2, so fig2's first two rows grow with
    # the horizon; at B = 3 it is 0.817.  The warnings go to stderr before
    # the first run, and the CSV is the one the scenario gives without them.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 30\nwarmup = 0\nreplications = 1\n")
    runs = count_runs(monkeypatch)
    warn, warned = bcesim.cli._warn_overloaded, []

    def counted(configs):
        warned.append(list(runs["run_back"]))
        warn(configs)

    monkeypatch.setattr(bcesim.cli, "_warn_overloaded", counted)
    assert main(["--config", str(cfg), "--scenario", "fig2"]) == 0
    captured = capsys.readouterr()
    assert warned == [[]]
    assert [line.split(": ")[2] for line in captured.err.splitlines()] == [
        "block_size=1", "block_size=2"]
    assert "validator load >= 1.65;" in captured.err
    assert captured.out == run_scenario("fig2", base=parse_config(cfg.read_text()))
    # the transmitter's load is total_rate * transmit_time: 0.5, then 1
    assert main(["--config", str(cfg), "--sweep", "transmit_time=0.05,0.1"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "simulate: warning: transmit_time=0.1: transmitter load >= 1; no steady state, so "
        "its averages grow with the horizon"]
