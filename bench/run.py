"""bcesim benchmark: host time, throughput, set-up time and memory of three workloads.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each pass runs the whole workload in a
fresh worker process (bench/worker.py) that imports bcesim from ./src.
Passes repeat until the next one would end after --seconds; every metric is
the median over the passes.  Before the timed passes, one untimed pass at the
golden seed checks the output bytes against golden.json, so every run also
checks that the code still produces the seed code's exact output.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones, plus
the tracing overhead.  Human-readable tables go to stdout first; the last
line is one JSON object with correct/attempted/failed/metrics.  A record with
provenance and every sample is written to bench/out/.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from calibrate import REF_S, speed_factor
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PASS_TIMEOUT_S = 150
MIN_UNTRACED_PASSES = 3  # so that an untraced run always has a median
RSS_POLL_S = 0.02


class BenchError(Exception):
    pass


def descendants_rss_kb(pid):
    """Summed resident memory of all descendants of a process, from /proc."""
    total = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            if p != pid:
                with open(f"/proc/{p}/status") as fh:
                    for line in fh:
                        if line.startswith("VmRSS:"):
                            total += int(line.split()[1])
            for children in glob.glob(f"/proc/{p}/task/*/children"):
                with open(children) as fh:
                    todo += [int(c) for c in fh.read().split()]
        except OSError:  # the process ended while we looked
            pass
    return total


def run_pass(name, seed, traced):
    """One worker process; returns its result with its duration and peak memory.

    Peak memory is the worker's own peak plus the larger of its largest
    finished child's peak and the polled peak of all its live descendants
    together, so that work moved into child processes still counts.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, name, str(seed),
           "1" if traced else "0"]
    peak = [0]
    done = threading.Event()
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)

    def watch():
        while not done.wait(RSS_POLL_S):
            peak[0] = max(peak[0], descendants_rss_kb(proc.pid))

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    finally:
        done.set()
        watcher.join()
    if proc.returncode != 0:
        raise BenchError(f"worker for {name} seed {seed} exited {proc.returncode}:\n{err[-3000:]}")
    result = json.loads(out.splitlines()[-1])
    result["duration"] = time.monotonic() - start
    result["peak_rss_kb"] = result["self_rss_kb"] + max(result["children_rss_kb"], peak[0])
    result["traced"] = traced
    result["speed"] = speed_factor(result["loop_s"])
    return result


def run_passes(name, seed, seconds, traced):
    """Timed passes until the next one would end after `seconds`."""
    modes = [False, True] if traced else [False]
    passes = []
    last = {}
    start = time.monotonic()
    while True:
        mode = modes[len(passes) % len(modes)]
        passes.append(run_pass(name, seed, mode))
        last[mode] = passes[-1]["duration"]
        following = modes[len(passes) % len(modes)]
        untraced = sum(not p["traced"] for p in passes)
        enough = len(passes) >= 2 if traced else untraced >= MIN_UNTRACED_PASSES
        projected = time.monotonic() - start + last.get(following, last[mode])
        if enough and projected > seconds:
            return passes


def mark_nondeterminism(passes):
    """Fail the checks of every file whose bytes differ from the first pass's."""
    reference = passes[0]["files"]
    for p in passes[1:]:
        differ = {f for f, digest in p["files"].items() if digest != reference.get(f)}
        p["checks"] = [
            (check, reason or ("bytes differ from the first pass at this seed"
                               if check.split(" ")[0] in differ else None))
            for check, reason in p["checks"]
        ]


def spread(values):
    """(median, first quartile, third quartile, n) of the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def end_to_end(passes):
    """Samples of the end-to-end metrics, plus the raw host times, from untraced passes."""
    untraced = [p for p in passes if not p["traced"]]
    return {
        "wall_s": [p["wall_s"] * p["speed"] for p in untraced],
        "reps_per_s": [p["reps"] / (p["wall_s"] * p["speed"]) for p in untraced],
        "setup_s": [p["setup_s"] * p["speed"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_kb"] / 1024 for p in untraced],
        "host_wall_s": [p["wall_s"] for p in untraced],
        "host_setup_s": [p["setup_s"] for p in untraced],
    }


def per_layer(passes, e2e, units):
    """Samples of the per-layer metrics from traced passes; host times calibrated."""
    traced = [p for p in passes if p["traced"]]
    timed = {k for k, m in units.items() if m["unit"] == "s"}
    samples = {
        k: [p["layers"][k] * (p["speed"] if k in timed else 1) for p in traced]
        for k in traced[0]["layers"]
    }
    rep_ms = [ms * p["speed"] for p in traced for ms in p["rep_ms"]]
    if len(rep_ms) > 1:
        samples["simulation.rep_p50_ms"] = [statistics.median(rep_ms)]
        samples["simulation.rep_p90_ms"] = [statistics.quantiles(rep_ms, n=10)[8]]
    else:
        samples["simulation.rep_p50_ms"] = samples["simulation.rep_p90_ms"] = rep_ms or [0.0]
    events = statistics.median(samples["core.events_scheduled"])
    untraced_wall = statistics.median(e2e["wall_s"])
    samples["core.us_per_event"] = [untraced_wall / events * 1e6 if events else 0.0]
    traced_wall = statistics.median(p["wall_s"] * p["speed"] for p in traced)
    samples["trace.overhead"] = [traced_wall / untraced_wall]
    return samples, len(rep_ms)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "command": sys.orig_argv,
        "seed": seed,
    }


def benchmark(name, why, seed, seconds, traced, units):
    verify = run_pass(name, DEFAULT_SEED, False)
    passes = run_passes(name, seed, seconds, traced)
    mark_nondeterminism(passes)
    checks = verify["checks"] + [c for p in passes for c in p["checks"]]
    failures = [f"{check}: {reason}" for check, reason in checks if reason]

    samples = end_to_end(passes)
    first_traced = next((p for p in passes if p["traced"]), None)
    if traced:
        layers, rep_samples = per_layer(passes, samples, units)
        samples.update(layers)
    stats = {k: spread(v) for k, v in samples.items()}
    wanted = [m for m in units if units[m]["trace"] == traced]
    missing = [k for k in wanted if k not in stats]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")

    record = {
        "workload": name,
        "why": why,
        "seconds": seconds,
        "trace": int(traced),
        "provenance": provenance(seed),
        "golden_seed": DEFAULT_SEED,
        "calibration": {"ref_s": REF_S, "speed_factors": [p["speed"] for p in passes]},
        "passes": {"untraced": len(samples["wall_s"]),
                   "traced": sum(p["traced"] for p in passes)},
        "checks": {"attempted": len(checks), "failed": len(failures), "failures": failures},
        "metrics": {
            k: {"unit": units[k]["unit"] if k in units else "s", "median": s[0], "q1": s[1],
                "q3": s[2], "n": s[3], "samples": samples[k]}
            for k, s in stats.items()
        },
    }
    os.makedirs(OUT, exist_ok=True)
    if traced:
        record["rows"] = first_traced["rows"]
        record["rep_ms_samples"] = rep_samples
        record["untraced_targets"] = first_traced["untraced"]
        with open(os.path.join(OUT, f"{name}-seed{seed}-spans.jsonl"), "w") as fh:
            for i, p in enumerate(passes):
                for span in p.get("spans", ()):
                    fh.write(json.dumps(dict(zip(
                        ("name", "start", "end", "parent", "rep"), span), pass_index=i)) + "\n")
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print_report(record, path)
    return record, {k: stats[k][0] for k in wanted}


def print_report(record, path):
    prov = record["provenance"]
    print(f"== {record['workload']}  seed {prov['seed']}  {record['seconds']} s  "
          f"trace {record['trace']}  ({prov['nproc']} cpus, Python {prov['python']})")
    print(f"   passes: {record['passes']['untraced']} untraced, {record['passes']['traced']} "
          f"traced, plus 1 golden-seed pass ({record['golden_seed']})")
    print(f"   {'metric':30} {'median':>14} {'q1':>14} {'q3':>14}  {'unit':8} n")
    for k, m in record["metrics"].items():
        print(f"   {k:30} {m['median']:14.6g} {m['q1']:14.6g} {m['q3']:14.6g}  "
              f"{m['unit']:8} {m['n']}")
    c = record["checks"]
    print(f"   {'error_frac':30} {c['failed'] / c['attempted']:14.6g} {'':14} {'':14}  "
          f"{'ratio':8} {c['attempted']} checks, {c['failed']} failed")
    for failure in c["failures"][:20]:
        print(f"   FAILED {failure}")
    if record.get("rows"):
        print(f"   {'row':30} {'fill_mean':>14} {'validator_load':>14}")
        for row in record["rows"]:
            load = row["validator_load"]
            flag = "  unstable (load >= 1)" if load is not None and load >= 1 else ""
            print(f"   {row['row']:30} {row['fill_mean'] or 0:14.6g} {load or 0:14.6g}{flag}")
    print(f"   record: {os.path.relpath(path, ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "bcesim", "__init__.py")):
            raise BenchError(f"no bcesim sources under {os.path.join(ROOT, 'src')}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        units = {m["name"]: {"unit": m["unit"], "trace": key == "per_layer"}
                 for key in ("end_to_end", "per_layer") for m in spec[key]}
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [(n, *benchmark(n, whys[n], args.seed, args.seconds, bool(args.trace), units))
                   for n in names]
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["checks"]["attempted"] for _, r, _ in results)
    failed = sum(r["checks"]["failed"] for _, r, _ in results)
    prefix = len(results) > 1
    metrics = {
        (f"{n}/{k}" if prefix else k): {"value": v, "unit": units[k]["unit"]}
        for n, _, values in results for k, v in values.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
