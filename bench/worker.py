"""One pass of one workload in a fresh process; prints its result as one JSON line.

    python3 bench/worker.py <checkout root> <workload> <seed> <traced 0|1>

Set-up is timed from the first line of this file, before bcesim or any
standard module it needs is imported, to the parsed and validated config.
Wall time runs from the first call into bcesim to the last output byte.
calibrate.SpeedSampler times its reference loop around and during the
workload; the time its handler takes is subtracted from the wall time.
Checks, digests and the result line come after the clocks stop.
"""

import os
import sys
import time

T0 = time.perf_counter()

from workloads import WORKLOADS  # noqa: E402  (imports nothing)


def main():
    root, name, seed, traced = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    workload = WORKLOADS[name]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import bcesim.config
    import bcesim.experiments as ex

    if not os.path.abspath(bcesim.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"bcesim imported from {bcesim.__file__}, not from {src}")
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cfg = bcesim.config.parse_config(workload.config_text(seed))
    setup_s = time.perf_counter() - T0
    if tracer:
        tracer.end_setup()

    from calibrate import SpeedSampler

    speed = SpeedSampler()
    with speed:
        start = time.perf_counter()
        outputs = workload.run(ex, cfg)
        end = time.perf_counter()
    wall_s = end - start - speed.paused(start, end)
    if tracer:
        tracer.uninstall()

    import resource

    # Peak memory of the workload itself, before the checks allocate theirs.
    self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    import json

    import checks

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")) as fh:
        golden = json.load(fh)
    reps = cfg.replications
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "loop_s": speed.loop_s,
        "reps": checks.rep_total(outputs),
        "files": {file_name: checks.sha256(text) for file_name, text in outputs.items()},
        "checks": checks.check_outputs(
            outputs, golden["workloads"][name], reps, workload.closed_form,
            with_digests=seed == golden["seed"],
        ),
        "self_rss_kb": self_rss_kb,
        "children_rss_kb": children_rss_kb,
    }
    if tracer:
        result.update(
            layers=tracer.layer_metrics(),
            rep_ms=tracer.rep_ms,
            rows=tracer.rows,
            spans=tracer.spans,
            untraced=tracer.missing,
        )
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
