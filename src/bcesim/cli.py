"""Command-line entry point.

    simulate --config <path> [--scenario <name>] [--sweep <key>=<v1,v2,...>]
             [--seed <int>] [--reps <int>] [--out <path>] [--trace <path>]

Exit code 0 on success; 2 with a diagnostic on configuration errors.
"""

import argparse
import os
import sys
from contextlib import ExitStack

from .core import ConfigError
from .config import SWEEPABLE, parse_config, paper_default
from .experiments import (
    CSV_HEADER,
    SCENARIOS,
    run_plain,
    run_plain_traced,
    run_scenario,
    run_sweep,
)


def _parse_sweep(spec, cfg):
    """(key, values) of a --sweep spec, each value checked against cfg."""
    key, sep, raw_values = spec.partition("=")
    key = key.strip()
    if not sep or not raw_values:
        raise ConfigError(f"--sweep expects <key>=<v1,v2,...>, got {spec!r}")
    if key not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter '{key}'")
    values = [SWEEPABLE[key](v.strip()) for v in raw_values.split(",")]
    for value in values:
        cfg.replace(**{key: value})
    return key, values


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Blockchain-enabled network AoI simulator",
    )
    parser.add_argument("--config", help="config file (key = value lines)")
    parser.add_argument("--scenario", choices=SCENARIOS, help="preset sweep to run")
    parser.add_argument("--sweep", metavar="KEY=V1,V2,...", help="sweep one config key")
    parser.add_argument("--seed", type=int, help="override master_seed")
    parser.add_argument("--reps", type=int, help="override replications")
    parser.add_argument("--out", help="write the result CSV here (default stdout)")
    parser.add_argument("--trace", help="write a per-transaction debug CSV here")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    with ExitStack() as files:
        try:
            if args.config is not None:
                with open(args.config) as fh:
                    cfg = parse_config(fh.read())
            else:
                cfg = paper_default()
            overrides = {}
            if args.seed is not None:
                overrides["master_seed"] = args.seed
            if args.reps is not None:
                overrides["replications"] = args.reps
            if overrides:
                cfg = cfg.replace(**overrides)

            if args.scenario and args.sweep:
                raise ConfigError("--scenario and --sweep are mutually exclusive")
            if args.trace is not None and (args.scenario or args.sweep):
                raise ConfigError("--trace applies to plain runs only")
            sweep = _parse_sweep(args.sweep, cfg) if args.sweep else None
            # open the output files before any run, so a bad path costs no simulation
            out = files.enter_context(open(args.out, "w")) if args.out else sys.stdout
            if args.out and args.trace and os.path.exists(args.trace):
                # one file for both would get the result CSV over the start of the trace
                if os.path.samefile(args.out, args.trace):
                    raise ConfigError("--out and --trace name the same file")
            trace = files.enter_context(open(args.trace, "w")) if args.trace is not None else None

            if args.scenario:
                csv_text = run_scenario(args.scenario, base=cfg)
            elif sweep:
                rows, _ = run_sweep(cfg, *sweep)
                csv_text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
            elif trace is not None:
                csv_text = run_plain_traced(cfg, trace)
            else:
                csv_text = run_plain(cfg)
        except (ConfigError, OSError) as exc:
            print(f"simulate: error: {exc}", file=sys.stderr)
            return 2
        out.write(csv_text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
