"""Scenario presets, replication management, and CSV result emission.

A scenario is a list of sweeps, each of one parameter over a preset
configuration, and writes one aggregated row per swept value.  Every sweep
and scenario, called here or from the command line, builds its rows first
(`sweep_runs`), then simulates them all at once (`run_rows`).  Replication k
derives its streams from master_seed + k, so re-running any scenario with the
same config and seed reproduces the output byte for byte.  One rule decides
what configs share: configs that differ in back fields (`config.BACK_FIELDS`)
and measurement fields (`config.MEASUREMENT_FIELDS`) alone share each
replication's front, and those that differ in measurement fields alone also
share its back, whose result is summarized under each of them.  The fronts of
one replication share every pass that reads none of the fields they differ
in, and the replications of one call share every pass that no draw feeds,
such as a periodic generation (`frontback.Fronts`); nothing shared outlives
the call.  Only a run that writes a trace keeps its per-transaction record;
every other run keeps what the CSV needs.
"""

import gc
import io
from bisect import bisect_left
from dataclasses import dataclass

from .core import ConfigError, number_text
from .config import BACK_FIELDS, MEASUREMENT_FIELDS, SWEEPABLE, paper_default
from .dists import Delay
from .metrics import average_aoi, violation_probability

CSV_HEADER = (
    "swept_param,value,rep_count,avg_aoi_mean,avg_aoi_std,comm_lat,endorse_lat,"
    "order_lat,validate_lat,mvcc_invalid_frac,block_rate,violation_prob"
)

# The columns after avg_aoi_std: each is the mean of the RunSummary attribute
# of the same name.
_COLUMNS = CSV_HEADER.split(",")
_MEAN_COLUMNS = _COLUMNS[_COLUMNS.index("avg_aoi_std") + 1:]

@dataclass
class RunSummary:
    """Per-replication observables, the unit aggregated into a CSV row.

    An attribute that feeds a CSV column has that column's name.
    """

    avg_aoi: float | None
    violation_prob: float | None
    comm_lat: float | None
    endorse_lat: float | None
    order_lat: float | None
    validate_lat: float | None
    mvcc_invalid_frac: float
    block_rate: float
    n_delivered: int


def summarize(cfg, result):
    """Reduce one RunResult to the observables reported per replication.

    The only place a measurement field applies: the path is measured on
    [cfg.warmup, cfg.horizon], blocks are counted from cfg.warmup, and the
    violation is taken against cfg.target_aoi.  So `cfg` may differ from the
    config of the run in its measurement fields.
    """
    bd = result.breakdown
    warmup = cfg.warmup
    path = result.path.restricted(warmup, cfg.horizon)
    violation = None
    if cfg.target_aoi is not None and path.resets:
        violation = violation_probability(path, cfg.target_aoi)
    frac = bd.n_mvcc_invalid / bd.n_generated if bd.n_generated else 0.0
    blocks = len(result.block_times) - bisect_left(result.block_times, warmup)
    return RunSummary(
        avg_aoi=average_aoi(path),
        violation_prob=violation,
        comm_lat=bd.comm_lat,
        endorse_lat=bd.endorse_lat,
        order_lat=bd.order_lat,
        validate_lat=bd.validate_lat,
        mvcc_invalid_frac=frac,
        block_rate=blocks / (cfg.horizon - warmup),
        n_delivered=bd.n_generated - bd.n_lost,
    )


def run_replication(cfg, k):
    """Run replication k of a config (seed master_seed + k)."""
    [[summary]] = _replicate([cfg.replace(master_seed=cfg.master_seed + k, replications=1)])
    return summary


def run_replications(cfg):
    """All replications of one config, in replication order."""
    cfg.validate()
    [summaries] = _replicate([cfg])
    return summaries


# Every field but these is a front field, master_seed, replications and
# horizon among them.
_NOT_FRONT = BACK_FIELDS | MEASUREMENT_FIELDS


def _replicate(measures, trace=None):
    """Simulate each config in `measures`, returning one summary list per
    config in replication order.

    The configs are grouped by their front fields, and each front group by
    its back fields.  The loop runs over the seeds, and at each seed over the
    front groups with a replication there: one front each, then one
    `run_back` per back group, whose result is summarized under every config
    of that group.  Every front of the call is built by one
    `frontback.Fronts`, so each pass they share is computed once: at one
    seed, or once for every seed where no draw feeds it, and dropped after
    its last use.  If `trace` is a text stream, `measures` holds one config
    (a full-record front serves one back), whose runs keep their record and
    write it there; otherwise every run is lean.  The cyclic collector stays
    paused over the loop, and each front is dropped after its last back and
    each result after its summaries and trace, so the collector never walks
    their objects.
    """
    # imported at the first run, so that importing bcesim compiles none of it
    from .frontback import Fronts, run_back

    fronts = {}  # front field values -> back field values -> indices of the measures
    for j, measure in enumerate(measures):
        front_key = tuple(value for key, value in vars(measure).items() if key not in _NOT_FRONT)
        back_key = tuple(getattr(measure, key) for key in BACK_FIELDS)
        fronts.setdefault(front_key, {}).setdefault(back_key, []).append(j)
    runs = {}  # seed -> (replication, the back groups of one front group) of each run there
    for backs in fronts.values():
        groups = list(backs.values())
        cfg = measures[groups[0][0]]
        for k in range(cfg.replications):
            runs.setdefault(cfg.master_seed + k, []).append((k, groups))
    per_measure = [[] for _ in measures]
    shared = Fronts((measures[groups[0][0]], seed) for seed in runs for _, groups in runs[seed])
    collecting = gc.isenabled()
    gc.disable()
    try:
        for seed in sorted(runs):  # so that each config's replications come in order
            for k, groups in runs[seed]:
                front = shared.front(measures[groups[0][0]], seed, record=trace is not None)
                for group in groups:
                    result = run_back(measures[group[0]], seed, front)
                    if group is groups[-1]:
                        del front  # so that a full-record front is gone before its trace
                    for j in group:
                        per_measure[j].append(summarize(measures[j], result))
                    if trace is not None:
                        _write_trace(trace, k, result)
                    del result
    finally:
        if collecting:
            gc.enable()
    return per_measure


def _mean_std(values):
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    mean = sum(present) / len(present)
    if len(present) < 2:
        return mean, None
    var = sum((v - mean) ** 2 for v in present) / (len(present) - 1)
    return mean, var ** 0.5


def _fmt(x):
    if x is None:
        return "NA"
    return format(x, ".10g")


def _fmt_value(value):
    """A swept value in config syntax, with every digit it needs."""
    return number_text(value) if isinstance(value, float) else str(value)


def aggregate_row(param, value, summaries):
    """One CSV data row: means over replications, stddev for the average AoI."""
    aoi_mean, aoi_std = _mean_std([s.avg_aoi for s in summaries])
    cells = [
        param,
        _fmt_value(value),
        str(len(summaries)),
        _fmt(aoi_mean),
        _fmt(aoi_std),
    ]
    for column in _MEAN_COLUMNS:
        cells.append(_fmt(_mean_std([getattr(s, column) for s in summaries])[0]))
    return ",".join(cells)


def _frange(values):
    return [round(v, 10) for v in values]


# Each scenario's sweeps, each a (key, values, overrides) triple: one row per
# value, over the base config with the overrides applied.
SCENARIOS = {
    "fig2": [("block_size", list(range(1, 21)), {})],
    "fig3": [(
        "timeout",
        _frange([0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]),
        {},
    )],
    "fig4": [("target_ratio", _frange([0.05 * i for i in range(1, 20)]), {"timeout": 1.0})],
    "fig5": [(
        "stp",
        _frange([0.1 * i for i in range(1, 11)]),
        {
            "total_rate": 20.0,
            "timeout": 1.0,
            "transmit_time": 0.01,
            "comm_latency": Delay("fixed", 0.05),
        },
    )],
    "fig6": [("target_aoi", _frange([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]), {"timeout": 1.0})],
    # the endorser count at the minimum Kafka cluster, then the Kafka count
    # at three endorsers
    "nodes": [
        ("n_endorsers", [1, 2, 3], {"timeout": 1.0, "n_kafka": 4}),
        ("n_kafka", [4, 5], {"timeout": 1.0, "n_endorsers": 3}),
    ],
}


def sweep_runs(base, sweeps):
    """(key, value, config) of each row of `sweeps`, (key, values, overrides)
    triples over `base`, in order.  Every config is validated here, so a bad
    one costs no simulation."""
    runs = []
    for key, values, overrides in sweeps:
        if key not in SWEEPABLE:
            raise ConfigError(f"unknown sweep parameter '{key}'")
        cfg = base.replace(**overrides)
        runs += [(key, value, cfg.replace(**{key: value})) for value in values]
    return runs


def run_rows(runs):
    """(CSV rows, summaries per row) of the (key, value, config) rows `runs`,
    all simulated in one `_replicate`: rows that share a front or a back
    share its run, whatever sweep or scenario they come from."""
    per_row = _replicate([cfg for _, _, cfg in runs])
    return [aggregate_row(key, value, s) for (key, value, _), s in zip(runs, per_row)], per_row


def rows_csv(rows):
    """The result CSV of some rows."""
    return CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def run_sweep(base, param, values):
    """Sweep one config key, returning (rows, summaries-per-value)."""
    return run_rows(sweep_runs(base, [(param, values, {})]))


def run_scenario(name, base=None):
    """Run a preset scenario and return the full CSV text."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario '{name}' (choose from {', '.join(SCENARIOS)})")
    rows, _ = run_rows(sweep_runs(paper_default() if base is None else base, SCENARIOS[name]))
    return rows_csv(rows)


def _plain_csv(summaries):
    return rows_csv([aggregate_row("none", "NA", summaries)])


def run_plain(cfg):
    """No sweep: a single aggregated row for the config as given."""
    return _plain_csv(run_replications(cfg))


def _write_trace(out, k, result):
    # The lines come straight from the run's columns (`RunResult.columns`),
    # so no object is built per transaction.  The run is drained, so every
    # delivered endorsement has each time stamped and `_fmt`'s NA never
    # applies; ".10g" is its format.  Formatting the times is most of the trace's cost, so a
    # shared time is formatted once: the endorsements of a block carry the
    # same `order_done` and `commit_time` objects (`run_back` stamps them from
    # one pair), so a line whose time is the previous line's object reuses its
    # text, and a proposal that arrives at its generation carries one float
    # for `gen_time` and `arrive_time` (the whole arrival column is the
    # generation column where every proposal does).  The test is identity,
    # never equality: -0.0 == 0.0, yet the two print differently.  A
    # replication's lines are joined and written with one `write`.
    lines = []
    add = lines.append
    order = commit = None
    for tid, key, channel, gen, arrive, endorse, version, o, c, validity in zip(*result.columns):
        gen_text = format(gen, ".10g")
        if o is not order:
            order = o
            order_text = format(o, ".10g")
        if c is not commit:
            commit = c
            commit_text = format(c, ".10g")
        add(
            f"{k},{tid},{key},{channel},{gen_text},"
            f"{gen_text if arrive is gen else format(arrive, '.10g')},{endorse:.10g},"
            f"{version},{order_text},{commit_text},{validity}\n"
        )
    for pid, key, channel, gen_time in result.lost:
        add(f"{k},{pid},{key},{channel},{gen_time:.10g},NA,NA,NA,NA,NA,lost\n")
    out.write("".join(lines))


def trace_csv(cfg):
    """Per-transaction debug trace over all replications of a config."""
    out = io.StringIO()
    run_plain_traced(cfg, out)
    return out.getvalue()


def run_plain_traced(cfg, out):
    """run_plain(cfg), writing trace_csv(cfg) to the text stream `out` as it
    goes: each replication's lines as soon as that replication is run, so no
    more than one replication's trace is held in memory."""
    # imported here, as `_replicate` imports the engine, so that importing
    # bcesim compiles none of it
    from .simulation import RECORD_FIELDS

    out.write("rep," + ",".join(RECORD_FIELDS) + "\n")
    [summaries] = _replicate([cfg], out)
    return _plain_csv(summaries)
