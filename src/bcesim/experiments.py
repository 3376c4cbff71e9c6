"""Scenario presets, replication management, and CSV result emission.

Each scenario sweeps one parameter of a preset configuration and writes one
aggregated row per swept value.  Replication k derives its streams from
master_seed + k, so re-running any scenario with the same config and seed
reproduces the output byte for byte.  One rule decides what configs share:
configs that differ in back fields (`config.BACK_FIELDS`) and measurement
fields (`config.MEASUREMENT_FIELDS`) alone share each replication's front,
and those that differ in measurement fields alone also share its back, whose
result is summarized under each of them.  The fronts of one replication share
every pass that reads none of the fields they differ in (`frontback.Fronts`).
Only a run that writes a trace keeps its per-transaction record; every other
run keeps what the CSV needs.
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

TRACE_HEADER = (
    "rep,id,key,channel,gen_time,arrive_time,endorse_done,captured_version,"
    "order_done,commit_time,validity"
)


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
    front groups with a replication there: one front each, all built by one
    `frontback.Fronts`, so they compute each pass they share once, then one
    `run_back` per back group, whose result is summarized under every config
    of that group.  If `trace` is a text stream, `measures` holds one config
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
    collecting = gc.isenabled()
    gc.disable()
    try:
        for seed in sorted(runs):  # so that each config's replications come in order
            configs = [measures[groups[0][0]] for _, groups in runs[seed]]
            shared = Fronts(seed, configs)
            for cfg, (k, groups) in zip(configs, runs[seed]):
                front = shared.front(cfg, record=trace is not None)
                for group in groups:
                    result = run_back(measures[group[0]], seed, front)
                    if group is groups[-1]:
                        del front  # so that a full-record front is gone before its trace
                    for j in group:
                        per_measure[j].append(summarize(measures[j], result))
                    if trace is not None:
                        _write_trace(trace, k, result)
                    del result
            del shared  # the passes it kept are this replication's only
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


def run_sweep(base, param, values):
    """Sweep one config key, returning (rows, summaries-per-value)."""
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter '{param}'")
    configs = [base.replace(**{param: value}) for value in values]  # validate first
    per_value = _replicate(configs)
    rows = []
    all_summaries = []
    for value, summaries in zip(values, per_value):
        rows.append(aggregate_row(param, value, summaries))
        all_summaries.append(summaries)
    return rows, all_summaries


def _frange(values):
    return [round(v, 10) for v in values]


SCENARIO_SWEEPS = {
    "fig2": ("block_size", list(range(1, 21)), {}),
    "fig3": (
        "timeout",
        _frange([0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]),
        {},
    ),
    "fig4": (
        "target_ratio",
        _frange([0.05 * i for i in range(1, 20)]),
        {"timeout": 1.0},
    ),
    "fig5": (
        "stp",
        _frange([0.1 * i for i in range(1, 11)]),
        {
            "total_rate": 20.0,
            "timeout": 1.0,
            "transmit_time": 0.01,
            "comm_latency": Delay("fixed", 0.05),
        },
    ),
    "fig6": (
        "target_aoi",
        _frange([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        {"timeout": 1.0},
    ),
}

SCENARIOS = tuple(SCENARIO_SWEEPS) + ("nodes",)


def run_scenario(name, base=None):
    """Run a preset sweep and return the full CSV text.

    `nodes` reports the endorser count sweep at the minimum Kafka cluster,
    then the Kafka count sweep at three endorsers.
    """
    if base is None:
        base = paper_default()
    if name in SCENARIO_SWEEPS:
        param, values, overrides = SCENARIO_SWEEPS[name]
        rows, _ = run_sweep(base.replace(**overrides), param, values)
    elif name == "nodes":
        node_base = base.replace(timeout=1.0)
        rows, _ = run_sweep(node_base.replace(n_kafka=4), "n_endorsers", [1, 2, 3])
        more, _ = run_sweep(node_base.replace(n_endorsers=3), "n_kafka", [4, 5])
        rows += more
    else:
        raise ConfigError(f"unknown scenario '{name}' (choose from {', '.join(SCENARIOS)})")
    return CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def _plain_csv(summaries):
    return CSV_HEADER + "\n" + aggregate_row("none", "NA", summaries) + "\n"


def run_plain(cfg):
    """No sweep: a single aggregated row for the config as given."""
    return _plain_csv(run_replications(cfg))


def _write_trace(out, k, result):
    # The run is drained, so every delivered transaction has each time stamped
    # and `_fmt`'s NA never applies; ".10g" is its format.  Formatting the
    # times is most of the trace's cost, so a shared time is formatted once:
    # the transactions of a block carry the same `order_done` and
    # `commit_time` objects (`run_back` builds them from one pair), so a line
    # whose time is the previous line's object reuses its text, and a proposal
    # that arrives at its generation carries one float for `gen_time` and
    # `arrive_time`.  The test is identity, never equality: -0.0 == 0.0, yet
    # the two print differently.
    lines = []
    add = lines.append
    order = commit = None
    for tx in result.transactions:
        gen, arrive = tx.gen_time, tx.arrive_time
        gen_text = format(gen, ".10g")
        if tx.order_done is not order:
            order = tx.order_done
            order_text = format(order, ".10g")
        if tx.commit_time is not commit:
            commit = tx.commit_time
            commit_text = format(commit, ".10g")
        add(
            f"{k},{tx.id},{tx.key},{tx.channel},{gen_text},"
            f"{gen_text if arrive is gen else format(arrive, '.10g')},{tx.endorse_done:.10g},"
            f"{tx.captured_version},{order_text},{commit_text},{tx.validity}\n"
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
    out.write(TRACE_HEADER + "\n")
    [summaries] = _replicate([cfg], out)
    return _plain_csv(summaries)
