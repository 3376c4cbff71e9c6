"""Scenario presets, replication management, and CSV result emission.

Each scenario sweeps one parameter of a preset configuration and writes one
aggregated row per swept value.  Replication k derives its streams from
master_seed + k, so re-running any scenario with the same config and seed
reproduces the output byte for byte.  A sweep over a measurement field
(target_aoi, warmup) simulates each replication once and measures that one
sample path under every swept value.  A sweep over a back-only field
(`config.BACK_FIELDS`) simulates each replication's front once and runs its
back once per swept value.  Only a run that writes a trace keeps its
per-transaction record; every other run keeps what the CSV needs.
"""

import gc
import io
from bisect import bisect_left
from dataclasses import dataclass

from .core import ConfigError, number_text
from .config import BACK_FIELDS, MEASUREMENT_FIELDS, SWEEPABLE, paper_default
from .dists import Delay
from .metrics import average_aoi, violation_probability
from .simulation import run_once

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
    [[summary]] = _replicate(cfg, [cfg], reps=[k])
    return summary


def run_replications(cfg):
    """All replications of one config, in replication order."""
    cfg.validate()
    [summaries] = _replicate(cfg, [cfg])
    return summaries


def _replicate(cfg, measures, trace=None, reps=None):
    """Simulate each replication of cfg (or only those numbered in `reps`)
    and summarize it under every config in `measures`, which differ from cfg
    in measurement and back-only fields only.

    A replication whose measures share one back config is one `run_once`;
    otherwise it is one front and one back per distinct back config.
    Returns one summary list per measure, in replication order.  If `trace`
    is a text stream, each run keeps its per-transaction record and writes
    it there; otherwise each run is lean.  The cyclic collector stays paused
    over the loop: each result is summarized, traced and dropped, and each
    front dropped, before the next replication starts, so the collector
    never walks their objects.
    """
    backs = {}  # back-only field values -> indices of the measures with them
    for j, measure in enumerate(measures):
        backs.setdefault(tuple(getattr(measure, key) for key in BACK_FIELDS), []).append(j)
    per_measure = [[] for _ in measures]

    def add_summaries(group, result):
        for j in group:
            per_measure[j].append(summarize(measures[j], result))

    collecting = gc.isenabled()
    gc.disable()
    try:
        for k in range(cfg.replications) if reps is None else reps:
            seed = cfg.master_seed + k
            if len(backs) > 1:
                from .frontback import run_back, run_front

                front = run_front(cfg, seed)
                for group in backs.values():
                    add_summaries(group, run_back(measures[group[0]], seed, front))
                del front
            else:
                result = run_once(cfg, seed, record=trace is not None)
                add_summaries(range(len(measures)), result)
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


def run_sweep(base, param, values):
    """Sweep one config key, returning (rows, summaries-per-value)."""
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter '{param}'")
    configs = [base.replace(**{param: value}) for value in values]  # validate first
    if param in MEASUREMENT_FIELDS or param in BACK_FIELDS:
        # every value measures the same sample paths, or runs the same fronts
        per_value = _replicate(configs[0], configs) if configs else []
    else:
        per_value = (run_replications(cfg) for cfg in configs)
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
    for tx in result.transactions:
        out.write(
            f"{k},{tx.id},{tx.key},{tx.channel},{_fmt(tx.gen_time)},"
            f"{_fmt(tx.arrive_time)},{_fmt(tx.endorse_done)},"
            f"{tx.captured_version},{_fmt(tx.order_done)},"
            f"{_fmt(tx.commit_time)},{tx.validity}\n"
        )
    for pid, key, channel, gen_time in result.lost:
        out.write(f"{k},{pid},{key},{channel},{_fmt(gen_time)},NA,NA,NA,NA,NA,lost\n")


def trace_csv(cfg):
    """Per-transaction debug trace over all replications of a config."""
    out = io.StringIO()
    out.write(TRACE_HEADER + "\n")
    _replicate(cfg, [], out)
    return out.getvalue()


def run_plain_traced(cfg):
    """(run_plain(cfg), trace_csv(cfg)), simulating each replication once."""
    out = io.StringIO()
    out.write(TRACE_HEADER + "\n")
    [summaries] = _replicate(cfg, [cfg], out)
    return _plain_csv(summaries), out.getvalue()
