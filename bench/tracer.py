"""Per-layer tracing of one workload pass, from outside bcesim.

`Tracer.install` replaces each traced function at every place a caller looks
it up: a method on its class, or each `bcesim.*` module global bound to the
function object.  `uninstall` puts the originals back.  A stack of open
spans gives every call its self time (its duration minus that of the traced
calls inside it).  Fine-grained calls (tens of thousands per replication)
are only aggregated into per-name calls, total and self time; full spans
(name, start, end, parent, replication) are kept in memory for the coarse
experiment-level calls and handed back at the end.  Hook work runs outside
the wrapped call, so it is charged to the caller's self time.
"""

import sys
import time

# Config fields that only change what is measured on a sample path, not the
# path itself.  The run seed, not master_seed, selects the path.
MEASUREMENT_FIELDS = {"target_aoi", "warmup", "replications", "master_seed"}

# (module, class or None, attribute, label).  Labels are summed into layer
# metrics by `Tracer.layer_metrics`.
TARGETS = [
    ("bcesim.core", "EventQueue", "schedule", "schedule"),
    ("bcesim.core", "EventQueue", "next_event", "next_event"),
    ("bcesim.workload", "TransmitterQueue", "pop", "pop"),
    ("bcesim.workload", None, "next_generation_time", "source"),
    ("bcesim.workload", None, "assign_key", "source"),
    ("bcesim.dists", "Delay", "sample", "draw"),
    ("bcesim.dists", "Delay", "sample_max", "draw"),
    ("bcesim.pipeline", "ChannelState", "submit", "submit"),
    ("bcesim.pipeline", "ChannelState", "fire_timeout", "submit"),
    ("bcesim.pipeline", None, "validate_block", "validate"),
    ("bcesim.pipeline", None, "commit_block", "commit"),
    ("bcesim.ledger", "LedgerState", "read_version", "ledger_read"),
    ("bcesim.ledger", "LedgerState", "apply_update", "ledger_write"),
    ("bcesim.metrics", None, "average_aoi", "stat"),
    ("bcesim.metrics", None, "violation_probability", "stat"),
    ("bcesim.metrics", None, "latency_breakdown", "breakdown"),
    ("bcesim.metrics", "AoISamplePath", "restricted", "restrict"),
    ("bcesim.config", "SimConfig", "validate", "config"),
    ("bcesim.simulation", None, "run_once", "run_once"),
    ("bcesim.experiments", None, "run_replication", "run_replication"),
    ("bcesim.experiments", None, "summarize", "summarize"),
    ("bcesim.experiments", None, "aggregate_row", "aggregate_row"),
    ("bcesim.experiments", None, "trace_csv", "trace_csv"),
    ("bcesim.experiments", None, "run_replications", "experiments"),
    ("bcesim.experiments", None, "run_sweep", "experiments"),
    ("bcesim.experiments", None, "run_scenario", "experiments"),
    ("bcesim.experiments", None, "run_plain", "experiments"),
]

# Labels whose calls also get a full span.
FULL_SPAN_LABELS = {
    "run_once", "run_replication", "summarize", "aggregate_row", "trace_csv", "experiments",
}


def model_key(cfg):
    """The config fields that determine the sample path, as a hashable value."""
    return tuple(sorted(
        (k, repr(v)) for k, v in vars(cfg).items() if k not in MEASUREMENT_FIELDS
    ))


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.stats = {}  # label -> [calls, total s, self s]
        self.stack = []  # child seconds of each open traced call
        self.open_spans = []  # indices into spans of the open full spans
        self.spans = []  # [name, start, end, parent index, replication]
        self.count = dict.fromkeys((
            "heap_peak", "pop_scan", "txq_peak", "cuts_size", "cuts_timeout",
            "timeouts_stale", "cut_txs", "valid", "validated",
        ), 0)
        self.rep_ms = []  # host ms of each run_once call
        self.sims = set()  # distinct (model config, seed) pairs simulated
        self.rows = []  # one entry per aggregated CSV row
        self._row_start = (0, 0)  # (blocks, cut txs) at the previous row boundary
        self._row_cfg = None
        self.missing = []  # targets not found in this version of bcesim
        self._restore = []

    # -- installing ---------------------------------------------------------

    def install(self):
        hooks = {
            "schedule": (None, self._after_schedule),
            "pop": (self._before_pop, None),
            "submit": (None, self._after_cut),
            "run_once": (self._before_run_once, self._after_run_once),
            "aggregate_row": (self._before_aggregate_row, None),
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "bcesim"]
        for module_name, cls_name, attr, label in TARGETS:
            module = sys.modules.get(module_name)
            owner = getattr(module, cls_name, None) if cls_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            original = vars(owner)[attr]
            before, after = hooks.get(label, (None, None))
            wrapper = self._wrap(original, label, before, after, label in FULL_SPAN_LABELS,
                                 attr)
            if cls_name:
                sites = [owner]
            else:
                sites = [m for m in modules if vars(m).get(attr) is original]
            for site in sites:
                setattr(site, attr, wrapper)
                self._restore.append((site, attr, original, label))

    def end_setup(self):
        """Stop tracing config validation, so the config layer covers set-up only."""
        for site, attr, original, label in self._restore:
            if label == "config":
                setattr(site, attr, original)
        self._restore = [r for r in self._restore if r[3] != "config"]

    def uninstall(self):
        for site, attr, original, _ in reversed(self._restore):
            setattr(site, attr, original)
        self._restore = []

    def _wrap(self, fn, label, before, after, full, name):
        rec = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack = self.stack
        clock = self.clock

        if not (before or after or full):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - stack.pop()
                    if stack:
                        stack[-1] += dur
            return wrapper

        def wrapper(*args, **kwargs):
            pre = before(args) if before else None
            span = self._open_span(name, args) if full else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                if full:
                    self._close_span(span, t0, t1)
            if after:
                after(args, result, pre, dur)
            return result
        return wrapper

    # -- full spans ---------------------------------------------------------

    def _open_span(self, name, args):
        parent = self.open_spans[-1] if self.open_spans else None
        rep = self.spans[parent][4] if parent is not None else None
        if name == "run_replication":
            rep = args[1]
        elif name == "run_once":
            rep = args[1] - args[0].master_seed
        self.spans.append([name, None, None, parent, rep])
        self.open_spans.append(len(self.spans) - 1)
        return self.open_spans[-1]

    def _close_span(self, index, t0, t1):
        self.open_spans.pop()
        self.spans[index][1] = t0 - self.t0
        self.spans[index][2] = t1 - self.t0

    # -- counter hooks ------------------------------------------------------

    def _after_schedule(self, args, result, pre, dur):
        depth = len(args[0])
        if depth > self.count["heap_peak"]:
            self.count["heap_peak"] = depth

    def _before_pop(self, args):
        depth = len(args[0])
        self.count["pop_scan"] += depth
        if depth > self.count["txq_peak"]:
            self.count["txq_peak"] = depth

    def _after_cut(self, args, result, pre, dur):
        # submit returns (block, deadline); fire_timeout returns a block or None
        if isinstance(result, tuple):
            block = result[0]
            kind = "cuts_size"
        else:
            block = result
            kind = "cuts_timeout"
            if block is None:
                self.count["timeouts_stale"] += 1
        if block is not None:
            self.count[kind] += 1
            self.count["cut_txs"] += len(block.txs)

    def _before_run_once(self, args):
        cfg, seed = args[0], args[1]
        self.sims.add((model_key(cfg), seed))
        self._row_cfg = cfg

    def _after_run_once(self, args, result, pre, dur):
        self.rep_ms.append(dur * 1e3)
        bd = result.breakdown
        self.count["valid"] += bd.n_valid
        self.count["validated"] += bd.n_valid + bd.n_mvcc_invalid + bd.n_vscc_invalid

    def _before_aggregate_row(self, args):
        param, value = args[0], args[1]
        blocks = self.count["cuts_size"] + self.count["cuts_timeout"]
        txs = self.count["cut_txs"]
        row_blocks = blocks - self._row_start[0]
        fill = (txs - self._row_start[1]) / row_blocks if row_blocks else None
        self._row_start = (blocks, txs)
        self.rows.append({
            "row": f"{param}={value if isinstance(value, str) else format(value, 'g')}",
            "fill_mean": fill,
            "validator_load": validator_load(self._row_cfg, fill),
        })

    # -- results ------------------------------------------------------------

    def _self(self, *labels):
        return sum(self.stats.get(label, (0, 0.0, 0.0))[2] for label in labels)

    def _calls(self, *labels):
        return sum(self.stats.get(label, (0, 0.0, 0.0))[0] for label in labels)

    def layer_metrics(self):
        """Per-layer metrics of this pass, keyed by their benchmark names."""
        c = self.count
        pops = self._calls("pop")
        blocks = c["cuts_size"] + c["cuts_timeout"]
        runs = self._calls("run_once")
        loads = [r["validator_load"] for r in self.rows if r["validator_load"] is not None]
        return {
            "core.events_scheduled": self._calls("schedule"),
            "core.heap_peak": c["heap_peak"],
            "core.queue_s": self._self("schedule", "next_event"),
            "workload.pops": pops,
            "workload.pop_scan_mean": c["pop_scan"] / pops if pops else 0.0,
            "workload.txq_peak": c["txq_peak"],
            "workload.pop_s": self._self("pop"),
            "workload.source_s": self._self("source"),
            "dists.draws": self._calls("draw"),
            "dists.draw_s": self._self("draw"),
            "pipeline.blocks": blocks,
            "pipeline.fill_mean": c["cut_txs"] / blocks if blocks else 0.0,
            "pipeline.cuts_size": c["cuts_size"],
            "pipeline.cuts_timeout": c["cuts_timeout"],
            "pipeline.timeouts_stale": c["timeouts_stale"],
            "pipeline.valid_ratio": c["valid"] / c["validated"] if c["validated"] else 0.0,
            "pipeline.submit_s": self._self("submit"),
            "pipeline.validate_s": self._self("validate"),
            "pipeline.commit_s": self._self("commit"),
            "pipeline.validator_load_max": max(loads, default=0.0),
            "pipeline.unstable_rows": sum(load >= 1.0 for load in loads),
            "ledger.reads": self._calls("ledger_read"),
            "ledger.writes": self._calls("ledger_write"),
            "ledger.s": self._self("ledger_read", "ledger_write"),
            "metrics.stat_calls": self._calls("stat"),
            "metrics.stat_s": self._self("stat"),
            "metrics.breakdown_s": self._self("breakdown"),
            "metrics.restrict_s": self._self("restrict"),
            "simulation.runs": runs,
            "simulation.run_s": self.stats.get("run_once", (0, 0.0, 0.0))[1],
            "simulation.self_s": self._self("run_once"),
            "experiments.replications": self._calls("run_replication"),
            "experiments.useful_sim_ratio": len(self.sims) / runs if runs else 0.0,
            "experiments.summarize_s": self._self("summarize"),
            "experiments.aggregate_s": self._self("aggregate_row"),
            "experiments.trace_s": self._self("trace_csv"),
            "experiments.self_s": self._self("experiments", "run_replication"),
            "config.validate_calls": self._calls("config"),
            "config.s": self._self("config"),
        }


def validator_load(cfg, fill):
    """Offered load of a single channel's validator: block rate x time per block.

    Block rate is the delivered transaction rate over the mean block fill; a
    load of 1 or more means the validation backlog grows without bound.
    """
    if cfg is None or not fill:
        return None
    per_block = cfg.validate_block_overhead + cfg.validate_per_tx * fill
    return cfg.total_rate * cfg.stp / fill * per_block
