"""The benchmark's workloads: a config text plus the public bcesim calls run on it.

Each workload function takes the imported `bcesim.experiments` module and the
parsed config, and returns its outputs as {file name: text}, in the order the
CLI would write them.  This module imports nothing, so that a worker can time the
import of bcesim, and of the standard modules bcesim needs, as set-up.
"""

# Paper defaults; `simulate --seed N` reproduces a run at workload seed N.
DEFAULT_SEED = 12345

# M/D/1 degenerate config: Poisson arrivals at MD1_RATE, every proposal
# updates the tracked key, and nothing after the transmitter takes time, so
# the AoI is the AoI of an M/D/1 queue with service time `transmit_time`.
MD1_RATE = 9.0
MD1_CONFIG = f"""\
generation_mode = exponential
total_rate = {MD1_RATE}
target_ratio = 1
endorse_time = fixed:0
ordering_base = 0
ordering_per_kafka = 0
validate_block_overhead = 0
validate_per_tx = 0
block_size = 1
transmit_time = 0.1
replications = 8
"""


def _csv(ex, rows):
    return ex.CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def fig2_blocks(ex, cfg):
    rows, _ = ex.run_sweep(cfg, "block_size", [1, 2, 5, 10, 20])
    return {"fig2_blocks.csv": _csv(ex, rows)}


def md1_channel(ex, cfg):
    fcfs, _ = ex.run_sweep(cfg, "transmit_time", [0.05, 0.08, 0.1])
    lcfs, _ = ex.run_sweep(cfg, "discipline", ["lcfs"])
    return {"md1_channel.csv": _csv(ex, fcfs + lcfs)}


def fig6_trace(ex, cfg):
    return {
        "fig6.csv": ex.run_scenario("fig6", base=cfg),
        "plain.csv": ex.run_plain(cfg),
        "trace.csv": ex.trace_csv(cfg),
    }


def md1_average_aoi(rate, service):
    """Average AoI of an M/D/1 FCFS queue (Kaul, Yates & Gruteser, CISS 2012)."""
    from math import exp

    rho = rate * service
    return service * (1 / (2 * (1 - rho)) + 0.5 + (1 - rho) * exp(rho) / rho)


def md1_closed_form(param, value):
    """Expected avg_aoi_mean of an md1_channel row, or None for the LCFS row."""
    if param == "transmit_time":
        return md1_average_aoi(MD1_RATE, float(value))
    return None


class Workload:
    def __init__(self, name, config, run, closed_form=None):
        self.name = name
        self.config = config  # config file text, without master_seed
        self.run = run  # (experiments module, SimConfig) -> {file name: text}
        self.closed_form = closed_form  # (swept_param, value) -> expected avg AoI

    def config_text(self, seed):
        return f"{self.config}master_seed = {seed}\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig2_blocks", "replications = 3\n", fig2_blocks),
        Workload("md1_channel", MD1_CONFIG, md1_channel, md1_closed_form),
        Workload("fig6_trace", "timeout = 1.0\nreplications = 3\n", fig6_trace),
    )
}
