import pytest
from hypothesis import settings

import bcesim.frontback
from bcesim.config import paper_default


# For tests whose examples are whole simulations: a fixed example sequence, so
# a failure reproduces on rerun, and no per-example deadline, so a slow
# machine cannot make them flaky.
settings.register_profile("simulation", derandomize=True, deadline=None)

# Config text: paper defaults with every delay between generation and commit zero.
ZERO_LATENCY = (
    "transmit_time = 0\ncomm_latency = fixed:0\nendorse_time = fixed:0\nordering_base = 0\n"
    "validate_block_overhead = 0\nvalidate_per_tx = 0\n"
)


def parse_csv(text):
    """CSV text -> list of dicts; numeric cells become floats, NA stays 'NA'."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for name, cell in zip(header, cells):
            if name == "swept_param" or cell == "NA":
                row[name] = cell
            else:
                row[name] = float(cell)
        rows.append(row)
    return rows


def count_runs(monkeypatch):
    """Record the seed of every front built (`frontback.Fronts.front`, which
    `run_front` calls too) and of every `run_back` call from now on, as
    {"run_front": seeds, "run_back": seeds}."""
    calls = {"run_front": [], "run_back": []}
    real_front, real_back = bcesim.frontback.Fronts.front, bcesim.frontback.run_back

    def front(self, cfg, seed, *args, **kwargs):
        calls["run_front"].append(seed)
        return real_front(self, cfg, seed, *args, **kwargs)

    def back(cfg, seed, *args, **kwargs):
        calls["run_back"].append(seed)
        return real_back(cfg, seed, *args, **kwargs)

    monkeypatch.setattr(bcesim.frontback.Fronts, "front", front)
    monkeypatch.setattr(bcesim.frontback, "run_back", back)
    return calls


@pytest.fixture
def quick_cfg():
    """Short-horizon config for tests that only need a real trace."""
    return paper_default().replace(horizon=200.0, warmup=20.0, replications=2)
