import pytest
from hypothesis import settings

import bcesim.experiments
from bcesim.config import paper_default


# For tests whose examples are whole simulations: a fixed example sequence, so
# a failure reproduces on rerun, and no per-example deadline, so a slow
# machine cannot make them flaky.
settings.register_profile("simulation", derandomize=True, deadline=None)


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
    """Record the seed of every simulation made through bcesim.experiments from now on."""
    calls = []
    real = bcesim.experiments.run_once

    def counting(cfg, seed, *args, **kwargs):
        calls.append(seed)
        return real(cfg, seed, *args, **kwargs)

    monkeypatch.setattr(bcesim.experiments, "run_once", counting)
    return calls


@pytest.fixture
def quick_cfg():
    """Short-horizon config for tests that only need a real trace."""
    return paper_default().replace(horizon=200.0, warmup=20.0, replications=2)
