"""Average AoI against closed forms.

With every proposal on the tracked key, blocks of one transaction and no
delay after the transmitter but a fixed communication latency, a proposal
commits the instant it arrives, so the transmitter queue alone sets the age
(the M/D/1 and D/D/1 forms from the AoI literature).  With fixed delays
throughout, the whole block pipeline is deterministic and its age follows
from the MVCC first-writer-wins rule.
"""

import math
import statistics

import pytest

from bcesim.config import parse_config
from bcesim.experiments import run_replications

TRANSMITTER_ONLY = (
    "target_ratio = 1\nblock_size = 1\nendorse_time = fixed:0\nordering_base = 0\n"
    "validate_block_overhead = 0\nvalidate_per_tx = 0\n"
)


def md1_average_aoi(rate, service):
    """FCFS M/D/1 average age (Kaul, Yates & Gruteser, CISS 2012)."""
    rho = rate * service
    return service * (1 / (2 * (1 - rho)) + 0.5 + (1 - rho) * math.exp(rho) / rho)


@pytest.mark.parametrize("rate", [2, 5, 8])  # rho = 0.2, 0.5, 0.8
def test_md1_fcfs_average_aoi(rate):
    service = 0.1
    cfg = parse_config(
        TRANSMITTER_ONLY + f"generation_mode = exponential\ntotal_rate = {rate}\n"
        f"transmit_time = {service}\nhorizon = 2000\nwarmup = 100\nreplications = 8\n"
        "master_seed = 2012\n"
    )
    aois = [s.avg_aoi for s in run_replications(cfg)]
    stderr = statistics.stdev(aois) / math.sqrt(len(aois))
    z = (statistics.mean(aois) - md1_average_aoi(rate, service)) / stderr
    assert abs(z) <= 4


# Dyadic values add up exactly in binary floating point, and each horizon
# lands on a reset, so the window holds whole periods of the sawtooth.
@pytest.mark.parametrize(
    "rate, service, latency, horizon, warmup",
    [(2, 0.125, 0, 100.125, 10), (4, 0.125, 0.25, 100.375, 10), (8, 0.0625, 0.5, 50.5625, 5)],
)
def test_dd1_average_aoi_is_exact(rate, service, latency, horizon, warmup):
    cfg = parse_config(
        TRANSMITTER_ONLY + f"total_rate = {rate}\ntransmit_time = {service}\n"
        f"comm_latency = fixed:{latency}\nhorizon = {horizon}\nwarmup = {warmup}\n"
        "replications = 1\n"
    )
    [summary] = run_replications(cfg)
    assert summary.avg_aoi == service + latency + 1 / (2 * rate)


# (total_rate, endorse_time, ordering_base, validate_block_overhead,
# validate_per_tx, block_size) and the exact average AoI.  In the last case
# rate * (ordering + validation) = 5 exactly, so the 5th transaction of a
# block ends its endorsement at the very instant the previous block commits.
PIPELINES = [
    ((4, 0.125, 0.0625, 0.125, 0.0625, 4), 1.5625),
    ((2, 0.25, 0, 0.5, 0.125, 3), 2.375),
    ((8, 0.0625, 0.125, 0.25, 0.03125, 8), 1.5625),
]


@pytest.mark.parametrize("model, expected", PIPELINES)
def test_deterministic_block_pipeline_average_aoi_is_exact(model, expected):
    """Periodic proposals at rate r, all on the tracked key, endorsed in e,
    cut by size into blocks of B, ordered in o and validated in v = a + b*B.

    Block n holds proposals (n-1)*B + 1 .. n*B and commits at
    n*B/r + e + o + v.  Block 1 sees no earlier commit, so its first
    transaction is valid.  In every later block, MVCC lets through only the
    first transaction whose endorsement sees the previous commit, the j*-th
    with j* = max(1, ceil(r*(o + v))); the rest are invalid.  So each commit
    resets the age to (B - j*)/r + e + o + v, one block period B/r apart,
    and the average age adds half a period.
    """
    rate, endorse, order, overhead, per_tx, size = model
    validate = overhead + per_tx * size
    first_valid = max(1, math.ceil(rate * (order + validate)))
    # The validator keeps up (v < B/r) and the timeout never cuts a block.
    # Same-instant events fire in scheduling order, so at a tie the commit
    # must have been scheduled first.  It is scheduled when the previous
    # block is ready, at (n-1)*B/r + e + o; the j*-th endorsement when that
    # proposal is generated, at ((n-1)*B + j*)/r.  So the condition is
    # e + o < j*/r.
    assert validate < size / rate and first_valid <= size
    assert endorse + order < first_valid / rate

    def commit(n):
        return n * size / rate + endorse + order + validate

    cfg = parse_config(
        f"target_ratio = 1\ncomm_latency = fixed:0\ntransmit_time = 0\ntimeout = 100\n"
        f"total_rate = {rate}\nendorse_time = fixed:{endorse}\nordering_base = {order}\n"
        f"ordering_per_kafka = 0\nvalidate_block_overhead = {overhead}\n"
        f"validate_per_tx = {per_tx}\nblock_size = {size}\nreplications = 1\n"
        # the first block is transient; the horizon lands on a commit
        f"warmup = {commit(2)!r}\nhorizon = {commit(500)!r}\n"
    )
    [summary] = run_replications(cfg)
    assert summary.avg_aoi == (
        (size - first_valid) / rate + endorse + order + validate + size / (2 * rate)
    ) == expected
    assert summary.mvcc_invalid_frac == pytest.approx((size - 1) / size, abs=1e-3)
