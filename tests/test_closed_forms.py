"""Average AoI against closed forms.

With every proposal on the tracked key, blocks of one transaction and no
delay after the transmitter but a fixed communication latency, a proposal
commits the instant it arrives, so the transmitter queue alone sets the age
(the M/D/1 and D/D/1 forms from the AoI literature).  With fixed delays
throughout, the whole block pipeline is deterministic and its age follows
from the MVCC first-writer-wins rule, whether blocks are cut by size or by
the timeout.  With Poisson proposals, no delay but a fixed endorsement and
ordering, and blocks of one, MVCC first-wins makes the tracked key's valid
updates an M/D/1/1 blocking queue.  Two of these forms run through the split
run of a back-only sweep, so its front is checked against an answer from
outside the simulator.  With Poisson proposals, exponential endorsements and
nothing else but a fixed communication latency taking time, each update
commits at its own endorse-done and an overtaken one is obsolete: the M/G/inf
form, run through front sweeps, checks the endorsement, loss and channel-split
passes and the endorse-done order they share.  With periodic proposals in the
same setting, the D/G/inf form checks the lean back's numbers and channel
markers over a stream that endorsement has reordered.
"""

import math
import statistics

import pytest

from bcesim.config import parse_config
from bcesim.experiments import run_replications, run_sweep
from conftest import count_runs

TRANSMITTER_ONLY = (
    "target_ratio = 1\nblock_size = 1\nendorse_time = fixed:0\nordering_base = 0\n"
    "validate_block_overhead = 0\nvalidate_per_tx = 0\n"
)


def md1_average_aoi(rate, service):
    """FCFS M/D/1 average age (Kaul, Yates & Gruteser, CISS 2012)."""
    rho = rate * service
    return service * (1 / (2 * (1 - rho)) + 0.5 + (1 - rho) * math.exp(rho) / rho)


def _z(values, expected):
    """How many standard errors the mean of `values` lies from `expected`."""
    stderr = statistics.stdev(values) / math.sqrt(len(values))
    return (statistics.mean(values) - expected) / stderr


@pytest.mark.parametrize("rate", [2, 5, 8])  # rho = 0.2, 0.5, 0.8
def test_md1_fcfs_average_aoi(rate):
    service = 0.1
    cfg = parse_config(
        TRANSMITTER_ONLY + f"generation_mode = exponential\ntotal_rate = {rate}\n"
        f"transmit_time = {service}\nhorizon = 2000\nwarmup = 100\nreplications = 8\n"
        "master_seed = 2012\n"
    )
    aois = [s.avg_aoi for s in run_replications(cfg)]
    assert abs(_z(aois, md1_average_aoi(rate, service))) <= 4


def test_md1_fcfs_average_aoi_through_the_split_run(monkeypatch):
    # A timeout sweep at block size 1 runs one front per replication and one
    # back per value.  A block is cut by size the instant its proposal is
    # endorsed, so no timeout fires and both rows are the M/D/1 queue.
    rate, service = 5, 0.1
    cfg = parse_config(
        TRANSMITTER_ONLY + f"generation_mode = exponential\ntotal_rate = {rate}\n"
        f"transmit_time = {service}\nhorizon = 2000\nwarmup = 100\nreplications = 6\n"
        "master_seed = 2020\n"
    )
    calls = count_runs(monkeypatch)
    _, [summaries, again] = run_sweep(cfg, "timeout", [1.0, 2.0])
    assert (len(calls["run_front"]), len(calls["run_back"])) == (6, 12)
    assert summaries == again
    assert abs(_z([s.avg_aoi for s in summaries], md1_average_aoi(rate, service))) <= 4


def md11_blocking(rate, target_ratio, stp, endorse, order):
    """Average AoI and MVCC-invalid fraction of the tracked key when Poisson
    proposals at `rate` update it with probability target_ratio * stp, each
    endorsed in `endorse` and ordered in `order`, with nothing else taking time.

    Target updates arrive at mu = rate * target_ratio * stp.  An update is
    MVCC-invalid iff it reads the version before the previous valid update
    commits, so the valid ones are the accepted arrivals of an M/D/1/1
    blocking queue (Costa, Codreanu & Ephremides, IEEE Trans. IT 2016): their
    gaps are Y = order + Exp(mu).  Each valid update is e + o old when it
    commits, so the average age is e + o + E[Y^2] / (2 E[Y]) (Kaul, Yates &
    Gruteser, INFOCOM 2012), and the blocked ones, mu * o / E[Y] per second,
    are the invalid fraction of `rate`.
    """
    mu = rate * target_ratio * stp
    mean = order + 1 / mu
    square = order**2 + 2 * order / mu + 2 / mu**2
    return endorse + order + square / (2 * mean), mu * order / (rate * mean)


def test_mvcc_first_wins_is_an_md11_blocking_queue(monkeypatch):
    rate, target_ratio, stp, endorse = 10, 0.3, 0.5, 0.0125
    cfg = parse_config(
        "generation_mode = exponential\ncomm_latency = fixed:0\ntransmit_time = 0\n"
        "validate_block_overhead = 0\nvalidate_per_tx = 0\nblock_size = 1\n"
        f"total_rate = {rate}\ntarget_ratio = {target_ratio}\nstp = {stp}\n"
        f"endorse_time = fixed:{endorse}\nordering_per_kafka = 0\n"
        "horizon = 2000\nwarmup = 100\nreplications = 20\nmaster_seed = 2016\n"
    )
    calls = count_runs(monkeypatch)
    orders = [0.05, 0.2]
    _, per_value = run_sweep(cfg, "ordering_base", orders)
    assert (len(calls["run_front"]), len(calls["run_back"])) == (20, 40)
    for order, summaries in zip(orders, per_value):
        aoi, invalid = md11_blocking(rate, target_ratio, stp, endorse, order)
        assert abs(_z([s.avg_aoi for s in summaries], aoi)) <= 4, order
        assert abs(_z([s.mvcc_invalid_frac for s in summaries], invalid)) <= 4, order


def periodic_first_wins(rate, share, delay):
    """Average AoI of the tracked key when periodic proposals at `rate`
    update it with probability `share` = target_ratio * stp, each valid and
    `delay` old when it commits, with no queue anywhere.

    The gap between target updates is tau * Geometric(share), tau = 1/rate,
    so the average age is delay + E[Y^2] / (2 E[Y]) = delay +
    tau (2 - share) / (2 share) (Kaul, Yates & Gruteser, INFOCOM 2012).
    """
    return delay + (2 - share) / (2 * share * rate)


@pytest.mark.parametrize("param, values, other", [
    ("target_ratio", [0.3, 0.7], "stp = 0.5\n"),
    ("stp", [0.4, 0.8], "target_ratio = 0.5\n"),
])
def test_periodic_first_wins_through_a_front_sweep(param, values, other):
    # Blocks of one, endorsed in e, ordered in o and validated in v, with
    # o + v below the generation period: each update commits e + o + v after
    # its generation and before the next proposal reads the ledger, so none
    # is MVCC-invalid and no queue forms.  The values of a sweep over a front
    # key share every pass of the front that does not read that key.
    rate, endorse, order, validate = 10, 0.0125, 0.05, 0.025
    cfg = parse_config(
        "generation_mode = periodic\ncomm_latency = fixed:0\ntransmit_time = 0\n"
        f"block_size = 1\ntotal_rate = {rate}\nendorse_time = fixed:{endorse}\n"
        f"ordering_base = {order}\nordering_per_kafka = 0\n"
        f"validate_block_overhead = {validate}\nvalidate_per_tx = 0\n{other}"
        "horizon = 1000\nwarmup = 100\nreplications = 10\nmaster_seed = 2012\n"
    )
    _, per_value = run_sweep(cfg, param, values)
    for value, summaries in zip(values, per_value):
        share = value * getattr(cfg, "stp" if param == "target_ratio" else "target_ratio")
        aoi = periodic_first_wins(rate, share, endorse + order + validate)
        assert abs(_z([s.avg_aoi for s in summaries], aoi)) <= 4, value
        assert [s.mvcc_invalid_frac for s in summaries] == [0.0] * 10, value


def _sawtooth_tail_is_exact(cfg, floor, period):
    """Whether `violation_prob` at targets below, inside and above a
    sawtooth of floor `floor` and period `period` is exactly the fraction of
    time its age exceeds each target x: clamp((floor + period - x) / period,
    0, 1).  With dyadic times and a window of whole periods the path's sums
    are exact, and both sides round the one quotient."""
    targets = [floor / 2, floor + period / 4, floor + period / 2, floor + 3 * period / 4,
               floor + 2 * period]
    _, per_target = run_sweep(cfg, "target_aoi", targets)
    return [summary.violation_prob for [summary] in per_target] == [
        min(max((floor + period - x) / period, 0.0), 1.0) for x in targets]


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
    assert _sawtooth_tail_is_exact(cfg, service + latency, 1 / rate)


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
    floor = (size - first_valid) / rate + endorse + order + validate
    assert summary.avg_aoi == floor + size / (2 * rate) == expected
    assert _sawtooth_tail_is_exact(cfg, floor, size / rate)
    assert summary.mvcc_invalid_frac == pytest.approx((size - 1) / size, abs=1e-3)


# (total_rate, endorse_time, ordering_base, validate_block_overhead,
# validate_per_tx, timeout) and the exact average AoI.
TIMEOUT_CUTS = [
    ((4, 0.125, 0.125, 0.125, 0.0625, 0.625), 1.0625),
    ((2, 0.25, 0, 0.5, 0.125, 1.25), 2.125),
    ((8, 0.0625, 0.0625, 0.125, 0.03125, 0.3125), 0.59375),
    ((4, 0.125, 0, 0.0625, 0.0625, 0.375), 0.6875),
]


@pytest.mark.parametrize("model, expected", TIMEOUT_CUTS)
def test_timeout_cut_pipeline_average_aoi_is_exact(model, expected):
    """The pipeline above with blocks of up to 100, cut by a timeout T first.

    A block's first endorsement arms the timeout, and the endorsements of
    the next T join it: n = ceil(r*T) per block, as r*T is not an integer.
    Block m holds proposals (m-1)*n + 1 .. m*n and commits at
    1/r + e + (m-1)*n/r + T + o + v.  In every later block, MVCC lets
    through only the first transaction whose endorsement sees the previous
    commit, the one numbered j* = max(0, floor(r*(T + o + v) - n) + 1)
    from 0, so each commit resets the age to T + o + v + e - j*/r, n/r
    apart.  The sweep's second value shares each replication's front, so the
    first row runs through `run_back`.
    """
    rate, endorse, order, overhead, per_tx, timeout = model
    size = math.ceil(rate * timeout)
    validate = overhead + per_tx * size
    lag = rate * (timeout + order + validate) - size
    first_valid = max(0, math.floor(lag) + 1)
    # Neither the timeout nor the previous commit falls on an endorsement,
    # the validator keeps up, and some transaction of each block sees the
    # previous commit.
    assert rate * timeout != size and lag != math.floor(lag)
    assert validate < size / rate and first_valid <= size - 1

    def commit(m):
        return 1 / rate + endorse + (m - 1) * size / rate + timeout + order + validate

    cfg = parse_config(
        f"target_ratio = 1\ncomm_latency = fixed:0\ntransmit_time = 0\nblock_size = 100\n"
        f"total_rate = {rate}\nendorse_time = fixed:{endorse}\nordering_base = {order}\n"
        f"ordering_per_kafka = 0\nvalidate_block_overhead = {overhead}\n"
        f"validate_per_tx = {per_tx}\ntimeout = {timeout}\nreplications = 1\n"
        f"warmup = {commit(2)!r}\nhorizon = {commit(500)!r}\n"
    )
    _, [[summary], _] = run_sweep(cfg, "timeout", [timeout, 2 * timeout])
    floor = timeout + order + validate + endorse - first_valid / rate
    assert summary.avg_aoi == floor + size / (2 * rate) == expected
    assert _sawtooth_tail_is_exact(cfg, floor, size / rate)
    assert summary.mvcc_invalid_frac == pytest.approx((size - 1) / size, abs=1e-3)


def mg_infinity_average_aoi(rate, mean, n_endorsers, comm=0.0, steps=4000):
    """Average AoI of the tracked key when its updates arrive as a Poisson
    process at `rate` and each commits comm + the maximum of n_endorsers
    exponential endorsements of mean `mean` after its generation, with an
    overtaken update obsolete.

    This is an infinite-server system: the age exceeds x iff no update
    generated in the last x seconds has committed, so
    P(age > x) = exp(-rate * integral_0^x G(s) ds), with G the delay's CDF,
    and the average age is the integral of that over x >= 0 (Kam, Kompella &
    Ephremides, ISIT 2013: M/M/inf at n = 1).  With
    G(s) = (1 - e^{-(s - comm)/mean})^n for s >= comm and 0 before, the inner
    integral is y + sum_{k=1..n} C(n, k) (-1)^k (mean / k) (1 - e^{-k y / mean}),
    y = x - comm; the outer one is Simpson's rule up to where the tail is
    below e^-40.
    """
    n = n_endorsers

    def tail(y):
        inner = y + sum(math.comb(n, k) * (-1) ** k * mean / k * -math.expm1(-k * y / mean)
                        for k in range(1, n + 1))
        return math.exp(-rate * inner)

    end = mean * sum(1 / k for k in range(1, n + 1)) + 40 / rate
    h = end / steps
    weights = [1] + [4 if i % 2 else 2 for i in range(1, steps)] + [1]
    return comm + h / 3 * sum(w * tail(i * h) for i, w in enumerate(weights))


def test_mg_infinity_form_is_the_mm_infinity_series_at_one_endorser():
    # At n = 1 and no comm latency the form has the series
    # e^rho sum_k (-rho)^k / (k! (rate + k mu)), mu = 1/mean, rho = rate/mu.
    for rate, mean in [(3.0, 0.5), (10.0, 0.5), (1.0, 2.0)]:
        mu = 1 / mean
        rho = rate / mu
        series = math.exp(rho) * sum(
            (-rho) ** k / (math.factorial(k) * (rate + k * mu)) for k in range(80)
        )
        assert mg_infinity_average_aoi(rate, mean, 1) == pytest.approx(series, rel=1e-9)


# Poisson proposals at 10/s, endorsed by exponential peers of mean 0.5 s
# (about five endorsements in flight, so they overtake each other often),
# in blocks of one with nothing else taking time.
ENDORSEMENT_ONLY = (
    "generation_mode = exponential\ntotal_rate = 10\ntransmit_time = 0\n"
    "endorse_time = exp:0.5\nblock_size = 1\nordering_base = 0\nordering_per_kafka = 0\n"
    "validate_block_overhead = 0\nvalidate_per_tx = 0\n"
    "horizon = 500\nwarmup = 50\nreplications = 20\nmaster_seed = 2013\n"
)


@pytest.mark.parametrize("param, values, other", [
    ("n_endorsers", [1, 3], "target_ratio = 0.3\n"),
    ("stp", [0.5, 1.0], "target_ratio = 0.6\nn_endorsers = 2\n"),
    # The channel split draws for background keys only, so the tracked key's
    # age is the same on one channel and on two.
    ("n_channels", [1, 2], "target_ratio = 0.3\ncomm_latency = fixed:0.25\n"),
], ids=["n_endorsers", "stp", "n_channels"])
def test_endorsement_reordering_is_an_mg_infinity_system(param, values, other):
    cfg = parse_config(ENDORSEMENT_ONLY + other)
    _, per_value = run_sweep(cfg, param, values)
    for value, summaries in zip(values, per_value):
        run = cfg.replace(**{param: value})
        aoi = mg_infinity_average_aoi(run.total_rate * run.target_ratio * run.stp,
                                      run.endorse_time.value, run.n_endorsers,
                                      run.comm_latency.value)
        assert abs(_z([s.avg_aoi for s in summaries], aoi)) <= 4, value
        # each update reads the version its predecessors' commits left
        assert [s.mvcc_invalid_frac for s in summaries] == [0.0] * 20, value


def dg_infinity_average_aoi(rate, share, cdf, steps=16):
    """Average AoI of the tracked key when proposals are generated
    periodically at `rate`, each is a tracked update with probability
    `share` = target_ratio * stp, and each update commits a delay with CDF
    `cdf` after its generation, with an overtaken update obsolete.

    Given the time u in (0, tau] since the last generation, tau = 1/rate,
    the generations before it are u + j tau old, and the age exceeds x iff
    none of those younger than x is an update that has committed:
    P(age > x | u) = prod_{j >= 0, u + j tau < x} (1 - share G(u + j tau)).
    The product is constant between those ages, so its integral over x is
    u + tau sum_{k >= 1} P_k(u), with P_k(u) = prod_{j < k} (1 - share G(u + j tau)),
    and averaging over u uniform on (0, tau] gives
    tau / 2 + integral_0^tau sum_k P_k(u) du (Simpson's rule in u).
    """
    tau = 1 / rate

    def series(u):
        total, p, j = 0.0, 1.0, 0
        while p > 1e-16:
            p *= 1 - share * cdf(u + j * tau)
            total += p
            j += 1
        return total

    h = tau / steps
    weights = [1] + [4 if i % 2 else 2 for i in range(1, steps)] + [1]
    return tau / 2 + h / 3 * sum(w * series(i * h) for i, w in enumerate(weights))


def test_dg_infinity_form_is_the_periodic_first_wins_form_at_a_fixed_delay():
    # A fixed delay D is a step CDF, and then no update overtakes another.
    # Simpson's rule is only first-order across the step, hence the grid.
    for rate, share, delay in [(10.0, 0.3, 0.0875), (4.0, 1.0, 0.6), (2.0, 0.5, 1.3)]:
        aoi = dg_infinity_average_aoi(rate, share, lambda s: float(s >= delay), steps=4096)
        assert aoi == pytest.approx(periodic_first_wins(rate, share, delay), rel=1e-3)


@pytest.mark.parametrize("target_ratio", [0.3, 1.0])
def test_periodic_endorsement_reordering_is_a_dg_infinity_system(target_ratio):
    # Periodic proposals, endorsed as in ENDORSEMENT_ONLY.  At target_ratio 1
    # a lean front keeps every endorsement, and its stream is the endorse-done
    # order of their numbers; below it, background endorsements are their
    # channel's marker in that stream.
    cfg = parse_config(ENDORSEMENT_ONLY.replace("exponential", "periodic")
                       + f"target_ratio = {target_ratio}\n")
    mean = cfg.endorse_time.value
    _, per_value = run_sweep(cfg, "n_endorsers", [1, 3])
    for n, summaries in zip([1, 3], per_value):
        aoi = dg_infinity_average_aoi(cfg.total_rate, target_ratio * cfg.stp,
                                      lambda s: (-math.expm1(-s / mean)) ** n)
        assert abs(_z([s.avg_aoi for s in summaries], aoi)) <= 4, n
        assert [s.mvcc_invalid_frac for s in summaries] == [0.0] * 20, n
