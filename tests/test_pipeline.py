"""Pipeline phase tests, driven by injected arrivals (a back over
`des_oracle.arrivals_front`) so each case controls exactly which transactions
enter the endorsing phase."""

import dataclasses
import re

import pytest

from bcesim.config import paper_default
from bcesim.core import SimulationError
from bcesim.dists import Delay
from bcesim.frontback import MVCC_INVALID, TARGET_KEY, VALID, VSCC_INVALID, run_back
from bcesim.simulation import run_once
from des_oracle import arrivals_front, entries, final_ledgers, read_version, transactions


def _inject(cfg, arrivals):
    """A full-record run of the pipeline over injected arrivals, each
    (arrive_time, endorse_delay, key, gen_time), on channel 0."""
    return run_back(cfg, 1, arrivals_front(arrivals))


def _cfg(**overrides):
    base = dict(
        horizon=1000.0,
        warmup=0.0,
        endorse_time=Delay("fixed", 0.02),
        ordering_base=0.05,
        ordering_per_kafka=0.02,
        validate_block_overhead=0.08,
        validate_per_tx=0.015,
    )
    base.update(overrides)
    return paper_default().replace(**base)


def test_fixed_endorsement_delay():
    cfg = _cfg(block_size=1)
    result = _inject(cfg, [(1.0, 0.02, TARGET_KEY, 0.9)])
    (tx,) = transactions(result)
    assert tx.endorse_done == pytest.approx(1.02)


def test_size_triggered_block_cut():
    cfg = _cfg(block_size=3, timeout=2.0)
    arrivals = [(t, 0.0, TARGET_KEY, t) for t in (0.5, 0.6, 0.7)]
    result = _inject(cfg, arrivals)
    # cut at 0.7, ordering adds 0.05 at the 4-node minimum
    assert all(tx.order_done == pytest.approx(0.75) for tx in transactions(result))
    assert result.blocks_committed == 1


def test_timeout_cuts_underfull_block():
    cfg = _cfg(block_size=10, timeout=2.0)
    result = _inject(cfg, [(0.5, 0.0, TARGET_KEY, 0.4)])
    (tx,) = transactions(result)
    assert tx.order_done == pytest.approx(2.55)  # cut at 0.5 + T, plus ordering


def test_block_size_one_is_per_transaction_blocks():
    cfg = _cfg(block_size=1, timeout=5.0)
    arrivals = [(float(i), 0.0, TARGET_KEY, float(i)) for i in range(1, 4)]
    result = _inject(cfg, arrivals)
    assert result.blocks_committed == 3
    assert [tx.order_done for tx in transactions(result)] == pytest.approx(
        [1.05, 2.05, 3.05]
    )


def test_two_lone_transactions_two_timeout_blocks():
    cfg = _cfg(block_size=10, timeout=2.0)
    arrivals = [(1.0, 0.0, TARGET_KEY, 0.9), (10.0, 0.0, TARGET_KEY, 9.9)]
    result = _inject(cfg, arrivals)
    assert result.blocks_committed == 2
    assert [tx.order_done for tx in transactions(result)] == pytest.approx([3.05, 12.05])


def test_stale_timeout_is_ignored_after_size_cut():
    cfg = _cfg(block_size=2, timeout=2.0)
    # batch fills at 1.5 and is cut by size; its armed deadline at 3.0 is stale
    arrivals = [
        (1.0, 0.0, TARGET_KEY, 0.9),
        (1.5, 0.0, TARGET_KEY, 1.4),
        (4.0, 0.0, TARGET_KEY, 3.9),
    ]
    result = _inject(cfg, arrivals)
    assert result.blocks_committed == 2
    assert transactions(result)[0].order_done == pytest.approx(1.55)
    assert transactions(result)[2].order_done == pytest.approx(6.05)  # own timeout at 6.0


def test_ordering_time_is_affine_in_kafka_count():
    for n_kafka, expected in [(4, 2.05), (5, 2.07)]:
        cfg = _cfg(block_size=1, n_kafka=n_kafka)
        result = _inject(cfg, [(2.0, 0.0, TARGET_KEY, 1.9)])
        assert transactions(result)[0].order_done == pytest.approx(expected)


def _updates(n):
    """n updates of the target key, each endorsed after the previous one commits."""
    return [(5.0 * i, 0.0, TARGET_KEY, 5.0 * i - 0.1) for i in range(1, n + 1)]


def test_mvcc_valid_update_bumps_version():
    # the sixth update reads version 5, which is still current when it commits
    result = _inject(_cfg(block_size=1, timeout=5.0), _updates(6))
    tx = transactions(result)[-1]
    assert (tx.captured_version, tx.validity) == (5, VALID)
    assert read_version(final_ledgers(result)[0], TARGET_KEY) == 6


def test_mvcc_version_mismatch_marks_invalid_and_preserves_state():
    # two updates read version 5 before either commits; the first one's
    # commit makes it 6, so the second one is invalid and changes nothing
    arrivals = _updates(5) + [(30.0, 0.0, TARGET_KEY, 29.9), (30.01, 0.0, TARGET_KEY, 29.95)]
    result = _inject(_cfg(block_size=1, timeout=5.0), arrivals)
    first, second = transactions(result)[-2:]
    assert first.captured_version == second.captured_version == 5
    assert (first.validity, second.validity) == (VALID, MVCC_INVALID)
    assert entries(final_ledgers(result)[0]) == {TARGET_KEY: (6, 29.9)}


def test_first_wins_within_a_block():
    # two updates that read version 5 are cut into one block: the first is
    # valid, and the second conflicts with it
    arrivals = _updates(5) + [(30.0, 0.0, TARGET_KEY, 29.9), (30.01, 0.0, TARGET_KEY, 29.95)]
    result = _inject(_cfg(block_size=2, timeout=0.5), arrivals)
    first, second = transactions(result)[-2:]
    assert first.commit_time == second.commit_time
    assert first.captured_version == second.captured_version == 5
    assert (first.validity, second.validity) == (VALID, MVCC_INVALID)
    assert read_version(final_ledgers(result)[0], TARGET_KEY) == 6


def test_a_repeated_background_key_is_refused():
    # A background key is its proposal's own, so only the target key repeats.
    with pytest.raises(ValueError, match="background key repeats"):
        arrivals_front([(1.0, 0.0, 7, 0.9), (2.0, 0.0, TARGET_KEY, 1.9), (3.0, 0.0, 7, 2.9)])


def test_only_the_versioned_key_touches_the_ledger():
    # A lean back stands a background endorsement in by its channel's marker:
    # it never reads or writes the ledger, and is valid once it commits.
    cfg = _cfg(block_size=2, timeout=5.0)
    front = arrivals_front([(1.0, 0.0, 7, 0.9), (1.0, 0.0, TARGET_KEY, 0.95)])
    full = run_back(cfg, 1, front)
    assert [tx.validity for tx in transactions(full)] == [VALID, VALID]
    assert entries(final_ledgers(full)[0]) == {7: (1, 0.9), TARGET_KEY: (1, 0.95)}
    # the lean front keeps the target-key endorsement only, as its number 0
    lean = run_back(cfg, 1, dataclasses.replace(
        front, stream=[-1, 0], gen_time=front.gen_time[1:], arrive_time=front.arrive_time[1:],
        endorse_done=front.endorse_done[1:], id=None, key=None, channel=None, lost=None,
    ))
    assert (lean.columns, lean.lost) == (None, None)
    assert lean.breakdown == full.breakdown and lean.path.resets == full.path.resets


@pytest.mark.parametrize("where", ["at its cut", "after waiting its turn"])
def test_a_commit_at_its_generation_instant_is_an_error(where):
    # Nothing after the transmitter takes time, so an update endorsed at its
    # generation instant commits at that instant, which the back must refuse.
    # Alone at that instant its block commits at its cut; with a second
    # endorsement due then, the block waits for commit behind it.
    cfg = _cfg(transmit_time=0.1, endorse_time=Delay("fixed", 0.0), ordering_base=0.0,
               ordering_per_kafka=0.0, validate_block_overhead=0.0, validate_per_tx=0.0,
               block_size=1)
    late = (1.0, 0.0, TARGET_KEY, 1.0)
    arrivals = {
        "at its cut": [(0.5, 0.25, TARGET_KEY, 0.25), late],
        "after waiting its turn": [late, (1.0, 0.0, 7, 0.5)],
    }[where]
    with pytest.raises(SimulationError,
                       match=re.escape("commit time 1.0 not after generation time 1.0")):
        _inject(cfg, arrivals)


def test_cross_block_staleness_detected_end_to_end():
    cfg = _cfg(block_size=1, timeout=5.0)
    # second update endorses before the first commits, so it captures version 0
    arrivals = [(1.0, 0.0, TARGET_KEY, 0.9), (1.01, 0.0, TARGET_KEY, 1.0)]
    result = _inject(cfg, arrivals)
    assert [tx.validity for tx in transactions(result)] == [VALID, MVCC_INVALID]
    assert read_version(final_ledgers(result)[0], TARGET_KEY) == 1


def test_committed_same_key_updates_count_versions():
    cfg = _cfg(block_size=1, timeout=5.0)
    # spaced far enough apart that each sees the previous commit
    arrivals = [(5.0 * i, 0.0, TARGET_KEY, 5.0 * i - 0.1) for i in range(1, 9)]
    result = _inject(cfg, arrivals)
    assert all(tx.validity == VALID for tx in transactions(result))
    assert read_version(final_ledgers(result)[0], TARGET_KEY) == 8


def test_vscc_failure_blocks_ledger_update():
    cfg = _cfg(block_size=1, timeout=5.0, vscc_fail_prob=1.0)
    result = _inject(cfg, [(1.0, 0.0, TARGET_KEY, 0.9)])
    assert transactions(result)[0].validity == VSCC_INVALID
    assert read_version(final_ledgers(result)[0], TARGET_KEY) == 0


def test_block_size_bound_and_timeout_wait():
    cfg = paper_default().replace(horizon=300.0, warmup=0.0, block_size=7, timeout=0.4)
    result = run_once(cfg, 3)
    blocks = {}
    for tx in transactions(result):
        if tx.commit_time is not None:
            blocks.setdefault((tx.channel, tx.commit_time), []).append(tx)
    assert blocks
    for txs in blocks.values():
        assert 1 <= len(txs) <= 7
        first_submit = min(tx.endorse_done for tx in txs)
        cut = min(tx.order_done for tx in txs) - 0.05  # ordering delay at 4 nodes
        assert cut <= first_submit + 0.4 + 1e-9


def test_validation_station_serializes_blocks():
    cfg = paper_default().replace(horizon=300.0, warmup=0.0, block_size=3)
    result = run_once(cfg, 4)
    blocks = {}
    for tx in transactions(result):
        if tx.commit_time is not None:
            blocks.setdefault((tx.channel, tx.commit_time), []).append(tx)
    per_channel = {}
    for (channel, commit), txs in sorted(blocks.items(), key=lambda kv: kv[0][1]):
        per_channel.setdefault(channel, []).append((commit, txs))
    for seq in per_channel.values():
        prev_commit = 0.0
        prev_ready = 0.0
        for commit, txs in seq:
            ready = txs[0].order_done
            assert ready >= prev_ready - 1e-9  # commit order follows cut order
            duration = cfg.validate_block_overhead + cfg.validate_per_tx * len(txs)
            start = commit - duration
            assert start >= prev_commit - 1e-9  # service intervals never overlap
            prev_commit = commit
            prev_ready = ready


def test_phase_timestamps_monotone_for_committed_transactions():
    cfg = paper_default().replace(
        horizon=300.0, warmup=0.0, stp=0.8, transmit_time=0.002
    )
    result = run_once(cfg, 5)
    committed = [tx for tx in transactions(result) if tx.commit_time is not None]
    assert committed
    for tx in committed:
        assert (
            tx.gen_time
            <= tx.arrive_time
            <= tx.endorse_done
            <= tx.order_done
            <= tx.commit_time
        )
