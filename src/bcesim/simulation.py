"""One simulation run: wires workload, pipeline, ledger, and metrics together.

Generation stops at the horizon; the remaining events then drain so every
proposal resolves to exactly one outcome (valid, mvcc_invalid, vscc_invalid,
or lost) and the outcome counts partition the generated count.  Age resets
and block commit times are recorded up to the horizon.  A run reads no
measurement field (`warmup`, `target_aoi`): its record is the same for every
value of them, and `experiments.summarize` alone applies them to it.

Events are tuples ``(time, seq, kind, payload)`` dispatched in (time, seq)
order by a single loop.  ``seq`` comes from one counter, taken at the moment
an event is scheduled, so same-instant events fire in the order they were
scheduled.  At most one generation and one transmission are ever pending;
each waits in its own slot outside the heap, and the slots and the heap
share the seq counter, so the order is the same as if all were on one heap.

An event that a dispatch schedules due strictly before the pending
generation, the pending transmit-complete and the heap's head would be
dispatched next, so the same dispatch handles it at once and it never enters
the heap.  `_simulate` chains this way a delivered proposal's endorse-complete
(checked once the next generation or transmission is scheduled), a cut
block's block-ready and a block's validation-complete: where nothing after
the transmitter takes time, a proposal takes two dispatches, its generation
and its transmit-complete, and no heap push.  Nothing is scheduled between a
chained event and its handling, so every other event keeps its (time, seq)
order.  An event due at the very instant of a pending one still goes through
the heap: the pending one was scheduled first, so it goes first.

A run's caller says whether it needs the per-transaction record.  A full
run keeps every delivered transaction, every lost proposal and each
channel's ledger.  A lean run (``record=False``) keeps only what `summarize`
reads: the AoI resets, the block commit times, the outcome counts and the
target-key transactions, in delivery order, from which the latency means are
summed in the same order as from the full record.  A background key is its
proposal's unique id, never written before, so its MVCC check always passes:
a lean run neither reads nor writes it in the ledger, and lets the
transaction go when its block commits.  Outcomes are counted as blocks
commit, in either mode.

Runs that differ only in back fields (`config.BACK_FIELDS`) can share the
front of the pipeline: `bcesim.frontback` splits a run in two and documents
the tie rule that keeps the split run's event order equal to this loop's.

A run allocates a few objects per proposal and builds no reference cycles,
so reference counting frees all of it; the cyclic garbage collector would
only rescan the live objects, over and over, and find nothing.  `run_once`
therefore pauses it for the duration of the run and restores the caller's
setting when it returns.  `experiments._replicate` holds the pause longer:
from before the first run of a replication until its results have been
summarized (and traced) and dropped, so the collector never walks a result's
objects.  `test_simulation.py::test_run_leaves_no_cyclic_garbage` guards the
premise.
"""

import gc
import itertools
import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .core import SimulationError, make_stream
from .ledger import LedgerState
from .metrics import AoISamplePath, LatencyBreakdown, latency_means
from .pipeline import Block, Transaction, commit_block, ordering_delay, validation_duration
from .workload import TARGET_KEY, Proposal, TransmitterQueue

(
    _GENERATION,
    _TRANSMIT_COMPLETE,
    _ENDORSE_COMPLETE,
    _TIMEOUT_FIRE,
    _BLOCK_READY,
    _VALIDATION_COMPLETE,
) = range(6)

# An empty slot; it sorts after every event.
_IDLE = (math.inf, math.inf, None, None)


@dataclass
class RunResult:
    path: AoISamplePath  # every reset up to the horizon
    block_times: list  # ascending commit times of the blocks committed by the horizon
    blocks_committed: int  # total over the drained run
    breakdown: LatencyBreakdown  # latency means and every outcome count
    # `transactions`, `lost` and `ledgers` are None in a lean run.
    transactions: list | None  # every delivered Transaction, in delivery order
    lost: list | None  # (id, key, channel, gen_time) of dropped proposals
    ledgers: list | None  # final LedgerState per channel


def run_once(cfg, seed, record=True):
    """Single-threaded, deterministic run of one configuration and seed.

    With `record` false the run is lean: `transactions`, `lost` and
    `ledgers` are None, and every other field is as in a full run.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _simulate(cfg, seed, record)
    finally:
        if collecting:
            gc.enable()


def _simulate(cfg, seed, record):
    """The run itself, front and back in one loop; `run_once` calls it with
    the cyclic collector paused."""
    cfg.validate()
    horizon = cfg.horizon

    rng_gen = make_stream(seed, "generation")
    rng_key = make_stream(seed, "key-assign")
    rng_loss = make_stream(seed, "channel-loss")
    rng_comm = make_stream(seed, "comm-latency")
    rng_endorse = make_stream(seed, "endorse")
    rng_vscc = make_stream(seed, "vscc")
    rng_split = make_stream(seed, "channel-split")

    n_channels = cfg.n_channels
    ledgers = [LedgerState(c) for c in range(n_channels)]
    batches = [[] for _ in range(n_channels)]  # pending ordering batch per channel
    validating = [deque() for _ in range(n_channels)]  # blocks at the validator; head in service
    txq = TransmitterQueue(cfg.discipline)
    transactions = []  # every delivered transaction, or in a lean run the target-key ones
    lost = []
    versioned = None if record else TARGET_KEY  # the keys the ledgers hold
    block_times = []
    path = AoISamplePath(0.0, horizon)

    key_random = rng_key.random
    target_ratio = cfg.target_ratio
    exponential = cfg.generation_mode == "exponential"
    expovariate = rng_gen.expovariate
    rate = cfg.total_rate
    period = 1.0 / rate
    stp = cfg.stp
    transmit_time = cfg.transmit_time
    comm = cfg.comm_latency
    endorse_max = cfg.endorse_time.sample_max
    n_endorsers = cfg.n_endorsers
    block_size = cfg.block_size
    timeout = cfg.timeout
    order_time = ordering_delay(cfg)
    vscc_fail_prob = cfg.vscc_fail_prob

    heap = []  # endorse, timeout, block-ready and validation-complete events
    next_seq = itertools.count().__next__
    waiting = txq.heap  # nonempty while a proposal waits for the channel

    gen = tc = _IDLE  # the pending generation and transmit-complete events
    first = expovariate(rate) if exponential else period
    if first <= horizon:
        gen = (first, next_seq(), _GENERATION, None)

    now = 0.0
    n_generated = blocks_committed = 0
    n_lost = n_valid = n_mvcc_invalid = 0
    while True:
        ev = gen if gen < tc else tc
        if heap and heap[0] < ev:
            ev = heappop(heap)
        elif ev is _IDLE:
            break
        t, _, kind, x = ev
        if t < now:
            raise SimulationError(f"event at t={t} behind clock t={now}")
        now = t

        # The stages below follow the pipeline, in the order of the kinds; a
        # dispatch enters at its event's kind.  An event a stage schedules that
        # is due before every pending one is handled by the next stage at once
        # (see the module docstring); otherwise it goes on the heap.
        if kind <= _TRANSMIT_COMPLETE:
            # A proposal is generated, or its transmission ends.  With zero
            # transmit time a generated proposal's transmission ends at once.
            if kind == _GENERATION:
                n_generated += 1
                pid, gen_time = n_generated, t
                key = TARGET_KEY if key_random() < target_ratio else pid
                if key == TARGET_KEY or n_channels == 1:
                    c = 0
                else:
                    c = rng_split.randrange(n_channels)
                transmitted = transmit_time == 0.0
                if not transmitted:
                    prop = Proposal(pid, key, c, t)
                    if tc is _IDLE:
                        tc = (t + transmit_time, next_seq(), _TRANSMIT_COMPLETE, prop)
                    else:
                        txq.push(prop)
            else:
                pid, key, c, gen_time = x.id, x.key, x.channel, x.gen_time
                transmitted = True
            x = None  # the delivered transaction, if any
            if transmitted:
                if stp >= 1.0 or rng_loss.random() < stp:
                    arrive = t
                    if comm.value != 0.0:
                        arrive += comm.sample(rng_comm)
                    x = Transaction(pid, key, c, gen_time, arrive)
                    if record or key == TARGET_KEY:
                        transactions.append(x)
                    done = arrive + endorse_max(rng_endorse, n_endorsers)
                    seq = next_seq()  # before the next generation's or transmission's
                else:
                    n_lost += 1
                    if record:
                        lost.append((pid, key, c, gen_time))
            if kind == _GENERATION:
                nxt = t + expovariate(rate) if exponential else t + period
                gen = (nxt, next_seq(), _GENERATION, None) if nxt <= horizon else _IDLE
            elif waiting:
                tc = (t + transmit_time, next_seq(), _TRANSMIT_COMPLETE, txq.pop())
            else:
                tc = _IDLE
            if x is None:
                continue
            # due at or after a pending event: it waits its turn on the heap
            if done >= gen[0] or done >= tc[0] or heap and heap[0][0] <= done:
                heappush(heap, (done, seq, _ENDORSE_COMPLETE, x))
                continue
            now = t = done
            kind = _ENDORSE_COMPLETE

        if kind == _ENDORSE_COMPLETE:
            c = x.channel
            x.endorse_done = t
            if record or x.key == TARGET_KEY:
                x.captured_version = ledgers[c].read_version(x.key)
            batch = batches[c]
            batch.append(x)
            if len(batch) < block_size:
                if len(batch) == 1:
                    heappush(heap, (t + timeout, next_seq(), _TIMEOUT_FIRE, batch))
                continue
        elif kind == _TIMEOUT_FIRE:  # x is the batch that armed it
            batch = x
            c = batch[0].channel
            if batch is not batches[c]:
                continue  # stale: that batch was already cut by size
        if kind <= _TIMEOUT_FIRE:
            # cut channel c's batch at t and hand the block to ordering
            batches[c] = []
            ready = t + order_time
            for tx in batch:
                tx.order_done = ready
            x = Block(batch, t, c)
            if ready >= gen[0] or ready >= tc[0] or heap and heap[0][0] <= ready:
                heappush(heap, (ready, next_seq(), _BLOCK_READY, x))
                continue
            now = t = ready
            kind = _BLOCK_READY

        if kind == _BLOCK_READY:
            queue = validating[x.channel]
            queue.append(x)
            if len(queue) > 1:
                continue  # the validator is busy
            done = t + validation_duration(cfg, len(x.txs))
            if done >= gen[0] or done >= tc[0] or heap and heap[0][0] <= done:
                heappush(heap, (done, next_seq(), _VALIDATION_COMPLETE, x))
                continue
            now = t = done

        # _VALIDATION_COMPLETE: x is the block at the head of its validator
        c = x.channel
        committed, conflicts = commit_block(x, ledgers[c], t, vscc_fail_prob, rng_vscc, versioned)
        n_valid += len(committed)
        n_mvcc_invalid += conflicts
        if t <= horizon:
            for tx in committed:
                if tx.key == TARGET_KEY:
                    path.record_commit(t, tx.gen_time)
            block_times.append(t)
        blocks_committed += 1
        queue = validating[c]
        queue.popleft()
        if queue:
            block = queue[0]
            done = t + validation_duration(cfg, len(block.txs))
            heappush(heap, (done, next_seq(), _VALIDATION_COMPLETE, block))

    return _result(path, block_times, transactions, lost, ledgers, record,
                   n_generated, n_lost, n_valid, n_mvcc_invalid, blocks_committed)


def _result(path, block_times, transactions, lost, ledgers, record,
            n_generated, n_lost, n_valid, n_mvcc_invalid, blocks_committed):
    """The RunResult of a drained run, from what its loop kept and counted."""
    n_delivered = n_generated - n_lost  # the drained run resolved every delivery
    return RunResult(
        path=path,
        block_times=block_times,
        blocks_committed=blocks_committed,
        breakdown=LatencyBreakdown(
            *latency_means(transactions, TARGET_KEY),
            n_generated=n_generated,
            n_valid=n_valid,
            n_mvcc_invalid=n_mvcc_invalid,
            n_vscc_invalid=n_delivered - n_valid - n_mvcc_invalid,
            n_lost=n_lost,
        ),
        transactions=transactions if record else None,
        lost=lost if record else None,
        ledgers=ledgers if record else None,
    )
