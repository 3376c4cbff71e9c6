"""One simulation run: wires workload, pipeline, ledger, and metrics together.

Generation stops at the horizon; the remaining events then drain so every
proposal resolves to exactly one outcome (valid, mvcc_invalid, vscc_invalid,
or lost) and the outcome counts partition the generated count.  Age resets
are only recorded up to the horizon, and statistics are taken on the path
restricted to [warmup, horizon].  The warmup never changes the run itself, so
a result keeps the whole path and can be re-windowed for any other warmup.

Events are tuples ``(time, seq, kind, payload)`` dispatched in (time, seq)
order by a single loop.  ``seq`` comes from one counter, taken at the moment
an event is scheduled, so same-instant events fire in the order they were
scheduled.  At most one generation and one transmission are ever pending;
each waits in its own slot outside the heap, and the slots and the heap
share the seq counter, so the order is the same as if all were on one heap.

A run allocates a few objects per proposal and builds no reference cycles,
so reference counting frees all of it; the cyclic garbage collector would
only rescan the live objects, over and over, and find nothing.  `run_once`
therefore pauses it for the duration of the run and restores the caller's
setting afterwards.  `test_simulation.py::test_run_leaves_no_cyclic_garbage`
guards the premise.
"""

import gc
import itertools
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .core import SimulationError, make_stream
from .ledger import LedgerState
from .metrics import AoISamplePath, LatencyBreakdown, latency_breakdown
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
    path: AoISamplePath  # restricted to [warmup, horizon]
    breakdown: LatencyBreakdown
    transactions: list  # every delivered Transaction, in delivery order
    lost: list  # (id, key, channel, gen_time) of dropped proposals
    n_generated: int
    n_delivered: int
    blocks_committed: int  # total over the whole run
    blocks_in_window: int  # committed inside [warmup, horizon]
    ledgers: list  # final LedgerState per channel
    full_path: AoISamplePath  # every reset up to the horizon
    block_times: list  # ascending commit times of the blocks committed by the horizon

    def window(self, warmup):
        """(path, blocks_in_window) as a run of the same model with this warmup reports them."""
        if warmup == self.path.start:
            return self.path, self.blocks_in_window
        path = self.full_path.restricted(warmup, self.path.end)
        return path, _count_from(self.block_times, warmup)


def _count_from(times, start):
    """Number of entries of an ascending list that are >= start."""
    return len(times) - bisect_left(times, start)


def run_once(cfg, seed, arrivals=None):
    """Single-threaded, deterministic run of one configuration and seed.

    `arrivals` bypasses the workload entirely: a list of
    (arrive_time, endorse_delay, key, gen_time) tuples injected straight into
    the endorsing phase of channel 0's pipeline (used by tests to drive the
    pipeline with a known sub-workload).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _simulate(cfg, seed, arrivals)
    finally:
        if collecting:
            gc.enable()


def _simulate(cfg, seed, arrivals):
    """The run itself; `run_once` calls it with the cyclic collector paused."""
    cfg.validate()
    src = cfg.source()
    params = cfg.chain()
    svc = cfg.services()
    horizon = cfg.horizon

    rng_gen = make_stream(seed, "generation")
    rng_key = make_stream(seed, "key-assign")
    rng_loss = make_stream(seed, "channel-loss")
    rng_comm = make_stream(seed, "comm-latency")
    rng_endorse = make_stream(seed, "endorse")
    rng_vscc = make_stream(seed, "vscc")
    rng_split = make_stream(seed, "channel-split")

    n_channels = params.n_channels
    ledgers = [LedgerState(c) for c in range(n_channels)]
    batches = [[] for _ in range(n_channels)]  # pending ordering batch per channel
    validating = [deque() for _ in range(n_channels)]  # blocks at the validator; head in service
    txq = TransmitterQueue(src.discipline)
    transactions = []
    lost = []
    block_times = []
    raw_path = AoISamplePath(0.0, horizon)

    key_random = rng_key.random
    target_ratio = src.target_ratio
    exponential = src.generation_mode == "exponential"
    expovariate = rng_gen.expovariate
    rate = src.total_rate
    period = 1.0 / rate
    stp = src.stp
    transmit_time = src.transmit_time
    comm = src.comm_latency
    endorse_max = svc.endorse_per_peer.sample_max
    n_endorsers = params.n_endorsers
    block_size = params.block_size
    timeout = params.timeout
    order_time = ordering_delay(params, svc)
    vscc_fail_prob = cfg.vscc_fail_prob

    heap = []  # endorse, timeout, block-ready and validation-complete events
    next_seq = itertools.count().__next__

    gen = tc = _IDLE  # the pending generation and transmit-complete events
    n_generated = 0
    if arrivals is None:
        first = expovariate(rate) if exponential else period
        if first <= horizon:
            gen = (first, next_seq(), _GENERATION, None)
    else:
        for arrive, delay, key, gen_time in arrivals:
            n_generated += 1
            tx = Transaction(n_generated, key, 0, gen_time, arrive)
            transactions.append(tx)
            heappush(heap, (arrive + delay, next_seq(), _ENDORSE_COMPLETE, tx))

    now = 0.0
    blocks_committed = 0
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

        if kind == _ENDORSE_COMPLETE:
            c = x.channel
            x.endorse_done = t
            x.captured_version = ledgers[c].read_version(x.key)
            batch = batches[c]
            batch.append(x)
            if len(batch) < block_size:
                if len(batch) == 1:
                    heappush(heap, (t + timeout, next_seq(), _TIMEOUT_FIRE, batch))
                continue
        elif kind <= _TRANSMIT_COMPLETE:
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
            if transmitted:
                if stp >= 1.0 or rng_loss.random() < stp:
                    arrive = t
                    if comm.value != 0.0:
                        arrive += comm.sample(rng_comm)
                    tx = Transaction(pid, key, c, gen_time, arrive)
                    transactions.append(tx)
                    done = arrive + endorse_max(rng_endorse, n_endorsers)
                    heappush(heap, (done, next_seq(), _ENDORSE_COMPLETE, tx))
                else:
                    lost.append((pid, key, c, gen_time))
            if kind == _GENERATION:
                nxt = t + expovariate(rate) if exponential else t + period
                gen = (nxt, next_seq(), _GENERATION, None) if nxt <= horizon else _IDLE
            elif txq:
                tc = (t + transmit_time, next_seq(), _TRANSMIT_COMPLETE, txq.pop())
            else:
                tc = _IDLE
            continue
        elif kind == _VALIDATION_COMPLETE:
            c = x.channel
            committed = commit_block(x, ledgers[c], t, vscc_fail_prob, rng_vscc)
            if t <= horizon:
                for tx in committed:
                    if tx.key == TARGET_KEY:
                        raw_path.record_commit(t, tx.gen_time)
                block_times.append(t)
            blocks_committed += 1
            queue = validating[c]
            queue.popleft()
            if queue:
                block = queue[0]
                done = t + validation_duration(svc, len(block.txs))
                heappush(heap, (done, next_seq(), _VALIDATION_COMPLETE, block))
            continue
        elif kind == _BLOCK_READY:
            queue = validating[x.channel]
            queue.append(x)
            if len(queue) == 1:  # the validator was idle
                done = t + validation_duration(svc, len(x.txs))
                heappush(heap, (done, next_seq(), _VALIDATION_COMPLETE, x))
            continue
        else:  # _TIMEOUT_FIRE: x is the batch that armed it
            batch = x
            c = batch[0].channel
            if batch is not batches[c]:
                continue  # stale: that batch was already cut by size
        # cut channel c's batch at t and hand the block to ordering
        batches[c] = []
        ready = t + order_time
        for tx in batch:
            tx.order_done = ready
        heappush(heap, (ready, next_seq(), _BLOCK_READY, Block(batch, t, c)))

    warmup = cfg.warmup
    return RunResult(
        path=raw_path.restricted(warmup, horizon),
        breakdown=latency_breakdown(transactions, len(lost), n_generated, TARGET_KEY),
        transactions=transactions,
        lost=lost,
        n_generated=n_generated,
        n_delivered=len(transactions),
        blocks_committed=blocks_committed,
        blocks_in_window=_count_from(block_times, warmup),
        ledgers=ledgers,
        full_path=raw_path,
        block_times=block_times,
    )
