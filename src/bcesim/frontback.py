"""A run split in two, so that runs differing only in back fields share
one front.

Generation, key assignment, channel split, transmission, loss, comm latency
and endorsement (the front) never depend on block cutting, ordering,
validation or VSCC (the back): the back only consumes endorse-done events
and reads the ledger as it does.  So runs that differ only in back fields
(`config.BACK_FIELDS`) can share one front: `run_front` dispatches the
generation and transmit-complete slots of `simulation._simulate` alone and
returns the endorsements in endorse-done dispatch order, and `run_back`
merges that stream with its own heap of timeout, block-ready and
validation-complete events.  The tie rule that keeps the merged order equal
to the one loop's (time, seq) order:

- Slot dispatches are numbered 0, 1, ... in dispatch order.  The front
  records each one's time and the number of the slot dispatch that
  scheduled it (-1 for the first generation, scheduled before the loop).
- Each endorsement carries `slot`, the slot dispatch that delivered it, and
  `n_before`, the number of slot dispatches before its own endorse-done
  dispatch.  Injected arrivals carry a negative `slot`.
- Each back event carries N, the number of slot dispatches before the
  dispatch that scheduled it: the `n_before` of an endorse-done dispatch,
  or, for a back dispatch at t whose own event carries n, the slot
  dispatches at times < t plus those at t scheduled by a slot dispatch
  numbered < n.
- A seq is taken when an event is scheduled, so slot dispatch r (and every
  event it scheduled) precedes back event z iff r < N(z).  At a tie the
  next endorsement goes first iff its `slot` < N of the heap head;
  endorsements keep their own (time, seq) order among themselves, and back
  events theirs.

Neither half chains events as `_simulate` does.  A replication with one back
config runs the one loop of `run_once`: front plus back took 1.2-1.3x its
time at paper defaults (block sizes 10 and 1) and 1.4-1.55x on the M/D/1
configs of the benchmark's md1_channel workload (lean runs, medians of 6
seeds, Python 3.11, 2 cores), because the endorsement stream is built and
then read back.  A sweep over back fields pays that once per replication and
saves the front, about two thirds of a paper-default run, on every further
value.

`arrivals_front` builds a front from a list of injected endorsements, so
tests can drive the back with a known sub-workload.  Only a sweep over back
fields needs this module, so `bcesim.experiments` imports it on first use:
every other run starts without loading it.
"""

import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .core import SimulationError, make_stream
from .ledger import LedgerState
from .metrics import AoISamplePath
from .pipeline import Block, Transaction, commit_block, ordering_delay, validation_duration
from .simulation import _BLOCK_READY, _IDLE, _TIMEOUT_FIRE, _VALIDATION_COMPLETE, _result
from .workload import TARGET_KEY, Proposal, TransmitterQueue


@dataclass
class Front:
    """The endorsements of one run, in endorse-done dispatch order, with what
    a back needs to merge them with its own events exactly.

    `stream[i]` is endorsement i's Transaction, with `endorse_done` stamped;
    in a lean front a background endorsement is its channel marker
    -1 - channel instead.  `done`, `slot` and `n_before` hold its endorse-done
    time, the slot dispatch that delivered it and the slot dispatches before
    its own dispatch; `slot_time` and `slot_sched` hold each slot dispatch's
    time and the number of the slot dispatch that scheduled it.
    `transactions` and `lost` are as in RunResult; a lean front keeps the
    target-key transactions only, and no `lost`.
    """

    stream: list
    done: array
    slot: array
    n_before: array
    slot_time: array
    slot_sched: array
    transactions: list
    lost: list | None
    n_generated: int
    n_lost: int


def run_front(cfg, seed, record=False):
    """Generation through endorsement of one run.

    It makes every draw of the generation, key-assign, channel-split,
    channel-loss, comm-latency and endorse streams that `run_once` makes, in
    the same order, so `run_back` over it gives `run_once`'s result.  With
    `record` false it builds a Transaction for target-key endorsements only.
    """
    cfg.validate()
    horizon = cfg.horizon

    rng_gen = make_stream(seed, "generation")
    rng_key = make_stream(seed, "key-assign")
    rng_loss = make_stream(seed, "channel-loss")
    rng_comm = make_stream(seed, "comm-latency")
    rng_endorse = make_stream(seed, "endorse")
    rng_split = make_stream(seed, "channel-split")

    n_channels = cfg.n_channels
    txq = TransmitterQueue(cfg.discipline)
    stream = []
    # 32-bit counts: a run past 2**31 slot dispatches raises OverflowError.
    done, slot, n_before = array("d"), array("i"), array("i")
    slot_time, slot_sched = array("d"), array("i")
    transactions = []
    lost = []

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

    heap = []  # endorsements not yet done: (done, seq, delivering slot, tx or marker)
    next_seq = itertools.count().__next__
    waiting = txq.heap  # nonempty while a proposal waits for the channel

    # The pending generation and transmit-complete events, as
    # (time, seq, number of the slot dispatch that scheduled it, payload).
    gen = tc = _IDLE
    first = expovariate(rate) if exponential else period
    if first <= horizon:
        gen = (first, next_seq(), -1, None)

    r = n_generated = n_lost = 0  # r: the slot dispatches so far
    while True:
        ev = gen if gen < tc else tc
        while heap and heap[0] < ev:  # endorse-done dispatches before slot dispatch r
            t, _, s, x = heappop(heap)
            done.append(t)
            slot.append(s)
            n_before.append(r)
            stream.append(x)
        if ev is _IDLE:
            break
        t, _, sched, x = ev
        slot_time.append(t)
        slot_sched.append(sched)
        if ev is gen:
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
                    tc = (t + transmit_time, next_seq(), r, prop)
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
                endorsed = arrive + endorse_max(rng_endorse, n_endorsers)
                if record or key == TARGET_KEY:
                    tx = Transaction(pid, key, c, gen_time, arrive)
                    tx.endorse_done = endorsed
                    transactions.append(tx)
                else:
                    tx = -1 - c
                heappush(heap, (endorsed, next_seq(), r, tx))
            else:
                n_lost += 1
                if record:
                    lost.append((pid, key, c, gen_time))
        if ev is gen:
            nxt = t + expovariate(rate) if exponential else t + period
            gen = (nxt, next_seq(), r, None) if nxt <= horizon else _IDLE
        elif waiting:
            tc = (t + transmit_time, next_seq(), r, txq.pop())
        else:
            tc = _IDLE
        r += 1

    return Front(stream, done, slot, n_before, slot_time, slot_sched, transactions,
                 lost if record else None, n_generated, n_lost)


def arrivals_front(arrivals):
    """A full-record front whose endorsements are the injected arrivals, each
    (arrive_time, endorse_delay, key, gen_time), on channel 0, ahead of every
    back event at the same instant (they were all scheduled before the run).
    Keys may repeat, so only a full-record back runs over it."""
    transactions = []
    for tid, (arrive, delay, key, gen_time) in enumerate(arrivals, 1):
        tx = Transaction(tid, key, 0, gen_time, arrive)
        tx.endorse_done = arrive + delay
        transactions.append(tx)
    stream = sorted(transactions, key=lambda tx: tx.endorse_done)  # stable: ties in order
    n = len(stream)
    return Front(stream, array("d", [tx.endorse_done for tx in stream]), array("i", [-1]) * n,
                 array("i", [0]) * n, array("d"), array("i"), transactions, [], n, 0)


def run_back(cfg, seed, front, record=False):
    """Batching through commit of one run over a front of the same seed and
    of a config that differs from `cfg` in back fields only.

    The result equals `run_once(cfg, seed, record=record)`.  A full-record
    back needs a full-record front and stamps that front's Transactions, so
    such a front serves one back.  A lean front serves any number of lean
    backs: each back rewrites `captured_version`, `order_done`, `commit_time`
    and `validity` of every kept Transaction, since every endorsement is
    committed in the drained run, and a lean RunResult holds none of them.
    """
    cfg.validate()
    horizon = cfg.horizon
    rng_vscc = make_stream(seed, "vscc")

    n_channels = cfg.n_channels
    ledgers = [LedgerState(c) for c in range(n_channels)]
    batches = [[] for _ in range(n_channels)]
    validating = [deque() for _ in range(n_channels)]
    versioned = None if record else TARGET_KEY
    block_times = []
    path = AoISamplePath(0.0, horizon)
    # A lean front's background endorsement on channel c is the marker
    # -1 - c; it is batched and committed as that channel's placeholder.
    background = [Transaction(None, None, c, None, None) for c in reversed(range(n_channels))]

    block_size = cfg.block_size
    timeout = cfg.timeout
    order_time = ordering_delay(cfg)
    vscc_fail_prob = cfg.vscc_fail_prob

    stream, done, slot, n_before = front.stream, front.done, front.slot, front.n_before
    slot_time, slot_sched = front.slot_time, front.slot_sched
    n_slots = len(slot_time)
    n_endorsed = len(stream)
    i = 0  # the next endorsement
    next_done = done[0] if n_endorsed else math.inf

    heap = []  # (time, seq, kind, payload, N) of timeout, block-ready and validation events
    next_seq = itertools.count().__next__

    now = 0.0
    blocks_committed = n_valid = n_mvcc_invalid = 0
    while True:
        if heap and (heap[0][0] < next_done
                     or heap[0][0] == next_done and slot[i] >= heap[0][4]):
            t, _, kind, x, n = heappop(heap)
            if t < now:
                raise SimulationError(f"event at t={t} behind clock t={now}")
            now = t
            # N of the events this dispatch schedules.  It lies between the
            # n_before of the last endorsement taken and of the next one.
            lo = n_before[i - 1] if i else 0
            hi = n_before[i] if i < n_endorsed else n_slots
            m = bisect_left(slot_time, t, lo, hi)
            if m < hi and slot_time[m] == t:
                m = bisect_left(slot_sched, n, m, bisect_right(slot_time, t, m, hi))

            if kind == _VALIDATION_COMPLETE:
                c = x.channel
                committed, conflicts = commit_block(
                    x, ledgers[c], t, vscc_fail_prob, rng_vscc, versioned
                )
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
                    end = t + validation_duration(cfg, len(block.txs))
                    heappush(heap, (end, next_seq(), _VALIDATION_COMPLETE, block, m))
                continue
            if kind == _BLOCK_READY:
                queue = validating[x.channel]
                queue.append(x)
                if len(queue) == 1:  # the validator was idle
                    end = t + validation_duration(cfg, len(x.txs))
                    heappush(heap, (end, next_seq(), _VALIDATION_COMPLETE, x, m))
                continue
            # _TIMEOUT_FIRE: x is the batch that armed it
            batch = x
            c = batch[0].channel
            if batch is not batches[c]:
                continue  # stale: that batch was already cut by size
        elif i < n_endorsed:
            t = next_done
            if t < now:
                raise SimulationError(f"event at t={t} behind clock t={now}")
            now = t
            x = stream[i]
            if x.__class__ is int:
                x = background[x]
            c = x.channel
            if record or x.key == TARGET_KEY:
                x.captured_version = ledgers[c].read_version(x.key)
            m = n_before[i]
            i += 1
            next_done = done[i] if i < n_endorsed else math.inf
            batch = batches[c]
            batch.append(x)
            if len(batch) < block_size:
                if len(batch) == 1:
                    heappush(heap, (t + timeout, next_seq(), _TIMEOUT_FIRE, batch, m))
                continue
        else:
            break
        # cut channel c's batch at t and hand the block to ordering
        batches[c] = []
        ready = t + order_time
        for tx in batch:
            tx.order_done = ready
        heappush(heap, (ready, next_seq(), _BLOCK_READY, Block(batch, t, c), m))

    return _result(path, block_times, front.transactions, front.lost, ledgers, record,
                   front.n_generated, front.n_lost, n_valid, n_mvcc_invalid, blocks_committed)
