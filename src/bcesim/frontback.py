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

Each half does only the dispatches that can change the run.  Three rules
leave out the others and keep the (time, seq) order:

- The front chains endorse-done as `_simulate` does.  An endorsement that
  slot dispatch r makes due strictly before the pending generation, the
  pending transmit-complete and the heap's head would be the next dispatch,
  so it goes onto the stream at once, with `slot` r and `n_before` r + 1.
  A tie goes through the heap, where the earlier-scheduled event goes first.
- A channel keeps at most one timeout on the heap.  A batch still takes its
  timeout's key (time, seq, N) when it starts, but the key is pushed only if
  the channel has no timeout on the heap.  When a stale timeout pops and the
  channel's batch is non-empty, that batch's stored key is pushed.  That key
  is no smaller than the popped one, so no event ordered after it has been
  dispatched yet, and it keeps its seq and N: every later comparison with it
  comes out as if it had been on the heap since it was taken.
- A block joins a busy validator at its cut.  The back keeps when the last
  block queued at each channel's validator completes, summed as the
  validation-complete dispatches sum it.  If that queue is non-empty, no
  block-ready of the channel is pending and the block is ready strictly
  before that completion, its block-ready would find the validator still
  busy and only append it.  So it is appended at the cut and nothing is
  pushed: until it is ready, a validation-complete starts a block ahead of
  it.  A pending block-ready must append its block first, and at a tie the
  validation-complete goes first and may leave the validator idle.

The back does not chain its block-ready and validation-complete events; a
prototype of that gained nothing on a back-only sweep.  At paper defaults
(seed 12345) the rules cut one replication of fig2's block-size sweep
(B = 1, 2, 5, 10, 20) from 111,003 heap pushes to 48,210.

A replication with one back config runs the one loop of `run_once`: front
plus back took 1.05-1.2x its time at paper defaults (block sizes 1 and 10)
and 1.3-1.5x on the M/D/1 configs of the benchmark's md1_channel workload
(lean runs; per config the median over 6 seeds of the fastest of 7
interleaved runs; Python 3.11, 2 cores), because the endorsement stream is
built and then read back.  A sweep over back fields pays that once per
replication and saves the front, about 70% of a paper-default run, on every
further value.

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

    @property
    def record(self):
        """Whether the front holds the full record, as `run_front(record=True)`'s does."""
        return self.lost is not None


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
        tx = None  # the delivered endorsement, if any
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
                seq = next_seq()  # before the next generation's or transmission's
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
        if tx is None:
            continue
        # due at or after a pending event: it waits its turn on the heap
        if endorsed >= gen[0] or endorsed >= tc[0] or heap and heap[0][0] <= endorsed:
            heappush(heap, (endorsed, seq, r - 1, tx))
            continue
        # otherwise its endorse-done is the next dispatch, right after slot dispatch r - 1
        done.append(endorsed)
        slot.append(r - 1)
        n_before.append(r)
        stream.append(tx)

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
    back needs a full-record front (over a lean one it raises ValueError) and
    stamps that front's Transactions, so such a front serves one back.  A
    lean front serves any number of lean backs: each back rewrites
    `captured_version`, `order_done`, `commit_time` and `validity` of every
    kept Transaction, since every endorsement is committed in the drained
    run, and a lean RunResult holds none of them.
    """
    if record and not front.record:
        raise ValueError("a full-record back needs a full-record front (run_front(record=True))")
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
    # Per channel: the timeout key its current batch took, whether a timeout
    # of it is on the heap, its blocks in ordering (block-readys on the heap)
    # and when the last block queued at its validator completes.
    armed = [None] * n_channels
    timing = [False] * n_channels
    ordering = [0] * n_channels
    last_done = [0.0] * n_channels

    now = 0.0
    blocks_committed = n_valid = n_mvcc_invalid = 0
    while True:
        if heap and (heap[0][0] < next_done
                     or heap[0][0] == next_done and slot[i] >= heap[0][4]):
            t, _, kind, x, n = heappop(heap)
            if t < now:
                raise SimulationError(f"event at t={t} behind clock t={now}")
            now = t
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
                if not queue:
                    continue
                x = queue[0]  # the next block starts validation
            elif kind == _BLOCK_READY:
                c = x.channel
                ordering[c] -= 1
                queue = validating[c]
                queue.append(x)
                if len(queue) > 1:  # the validator is busy
                    last_done[c] += validation_duration(cfg, len(x.txs))
                    continue
            else:  # _TIMEOUT_FIRE: x is the batch that armed it
                batch = x
                c = batch[0].channel
                timing[c] = False
                if batch is not batches[c]:
                    # stale: that batch was already cut by size; the
                    # channel's current batch, if any, puts its timeout on
                    if batches[c]:
                        timing[c] = True
                        heappush(heap, armed[c])
                    continue
            # N of the events this dispatch schedules.  It lies between the
            # n_before of the last endorsement taken and of the next one.
            lo = n_before[i - 1] if i else 0
            hi = n_before[i] if i < n_endorsed else n_slots
            m = bisect_left(slot_time, t, lo, hi)
            if m < hi and slot_time[m] == t:
                m = bisect_left(slot_sched, n, m, bisect_right(slot_time, t, m, hi))
            if kind != _TIMEOUT_FIRE:  # block x starts validation
                end = t + validation_duration(cfg, len(x.txs))
                if kind == _BLOCK_READY:
                    last_done[c] = end
                heappush(heap, (end, next_seq(), _VALIDATION_COMPLETE, x, m))
                continue
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
                    key = armed[c] = (t + timeout, next_seq(), _TIMEOUT_FIRE, batch, m)
                    if not timing[c]:
                        timing[c] = True
                        heappush(heap, key)
                continue
        else:
            break
        # cut channel c's batch at t and hand the block to ordering
        batches[c] = []
        ready = t + order_time
        for tx in batch:
            tx.order_done = ready
        block = Block(batch, t, c)
        queue = validating[c]
        if queue and not ordering[c] and ready < last_done[c]:
            # its block-ready would find the validator busy and only queue it
            queue.append(block)
            last_done[c] += validation_duration(cfg, len(batch))
        else:
            ordering[c] += 1
            heappush(heap, (ready, next_seq(), _BLOCK_READY, block, m))

    return _result(path, block_times, front.transactions, front.lost, ledgers, record,
                   front.n_generated, front.n_lost, n_valid, n_mvcc_invalid, blocks_committed)
