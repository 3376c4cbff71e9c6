"""The engine: every run is a front and a back, so that runs differing only
in back fields share one front.

Generation, key assignment, channel split, transmission, loss, comm latency
and endorsement (the front) never depend on block cutting, ordering,
validation or VSCC (the back): the back only consumes endorse-done events
and reads the ledger as it does.  So a run is `run_front`, which returns its
endorsements in endorse-done dispatch order, and `run_back`, which runs the
rest of the pipeline over that stream (`simulation.run_once`), and runs that
differ only in back fields (`config.BACK_FIELDS`) share one front.  Together
they reproduce the event-heap model of the pipeline (`tests/des_oracle.py`),
which dispatches every event in (time, seq) order, with seq taken when the
event is scheduled.

The front has no event loop.  Each of its random streams is drawn in an
order of its own (generation order or delivery order), so it draws each one
in a pass over a whole-run list, as the event-heap model draws it, and
merges them without a heap:

- Generation times are the running sum of the gaps, up to the horizon.  The
  key uniforms and the channel-split draws (background keys only, with more
  than one channel) follow in generation order.
- Slot dispatches (generations and transmit-completes) are numbered 0, 1, ...
  in dispatch order.  With no transmit time they are the generations, each
  scheduled by the one before, and each delivers its own proposal.
  Otherwise one loop over the generations and transmit-completes alone
  (`_slot_pass`) numbers them and serves the waiting deque by discipline.
  Two of them due at one instant go in the order of the dispatches that
  scheduled them; a generation schedules the transmit-complete it starts
  before the next generation.  Under FCFS the delivery times need no
  numbers: a transmission starts at the later of its proposal's generation
  and the previous transmit-complete (Lindley's recursion), and at a tie of
  the two either order gives that time.  Only an exact tie in the back needs
  the numbers, so there the loop runs at the first such tie
  (`Front.timeline`).
- Loss, comm latency and endorsement are drawn in delivery order.
- Endorse-done order is a stable sort of the deliveries by time: at a tie the
  endorsement delivered first took the smaller seq, since a slot dispatch
  delivers at most one.

The back is one pass over the stream, with no event heap.  Per channel:

- A batch is cut when it reaches `block_size`, or at its deadline
  t0 + timeout (t0 its first endorsement) if that passes before the
  channel's next endorsement.
- A block is ready at cut + ordering delay.  The channel's validator is a
  FIFO single server with deterministic service, so block k completes at
  done_k = max(ready_k, done_{k-1}) + validation time (Lindley's recursion,
  with the float operations of the event-heap model's dispatches).
- Blocks commit in completion order, across channels, since the channels
  share one VSCC stream: the blocks that complete before an endorsement that
  reads the ledger (a target-key one in a lean back, every one in a full
  back) commit just before it reads, and the rest at the end.  A block
  commits at its cut when nothing can come between the two: no block awaits
  commit, and it completes strictly before the next endorsement and every
  pending timeout.  In a lean back without VSCC a block of background
  endorsements only is never queued for commit: each of them is valid
  whenever it commits.

The pass resolves the (time, seq) order of same-instant events only where
two times are exactly equal (`_Dispatches`):

- `Front.timeline` holds each slot dispatch's time and the number of the
  slot dispatch that scheduled it (-1 for the first generation, scheduled
  before the loop), and for each proposal the slot dispatch that delivered
  it, its endorsement's `slot`.  Injected arrivals carry -1.
- Each back event carries N, the number of slot dispatches before the
  dispatch that scheduled it.  For a dispatch at t whose own event was
  scheduled by a dispatch with n slot dispatches before it, N is the slot
  dispatches at times < t plus those at t scheduled by a slot dispatch
  numbered < n.  This holds for an endorse-done dispatch too, with
  n = `slot`: the delivering dispatch schedules the endorsement before the
  next generation or transmit-complete.  So the front stores no count, and
  the back computes one only at an exact tie.  At a tie the endorsement goes
  first iff its `slot` < N.
- Endorsements keep their stream order.  Each dispatch schedules at most one
  back event: an endorse-done a timeout or a block-ready, a timeout a
  block-ready, and a block-ready or a validation-complete the next
  validation-complete.  So two back events due at one instant go in the
  order of the dispatches that scheduled them, compared the same way.  The
  dispatch that starts a block's validation is the later of its block-ready
  and the previous block's validation-complete.

A sweep over back fields pays the front once per replication and saves it
on every further value: the front is about half of a lean run at paper
defaults with block size 10, and about 40% on the M/D/1 configs of the
benchmark's md1_channel workload (medians over 6 seeds; Python 3.11).

`arrivals_front` builds a front from a list of injected endorsements, so
tests can drive the back with a known sub-workload.  `simulation.run_once`
and `experiments._replicate` import this module at their first run, so that
importing bcesim compiles none of it.
"""

import itertools
import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from .core import SimulationError, make_stream
from .ledger import LedgerState
from .metrics import AoISamplePath, LatencyBreakdown, latency_means
from .pipeline import MVCC_INVALID, VALID, VSCC_INVALID, Transaction, ordering_delay
from .simulation import RunResult
from .workload import TARGET_KEY


@dataclass
class Front:
    """The endorsements of one run, in endorse-done dispatch order, with what
    a back needs to merge them with its own events exactly.

    `stream[i]` is endorsement i's Transaction, with `endorse_done` stamped;
    in a lean front a background endorsement is its channel marker
    -1 - channel instead.  `done[i]` is its endorse-done time and
    `proposal[i]` the number of its proposal in generation order.
    `transactions` and `lost` are as in RunResult; a lean front keeps the
    target-key transactions only, and no `lost`.  `slots` is the slot
    timeline, or a function that builds it (see `timeline`).
    """

    stream: list
    done: array
    proposal: array | range
    slots: tuple | Callable
    transactions: list
    lost: list | None
    n_generated: int
    n_lost: int

    @property
    def record(self):
        """Whether the front holds the full record, as `run_front(record=True)`'s
        does, and so whether a back over it does."""
        return self.lost is not None

    def timeline(self):
        """(slot_time, slot_sched, by): each slot dispatch's time and the
        number of the slot dispatch that scheduled it, and for each proposal
        the slot dispatch that delivered it.  Only an exact tie needs them,
        so a transmitter's are built at the first such tie, and kept."""
        if callable(self.slots):
            self.slots = self.slots()
        return self.slots


def run_front(cfg, seed, record=False):
    """Generation through endorsement of one run.

    It makes every draw of the generation, key-assign, channel-split,
    channel-loss, comm-latency and endorse streams that the event-heap model
    of the pipeline makes, in the same order, so `run_back` over it gives
    that model's result.  With `record` false it builds a Transaction for
    target-key endorsements only.
    """
    cfg.validate()
    horizon = cfg.horizon
    rate = cfg.total_rate
    n_channels = cfg.n_channels
    stp = cfg.stp
    transmit_time = cfg.transmit_time
    comm = cfg.comm_latency
    endorse = cfg.endorse_time

    # Generation times: the running sum of the gaps, up to the horizon.
    if cfg.generation_mode == "exponential":
        expovariate = make_stream(seed, "generation").expovariate
        gen_times = array("d")
        t = expovariate(rate)
        while t <= horizon:
            gen_times.append(t)
            t += expovariate(rate)
    else:
        period = 1.0 / rate
        gaps = itertools.repeat(period, int(horizon * rate) + 2)
        gen_times = array("d", itertools.accumulate(gaps))  # the float sums of t + period
        while gen_times[-1] <= horizon:
            gen_times.append(gen_times[-1] + period)
        del gen_times[bisect_right(gen_times, horizon):]
    n_generated = len(gen_times)

    # Keys, and channels for the background keys, in generation order.
    key_random = make_stream(seed, "key-assign").random
    target_ratio = cfg.target_ratio
    is_target = [key_random() < target_ratio for _ in itertools.repeat(None, n_generated)]
    if n_channels == 1:
        channel = array("i", [0]) * n_generated
    else:
        randrange = make_stream(seed, "channel-split").randrange
        channel = array("i", [0 if target else randrange(n_channels) for target in is_target])

    # The deliveries: the proposal each delivers (`served`) and its time
    # (`at`), in delivery order.
    if transmit_time == 0.0:
        # each generation schedules the next, and delivers its own proposal
        served = range(n_generated)
        at = gen_times
        slots = (gen_times, range(-1, n_generated - 1), served)
    else:
        slots = lambda: _slot_pass(gen_times, transmit_time, cfg.discipline, True)[2]
        if cfg.discipline == "fcfs":
            # Lindley's recursion, with the float operations of the slot pass:
            # a proposal's transmission starts at the later of its generation
            # and the previous proposal's transmit-complete.
            served = range(n_generated)
            at = array("d")
            add, d = at.append, -math.inf
            for g in gen_times:
                d = (g if g >= d else d) + transmit_time
                add(d)
        else:
            served, at, _ = _slot_pass(gen_times, transmit_time, cfg.discipline, False)

    # Loss, comm latency and endorsement, in delivery order.
    lost = [] if record else None
    n_lost = 0
    if stp < 1.0:
        loss_random = make_stream(seed, "channel-loss").random
        passed = [loss_random() < stp for _ in served]
        n_lost = len(passed) - sum(passed)
        if record:
            lost = [(k + 1, TARGET_KEY if is_target[k] else k + 1, channel[k], gen_times[k])
                    for k, ok in zip(served, passed) if not ok]
        served = list(itertools.compress(served, passed))
        at = list(itertools.compress(at, passed))
    if comm.value != 0.0:
        rng_comm = make_stream(seed, "comm-latency")
        at = [t + comm.sample(rng_comm) for t in at]
    if endorse.kind == "fixed":
        done = [a + endorse.value for a in at]
    else:
        # `Delay.sample_max` inline; its redraw of a zero uniform is not, so
        # after a zero (log raises) the stream is drawn again through it
        random = make_stream(seed, "endorse").random
        mean, n_endorsers = endorse.value, cfg.n_endorsers
        log, expm1 = math.log, math.expm1
        try:
            done = [a + -mean * log(-expm1(log(random()) / n_endorsers)) for a in at]
        except ValueError:
            rng_endorse = make_stream(seed, "endorse")
            done = [a + endorse.sample_max(rng_endorse, n_endorsers) for a in at]

    # The endorsements in delivery order: a Transaction for each one a lean
    # front keeps, and its channel's marker for each other one.  A
    # background key is its proposal's id, and a proposal that arrives at its
    # generation has one float for both times, as in the event-heap model.
    same = at is gen_times
    delivered = [
        Transaction(pid := k + 1, TARGET_KEY if is_target[k] else pid, channel[k],
                    a if same else gen_times[k], a, d)
        if record or is_target[k] else -1 - channel[k]
        for k, a, d in zip(served, at, done)
    ]
    transactions = [x for x in delivered if x.__class__ is not int]

    # Endorse-done order: by time, and at a tie in delivery order, the order
    # of the seqs the delivering slot dispatches took.
    if all(map(operator.le, done, itertools.islice(done, 1, None))):
        stream, proposal = delivered, served  # already in that order
    else:
        order = sorted(range(len(done)), key=done.__getitem__)
        done.sort()  # the same stable sort
        stream = [delivered[i] for i in order]
        proposal = order if served.__class__ is range else [served[i] for i in order]
    return Front(stream, array("d", done),
                 proposal if proposal.__class__ is range else array("i", proposal),
                 slots, transactions, lost, n_generated, n_lost)


def _slot_pass(gen_times, transmit_time, discipline, numbered):
    """The deliveries of a run with a transmitter, in delivery order: the
    proposal each transmit-complete delivers and its time.  And if
    `numbered`, the slot timeline (see `Front.timeline`), else None."""
    served, at = [], []
    add_served, add_at = served.append, at.append
    # 32-bit counts: a run past 2**31 slot dispatches raises OverflowError.
    slot_time, slot_sched = array("d"), array("i")
    add_time, add_sched = slot_time.append, slot_sched.append
    by = array("i", [-1]) * len(gen_times) if numbered else None
    # proposals waiting for the channel, in generation order (see bcesim.workload)
    waiting = deque()
    take = waiting.popleft if discipline == "fcfs" else waiting.pop
    # The pending transmit-complete: its time, the slot dispatch that
    # scheduled it and its proposal.  Generation k is scheduled by
    # generation k - 1, after the transmit-complete that one started, so
    # at a tie it goes first iff it was scheduled by an earlier dispatch.
    tc, tc_sched, prop = math.inf, 0, None
    gen_sched = r = -1  # r: the last slot dispatch
    n_generated = len(gen_times)
    for k, g in enumerate(itertools.chain(gen_times, [math.inf])):
        # the transmit-completes before generation k (after the last, the drain)
        while tc < g or tc == g < math.inf and tc_sched <= gen_sched:
            r += 1
            add_served(prop)
            add_at(tc)
            if numbered:
                add_time(tc)
                add_sched(tc_sched)
                by[prop] = r
            if waiting:
                tc, tc_sched, prop = tc + transmit_time, r, take()
            else:
                tc = math.inf
        if k == n_generated:
            break
        r += 1
        if numbered:
            add_time(g)
            add_sched(gen_sched)
        gen_sched = r
        if tc == math.inf:
            tc, tc_sched, prop = g + transmit_time, r, k
        else:
            waiting.append(k)
    return served, at, (slot_time, slot_sched, by) if numbered else None


def arrivals_front(arrivals):
    """A full-record front whose endorsements are the injected arrivals, each
    (arrive_time, endorse_delay, key, gen_time), on channel 0, ahead of every
    back event at the same instant (they were all scheduled before the run).
    Keys may repeat: a back over this full-record front versions every key."""
    transactions = [Transaction(tid, key, 0, gen_time, arrive, arrive + delay)
                    for tid, (arrive, delay, key, gen_time) in enumerate(arrivals, 1)]
    stream = sorted(transactions, key=lambda tx: tx.endorse_done)  # stable: ties in order
    n = len(stream)
    # each arrival is its own proposal, delivered before the first slot dispatch
    return Front(stream, array("d", [tx.endorse_done for tx in stream]), range(n),
                 (array("d"), array("i"), array("i", [-1]) * n), transactions, [], n, 0)


def run_back(cfg, seed, front):
    """Batching through commit of one run over a front of the same seed and
    of a config that differs from `cfg` in back fields only.

    The result is `run_once(cfg, seed, record=front.record)`'s.  A
    full-record back stamps its front's Transactions, so a full-record front
    serves one back.  A lean front serves any number of backs: each back
    rewrites `captured_version`, `order_done`, `commit_time` and `validity`
    of every kept Transaction, since every endorsement is committed in the
    drained run, and a lean RunResult holds none of them.
    """
    record = front.record
    cfg.validate()
    horizon = cfg.horizon
    rng_vscc = make_stream(seed, "vscc")

    n_channels = cfg.n_channels
    ledgers = [LedgerState() for _ in range(n_channels)]
    path = AoISamplePath(0.0, horizon)

    block_size = cfg.block_size
    timeout = cfg.timeout
    order_time = ordering_delay(cfg)
    overhead, per_tx = cfg.validate_block_overhead, cfg.validate_per_tx
    vscc_fail_prob = cfg.vscc_fail_prob

    stream, done = front.stream, front.done
    if stream and done[0] < 0.0:  # the stream is in time order, from a clock at 0
        raise SimulationError(f"event at t={done[0]} behind clock t=0.0")
    ties = _Dispatches(front)
    times = ties.time
    add_time, add_parent = times.append, ties.parent.append

    # Per channel: its batch, whether the batch holds a kept Transaction,
    # when the batch's timeout falls due (inf while it has none) and the
    # endorsement that started it, when its validator frees and that
    # validation-complete (a dispatch of `ties`), the completion times of its
    # blocks by the horizon, and its blocks awaiting commit, each as (its
    # validation-complete, its ready time, its batch).
    batches = [[] for _ in range(n_channels)]
    holds = [False] * n_channels
    deadline = [math.inf] * n_channels
    first = [0] * n_channels
    free_at = [-math.inf] * n_channels
    last_vc = [None] * n_channels
    ends = [[] for _ in range(n_channels)]
    pending = [deque() for _ in range(n_channels)]
    next_end = math.inf  # the earliest completion of a block awaiting commit
    n_valid = n_mvcc_invalid = blocks_committed = 0

    def cut(c, t, cause, bound):
        """Cut channel c's batch at t by dispatch `cause` and queue the block
        at the channel's validator; `bound` is the time of the next
        endorsement (inf if none)."""
        nonlocal next_end, n_valid, blocks_committed
        batch = batches[c]
        batches[c] = []
        deadline[c] = math.inf
        ready = t + order_time
        prev = free_at[c]
        # the later of the block-ready and the last validation-complete starts it
        start = ready if ready >= prev else prev
        end = free_at[c] = start + (overhead + per_tx * len(batch))  # the event-heap model's sum
        if end <= horizon:
            ends[c].append(end)
        blocks_committed += 1  # every block commits in the drained run
        queued = holds[c] or vscc_fail_prob > 0.0
        holds[c] = False
        if queued and next_end == math.inf and end < bound and end < min(deadline):
            # No block awaits commit, and this one completes before the next
            # endorsement and every pending timeout, so nothing comes between
            # its validation-complete and its commit.  Nor can a tie reach
            # those two dispatches: the channel's next block is ready after it.
            commit(c, ready, end, batch)
            return
        # Record the block-ready and the validation-complete for the ties.  At
        # a tie of the two, both start the validation at `ready`.
        if ready < prev:
            parent = last_vc[c]
        else:
            add_time(ready)
            add_parent(cause)
            parent = -len(times)
            if ready == prev and ties.precedes(parent, last_vc[c]):
                parent = last_vc[c]
        add_time(end)
        add_parent(parent)
        vc = last_vc[c] = -len(times)
        if queued:
            pending[c].append((vc, ready, batch))
            if end < next_end:
                next_end = end
        else:  # background only and no VSCC: every one is valid, whenever it commits
            n_valid += len(batch)

    def timeout_cut(c, i):
        """Cut channel c's batch by its timeout if that falls due before
        endorsement i (or at all, if i is None).  At a tie the timeout goes
        first iff it was scheduled first: by the batch's first endorsement,
        before the slot dispatch that delivered endorsement i."""
        d = deadline[c]
        if d != math.inf and (i is None or d < done[i]
                              or d == done[i] and ties.slot(i) >= ties.slots_before(first[c])):
            add_time(d)
            add_parent(first[c])
            cut(c, d, -len(times), math.inf if i is None else done[i])

    def commit(c, ready, end, batch):
        """Commit channel c's block, ready at `ready`, as its validation
        completes at `end`: VSCC first, then MVCC against the ledger, which
        already holds this block's earlier commits."""
        nonlocal n_valid, n_mvcc_invalid
        versions, gen_times = ledgers[c].versions, ledgers[c].gen_times
        for tx in batch:
            if vscc_fail_prob > 0.0 and rng_vscc.random() < vscc_fail_prob:
                if tx.__class__ is not int:
                    tx.order_done, tx.commit_time, tx.validity = ready, end, VSCC_INVALID
            elif tx.__class__ is int:  # background the back does not keep
                n_valid += 1
            else:
                tx.order_done, tx.commit_time = ready, end
                key = tx.key
                version = tx.captured_version
                if version == versions.get(key, 0):
                    tx.validity = VALID
                    versions[key] = version + 1
                    gen_times[key] = tx.gen_time
                    n_valid += 1
                    if key == TARGET_KEY and end <= horizon:
                        path.record_commit(end, tx.gen_time)
                else:
                    tx.validity = MVCC_INVALID
                    n_mvcc_invalid += 1

    def commit_before(i):
        """Commit, in completion order, every block awaiting commit whose
        validation completes before endorsement i (or at all, if i is None)."""
        nonlocal next_end
        t = math.inf if i is None else done[i]
        c = 0
        while True:
            if n_channels > 1:  # the channel whose next completion comes first
                c = None
                for other, queue in enumerate(pending):
                    if queue and (c is None or ties.precedes(queue[0][0], pending[c][0][0])):
                        c = other
                if c is None:
                    break
            queue = pending[c]
            if not queue:
                break
            vc, ready, batch = queue[0]
            end = times[-1 - vc]
            if end > t or end == t and not ties.precedes(vc, i):
                break
            queue.popleft()
            commit(c, ready, end, batch)
        next_end = math.inf
        for queue in pending:
            if queue and times[-1 - queue[0][0]] < next_end:
                next_end = times[-1 - queue[0][0]]

    later = itertools.chain(itertools.islice(done, 1, None), [math.inf])
    for i, x, t, t_next in zip(itertools.count(), stream, done, later):
        if x.__class__ is int:
            c = -1 - x
            if deadline[c] <= t:
                timeout_cut(c, i)
        else:
            c = x.channel
            if deadline[c] <= t:
                timeout_cut(c, i)
            if record or x.key == TARGET_KEY:
                # it reads the ledger as every block that completes before it
                # left it, so every cut due before it is made first
                if n_channels > 1:
                    for other in range(n_channels):
                        timeout_cut(other, i)
                if next_end <= t:
                    commit_before(i)
                x.captured_version = ledgers[c].versions.get(x.key, 0)
                holds[c] = True
            else:
                x = -1 - c  # a lean back keeps and versions the target key only
        batch = batches[c]
        batch.append(x)
        n = len(batch)
        if n == block_size:
            cut(c, t, i, t_next)
        elif n == 1:
            deadline[c] = t + timeout
            first[c] = i
    for c in range(n_channels):
        timeout_cut(c, None)
    commit_before(None)
    block_times = ends[0] if n_channels == 1 else sorted(itertools.chain(*ends))

    n_delivered = front.n_generated - front.n_lost  # the drained run resolved every delivery
    return RunResult(
        path=path,
        block_times=block_times,
        blocks_committed=blocks_committed,
        breakdown=LatencyBreakdown(
            *latency_means(front.transactions, TARGET_KEY),
            n_generated=front.n_generated,
            n_valid=n_valid,
            n_mvcc_invalid=n_mvcc_invalid,
            n_vscc_invalid=n_delivered - n_valid - n_mvcc_invalid,
            n_lost=front.n_lost,
        ),
        transactions=front.transactions if record else None,
        lost=front.lost,
        ledgers=ledgers if record else None,
    )


class _Dispatches:
    """The dispatches of one back, as far as an exact tie needs them.

    A dispatch is an int: endorsement i of the front is i, and back dispatch
    j (a timeout that cuts a batch, a block-ready, a validation-complete) is
    -1 - j, with `time[j]` its time and `parent[j]` the dispatch that
    scheduled it.
    """

    __slots__ = ("front", "time", "parent")

    def __init__(self, front):
        self.front = front
        self.time = array("d")
        self.parent = array("q")

    def slot(self, i):
        """The slot dispatch that delivered endorsement i."""
        return self.front.timeline()[2][self.front.proposal[i]]

    def slots_before(self, d):
        """The number of slot dispatches before dispatch d."""
        front, time, parent = self.front, self.time, self.parent
        slot_time, slot_sched, _ = front.timeline()
        instants = []  # (lo, hi): the slot dispatches at each dispatch's instant
        while True:
            t = front.done[d] if d >= 0 else time[-1 - d]
            lo = bisect_left(slot_time, t)
            hi = bisect_right(slot_time, t, lo)
            if lo == hi:
                n = lo
                break
            instants.append((lo, hi))
            if d >= 0:  # an endorse-done, scheduled by the slot dispatch that delivered it
                n = self.slot(d)
                break
            d = parent[-1 - d]
        # a slot dispatch at a dispatch's instant goes first iff the slot
        # dispatch that scheduled it precedes the one that scheduled that dispatch
        for lo, hi in reversed(instants):
            n = bisect_left(slot_sched, n, lo, hi)
        return n

    def precedes(self, a, b):
        """Whether dispatch a comes before dispatch b, a different one, in the
        event-heap model's (time, seq) order."""
        done = self.front.done
        time, parent = self.time, self.parent
        while True:
            ta = done[a] if a >= 0 else time[-1 - a]
            tb = done[b] if b >= 0 else time[-1 - b]
            if ta != tb:
                return ta < tb
            if a >= 0:
                if b >= 0:
                    return a < b
                return self.slot(a) < self.slots_before(parent[-1 - b])
            if b >= 0:
                return self.slot(b) >= self.slots_before(parent[-1 - a])
            a, b = parent[-1 - a], parent[-1 - b]  # each dispatch schedules at most one back event
