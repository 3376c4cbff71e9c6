"""The engine: every run is a front and a back, so that runs differing only
in back fields share one front, and the fronts of one replication share
every pass that they read alike.

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

The front has no event loop.  It is a chain of passes over whole-run lists.
Each pass is a function of the seed, of the fields it reads and of the
passes before it, and each random stream is drawn by one pass, in an order
of its own (generation order or delivery order), as the event-heap model
draws it:

- generation (`generation_mode`, `total_rate`, `horizon`): the generation
  times, the running sum of the gaps up to the horizon;
- labels (`target_ratio`, `n_channels`): a key uniform per generation, in
  generation order, and a channel-split draw per background key with more
  than one channel;
- deliveries (`transmit_time`, `discipline`): the proposal each delivery
  delivers and its time, in delivery order (see below);
- loss (`stp`): a loss uniform per delivery, in delivery order;
- comm (`comm_latency`): a comm draw per passed delivery;
- endorsement (`endorse_time`, `n_endorsers`): an endorse uniform per passed
  delivery, transformed into the maximum over the endorsers, and the
  endorse-done order.  That is a stable sort of the deliveries by time: at a
  tie the endorsement delivered first took the smaller seq, since a slot
  dispatch delivers at most one.

The front then numbers the endorsements it keeps in delivery order: every
one in a full front, the target-key ones in a lean front.  Its stream holds
those numbers in endorse-done order, and a channel marker for each other
endorsement; beside it go columns of the kept endorsements' times (`Front`).
No Transaction is built for a lean run at all.  A draw goes to its place in
its pass's order whatever the other
fields are: the j-th key uniform to the j-th generation, and the j-th comm
and endorse draw to the j-th passed delivery, for every `stp`.  So two
configs that agree in the fields a pass reads, and in those of the passes
before it, have the same output of that pass, and those that differ in
`stp` alone share one draw prefix of comm and endorse draws.
`experiments._replicate` builds the fronts of one replication through one
`Fronts`: each distinct pass is computed once and kept until its last use,
and each draw prefix until the replication ends, never longer.  A
`target_ratio` sweep pays the labels and the numbering per value, and an
`stp` sweep the loss, comm and endorsement passes.

The deliveries: slot dispatches (generations and transmit-completes) are
numbered 0, 1, ... in dispatch order.  With no transmit time they are the
generations, each scheduled by the one before, and each delivers its own
proposal.  Otherwise one loop over the generations and transmit-completes
alone (`_slot_pass`) numbers them and serves the waiting deque by
discipline.  Two of them due at one instant go in the order of the
dispatches that scheduled them; a generation schedules the transmit-complete
it starts before the next generation.  Under FCFS the delivery times need no
numbers: a transmission starts at the later of its proposal's generation and
the previous transmit-complete (Lindley's recursion), and at a tie of the two
either order gives that time.  Only an exact tie in the back needs the
numbers, so there the loop runs at the first such tie (`Front.timeline`).

The back is one pass over the stream, with no event heap.  What it stamps
on a kept endorsement (the version it read, its order and commit times, its
validity) goes into columns of its own, indexed by the endorsement's number,
so one front serves any number of backs.  The latency means are summed over
those columns in delivery order.  Only a full-record back builds
Transactions, once, when the run is drained.  Per channel:

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
on every further value: the front is about two thirds of a lean run at paper
defaults with block size 10, and a quarter (FCFS) to a third (LCFS) on the
M/D/1 configs of the benchmark's md1_channel workload, where every
endorsement is a block of its own (medians over 6 seeds; Python 3.11).

`simulation.run_once` and `experiments._replicate` import this module at
their first run, so that importing bcesim compiles none of it.
"""

import functools
import itertools
import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass
from random import Random

from .core import SimulationError, make_stream
from .ledger import LedgerState
from .metrics import AoISamplePath, LatencyBreakdown
from .pipeline import MVCC_INVALID, VALID, VSCC_INVALID, Transaction, ordering_delay
from .simulation import RunResult
from .workload import TARGET_KEY


@dataclass
class Front:
    """The endorsements of one run, in endorse-done dispatch order, with what
    a back needs to merge them with its own events exactly.

    The front numbers the endorsements it keeps 0, 1, ... in delivery order:
    every one in a full front, the target-key ones in a lean front (every
    one at `target_ratio` 1).  `stream[i]` is endorsement i's number, or, for
    one a lean front does not keep, its channel marker -1 - channel.
    `done[i]` is its endorse-done time and `proposal[i]` the number of its
    proposal in generation order.  `gen_time`, `arrive_time` and
    `endorse_done` are columns over the kept endorsements, by number;
    `arrive_time` is `gen_time` itself where every endorsement arrives at its
    generation.  A full front adds the `id`, `key` and `channel` columns and
    `lost`, as in RunResult; a lean front keeps them None, since each
    endorsement it keeps is on the target key and channel 0.  `slots` is the
    slot timeline, or a function that builds it (see `timeline`).
    """

    stream: list | range
    done: array
    proposal: array | range
    slots: tuple | Callable
    gen_time: array | list
    arrive_time: array | list
    endorse_done: array | list
    id: list | None
    key: list | None
    channel: array | None
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


class Fronts:
    """The fronts of one replication, at one seed, sharing their passes.

    `front(cfg)` is `run_front(cfg, seed)`.  Each pass that the fronts of
    `configs` share is computed at its first use and kept until its last, and
    each draw prefix as long as this object; a pass that no two of them share
    is not kept at all, nor is any prefix then.  A front of a config outside
    `configs` is built the same way, and is the same.
    """

    __slots__ = ("seed", "uses", "kept", "prefixes")

    def __init__(self, seed, configs=()):
        self.seed = seed
        uses = Counter(key for cfg in configs for key in _pass_keys(cfg))
        self.uses = uses if max(uses.values(), default=0) > 1 else {}  # pass key -> fronts to read it
        self.kept = {}  # pass key -> its output
        self.prefixes = {}  # stream key -> its _Prefix

    def front(self, cfg, record=False):
        """Generation through endorsement of one run at this seed (see `run_front`)."""
        cfg.validate()
        generation, labels, deliveries, loss, comm, endorsement = _pass_keys(cfg)
        gen_times = self.get(generation, _generation, self.seed, *generation[1:])
        is_target, channel = self.get(labels, _labels, self, gen_times,
                                      cfg.target_ratio, cfg.n_channels)
        delivers, times, slots = self.get(deliveries, _deliveries, gen_times,
                                          cfg.transmit_time, cfg.discipline)
        served, at, passed = self.get(loss, _loss, self, delivers, times, cfg.stp)
        at = self.get(comm, _comm, self, at, cfg.comm_latency)
        done, order, ordered, proposal = self.get(endorsement, _endorsement, self, served, at,
                                                  cfg.endorse_time, cfg.n_endorsers)

        # The endorsements the front keeps, numbered in delivery order, and a
        # column of each of their times.  A background key is its proposal's
        # id, and a proposal that arrives at its generation has one float for
        # both times, as in the event-heap model.
        n = len(served)
        if record:
            # one float per generation, which the run's ledgers, path and
            # Transactions share
            numbers = range(n)
            gen = [gen_times[k] for k in served]
            arrive, endorse_done = gen if at is gen_times else at, done
        elif cfg.target_ratio == 1.0:  # every endorsement is kept
            numbers = range(n)
            gen = (gen_times if served.__class__ is range
                   else array("d", [gen_times[k] for k in served]))
            arrive, endorse_done = at, done
        else:
            # every marker, then the number of each target-key endorsement,
            # which is on channel 0
            numbers = [-1] * n if cfg.n_channels == 1 else [-1 - channel[k] for k in served]
            kept = (list(itertools.compress(served, is_target)) if served.__class__ is range
                    else [i for i, k in enumerate(served) if is_target[k]])
            for j, i in enumerate(kept):
                numbers[i] = j
            gen = array("d", [gen_times[served[i]] for i in kept])
            arrive = gen if at is gen_times else array("d", [at[i] for i in kept])
            endorse_done = array("d", [done[i] for i in kept])
        tid = key = on = lost = None
        if record:
            tid = [k + 1 for k in served]
            key = [TARGET_KEY if is_target[k] else pid for k, pid in zip(served, tid)]
            on = channel if served.__class__ is range else array("i", [channel[k] for k in served])
            dropped = (() if passed is None
                       else itertools.compress(delivers, map(operator.not_, passed)))
            lost = [(k + 1, TARGET_KEY if is_target[k] else k + 1, channel[k], gen_times[k])
                    for k in dropped]
        stream = numbers if order is None else [numbers[i] for i in order]
        return Front(stream, ordered, proposal, slots, gen, arrive, endorse_done, tid, key, on,
                     lost, len(gen_times), len(times) - len(at))

    def get(self, key, compute, *args):
        """The output of pass `key`, compute(*args) at its first use."""
        kept = self.kept
        value = kept.pop(key) if key in kept else compute(*args)
        left = self.uses.get(key, 1) - 1
        if left > 0:
            self.uses[key] = left
            kept[key] = value
        return value

    def prefix(self, key, more, *args):
        """The draw prefix of stream `key`, made by more(*args) at its first use."""
        prefix = self.prefixes.get(key)
        if prefix is None:
            prefix = _Prefix(more(*args))
            if self.uses:
                self.prefixes[key] = prefix
        return prefix


class _Prefix:
    """The first values of one sequence of draws, drawn only as far as asked."""

    __slots__ = ("more", "values")

    def __init__(self, more):
        self.more = more  # (start, stop) -> the values numbered start .. stop - 1
        self.values = array("d")

    def first(self, n):
        """The first n values."""
        values = self.values
        if len(values) < n:
            values.fromlist(self.more(len(values), n))
        return values if len(values) == n else values[:n]


def _pass_keys(cfg):
    """The key of each pass of a config's front: the pass, the fields it
    reads and the key of the pass it reads."""
    generation = ("generation", cfg.generation_mode, cfg.total_rate, cfg.horizon)
    labels = ("labels", generation, cfg.target_ratio, cfg.n_channels)
    deliveries = ("deliveries", generation, cfg.transmit_time, cfg.discipline)
    loss = ("loss", deliveries, cfg.stp)
    comm = ("comm", loss, cfg.comm_latency)
    endorsement = ("endorsement", comm, cfg.endorse_time, cfg.n_endorsers)
    return generation, labels, deliveries, loss, comm, endorsement


def run_front(cfg, seed, record=False):
    """Generation through endorsement of one run.

    It makes every draw of the generation, key-assign, channel-split,
    channel-loss, comm-latency and endorse streams that the event-heap model
    of the pipeline makes, in the same order, so `run_back` over it gives
    that model's result.  With `record` false it keeps the target-key
    endorsements only.
    """
    return Fronts(seed).front(cfg, record)


def _generation(seed, mode, rate, horizon):
    """The generation times: the running sum of the gaps, up to the horizon."""
    if mode == "exponential":
        # `Random.expovariate(rate)` inline: the same floats
        random, log = make_stream(seed, "generation").random, math.log
        gen_times = array("d")
        add = gen_times.append
        t = -log(1.0 - random()) / rate
        while t <= horizon:
            add(t)
            t += -log(1.0 - random()) / rate
        return gen_times
    period = 1.0 / rate
    gaps = itertools.repeat(period, int(horizon * rate) + 2)
    gen_times = array("d", itertools.accumulate(gaps))  # the float sums of t + period
    while gen_times[-1] <= horizon:
        gen_times.append(gen_times[-1] + period)
    del gen_times[bisect_right(gen_times, horizon):]
    return gen_times


def _draws(seed, stream_id, draw):
    """The draws draw(rng) of one stream, for a _Prefix."""
    rng = make_stream(seed, stream_id)
    return lambda start, stop: [draw(rng) for _ in itertools.repeat(None, stop - start)]


def _labels(fronts, gen_times, target_ratio, n_channels):
    """Whether each proposal is on the target key, and its channel, in
    generation order: the target key stays on channel 0."""
    keys = fronts.prefix("key-assign", _draws, fronts.seed, "key-assign", Random.random)
    is_target = [u < target_ratio for u in keys.first(len(gen_times))]
    if n_channels == 1:
        return is_target, array("i", [0]) * len(gen_times)
    randrange = make_stream(fronts.seed, "channel-split").randrange
    return is_target, array("i", [0 if target else randrange(n_channels) for target in is_target])


def _deliveries(gen_times, transmit_time, discipline):
    """The proposal each delivery delivers (`served`), its time (`at`), in
    delivery order, and the slot timeline or a function that builds it once."""
    n_generated = len(gen_times)
    if transmit_time == 0.0:
        # each generation schedules the next, and delivers its own proposal
        served = range(n_generated)
        return served, gen_times, (gen_times, range(-1, n_generated - 1), served)
    slots = functools.cache(lambda: _slot_pass(gen_times, transmit_time, discipline, True)[2])
    if discipline == "fcfs":
        # Lindley's recursion, with the float operations of the slot pass: a
        # proposal's transmission starts at the later of its generation and
        # the previous proposal's transmit-complete.
        at = array("d")
        add, d = at.append, -math.inf
        for g in gen_times:
            d = (g if g >= d else d) + transmit_time
            add(d)
        return range(n_generated), at, slots
    served, at, _ = _slot_pass(gen_times, transmit_time, discipline, False)
    return served, at, slots


def _loss(fronts, served, at, stp):
    """The deliveries that pass, in delivery order, and whether each
    delivery passed (None if all do)."""
    if stp >= 1.0:
        return served, at, None
    uniforms = fronts.prefix("channel-loss", _draws, fronts.seed, "channel-loss", Random.random)
    passed = [u < stp for u in uniforms.first(len(served))]
    return list(itertools.compress(served, passed)), list(itertools.compress(at, passed)), passed


def _comm(fronts, at, comm):
    """The arrival times: each passed delivery's time plus its comm latency."""
    if comm.value == 0.0:
        return at
    if comm.kind == "fixed":
        return [t + comm.value for t in at]
    draws = fronts.prefix(("comm-latency", comm), _draws, fronts.seed, "comm-latency", comm.sample)
    return [t + c for t, c in zip(at, draws.first(len(at)))]


def _endorsement(fronts, served, at, endorse, n_endorsers):
    """(done, order, ordered, proposal): the endorse-done times in delivery
    order, the endorse-done order of the deliveries (None if it is theirs),
    the times in that order (`done` itself then), and each one's proposal in
    that order."""
    if endorse.kind == "fixed":
        done = array("d", [a + endorse.value for a in at])
    else:
        delays = fronts.prefix(("endorse", endorse, n_endorsers), _endorse_delays,
                               fronts.seed, endorse, n_endorsers)
        done = array("d", [a + x for a, x in zip(at, delays.first(len(at)))])
    if all(map(operator.le, done, itertools.islice(done, 1, None))):
        return done, None, done, (served if served.__class__ is range else array("i", served))
    order = sorted(range(len(done)), key=done.__getitem__)  # stable: ties in delivery order
    proposal = order if served.__class__ is range else [served[i] for i in order]
    return done, order, array("d", sorted(done)), array("i", proposal)


def _endorse_delays(seed, endorse, n_endorsers):
    """The endorsement delays over n endorsers, for a _Prefix: each is
    `Delay.sample_max` of the endorse stream, inline."""
    random, log, expm1 = make_stream(seed, "endorse").random, math.log, math.expm1
    mean = endorse.value
    rng = None  # after a zero uniform, the stream drawn again through `sample_max`

    def more(start, stop):
        nonlocal rng
        if rng is None:
            try:
                return [-mean * log(-expm1(log(random()) / n_endorsers))
                        for _ in itertools.repeat(None, stop - start)]
            except ValueError:
                # a zero uniform (log raises), which `sample_max` redraws:
                # draw the stream again, from its start, through it
                rng = make_stream(seed, "endorse")
                return [endorse.sample_max(rng, n_endorsers) for _ in range(stop)][start:]
        return [endorse.sample_max(rng, n_endorsers) for _ in itertools.repeat(None, stop - start)]

    return more


def _slot_pass(gen_times, transmit_time, discipline, numbered):
    """The deliveries of a run with a transmitter, in delivery order: the
    proposal each transmit-complete delivers and its time.  And if
    `numbered`, the slot timeline (see `Front.timeline`), else None."""
    served, at = [], array("d")
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


def run_back(cfg, seed, front):
    """Batching through commit of one run over a front of the same seed and
    of a config that differs from `cfg` in back fields only.

    The result is `run_once(cfg, seed, record=front.record)`'s.  The back
    keeps what it stamps on each kept endorsement (`captured_version`,
    `order_done`, `commit_time`, `validity`) in columns of its own, so a
    front serves any number of backs.  Only a full-record back builds
    Transactions, once, when the run is drained.
    """
    record = front.record
    cfg.validate()
    horizon = cfg.horizon
    rng_vscc = make_stream(seed, "vscc")

    n_channels = cfg.n_channels
    ledgers = [LedgerState() for _ in range(n_channels)]
    versions_of = [ledger.versions for ledger in ledgers]
    path = AoISamplePath(0.0, horizon)

    block_size = cfg.block_size
    timeout = cfg.timeout
    order_time = ordering_delay(cfg)
    overhead, per_tx = cfg.validate_block_overhead, cfg.validate_per_tx
    vscc_fail_prob = cfg.vscc_fail_prob
    vscc = vscc_fail_prob > 0.0

    stream, done = front.stream, front.done
    if stream and done[0] < 0.0:  # the stream is in time order, from a clock at 0
        raise SimulationError(f"event at t={done[0]} behind clock t=0.0")
    ties = _Dispatches(front)
    times = ties.time
    add_time, add_parent = times.append, ties.parent.append

    # Per kept endorsement, by number: the front's key and channel (None in
    # a lean front: the target key on channel 0) and generation time, and
    # what the back stamps on it.  Every kept endorsement commits in the
    # drained run, so each one's stamps are all set at the end.
    keys, channels, gen_time = front.key, front.channel, front.gen_time
    n_kept = len(gen_time)
    captured = [0] * n_kept
    order_done = [None] * n_kept
    commit_time = [None] * n_kept
    validity = [None] * n_kept

    # Per channel: its batch, whether the batch holds a kept endorsement,
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
    n_vscc_invalid = n_mvcc_invalid = blocks_committed = 0

    def cut(c, t, cause, bound):
        """Cut channel c's batch at t by dispatch `cause` and queue the block
        at the channel's validator; `bound` is the time of the next
        endorsement (inf if none)."""
        nonlocal next_end, blocks_committed
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
        queued = holds[c] or vscc
        holds[c] = False
        if (queued and next_end == math.inf and end < bound
                and (n_channels == 1 or end < min(deadline))):
            # No block awaits commit, and this one completes before the next
            # endorsement and every pending timeout (with one channel there is
            # none: its own was just cleared), so nothing comes between its
            # validation-complete and its commit.  Nor can a tie reach those
            # two dispatches: the channel's next block is ready after it.
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
        # a block of background endorsements only, with no VSCC, is valid
        # whenever it commits
        if queued:
            pending[c].append((vc, ready, batch))
            if end < next_end:
                next_end = end

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
        nonlocal n_vscc_invalid, n_mvcc_invalid
        versions, gen_times = versions_of[c], ledgers[c].gen_times
        for x in batch:
            if vscc and rng_vscc.random() < vscc_fail_prob:
                n_vscc_invalid += 1
                if x >= 0:
                    order_done[x], commit_time[x], validity[x] = ready, end, VSCC_INVALID
            elif x >= 0:  # background the back does not keep is valid
                order_done[x] = ready
                commit_time[x] = end
                key = TARGET_KEY if keys is None else keys[x]
                version = captured[x]
                if version == versions.get(key, 0):
                    validity[x] = VALID
                    versions[key] = version + 1
                    gen_times[key] = g = gen_time[x]
                    if key == TARGET_KEY and end <= horizon:
                        path.record_commit(end, g)
                else:
                    validity[x] = MVCC_INVALID
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
        if x < 0:
            c = -1 - x
            if deadline[c] <= t:
                timeout_cut(c, i)
        else:
            c = 0 if channels is None else channels[x]
            if deadline[c] <= t:
                timeout_cut(c, i)
            # it reads the ledger as every block that completes before it left
            # it, so every cut due before it is made first
            if n_channels > 1:
                for other in range(n_channels):
                    timeout_cut(other, i)
            if next_end <= t:
                commit_before(i)
            captured[x] = versions_of[c].get(TARGET_KEY if keys is None else keys[x], 0)
            holds[c] = True
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

    # The latency means of the valid target-key endorsements, each summed in
    # delivery order, as the event-heap model's post-pass sums them.
    counted = map(operator.is_, validity, itertools.repeat(VALID))
    if keys is not None:
        counted = map(operator.and_, counted, map(operator.eq, keys, itertools.repeat(TARGET_KEY)))
    comm = endorse = order = validate = 0.0
    n_target = 0
    for g, a, e, o, m in itertools.compress(
        zip(gen_time, front.arrive_time, front.endorse_done, order_done, commit_time), counted
    ):
        n_target += 1
        comm += a - g
        endorse += e - a
        order += o - e
        validate += m - o
    means = ([comm / n_target, endorse / n_target, order / n_target, validate / n_target]
             if n_target else [None] * 4)

    transactions = None
    if record:
        # one (order_done, commit_time) pair of objects per block, and the
        # front's generation floats, which serve as arrival times too where
        # the front has one column for both
        transactions = list(map(Transaction, front.id, keys, channels, gen_time,
                                front.arrive_time, front.endorse_done, captured, order_done,
                                commit_time, validity))
    n_delivered = front.n_generated - front.n_lost  # the drained run resolved every delivery
    return RunResult(
        path=path,
        block_times=block_times,
        blocks_committed=blocks_committed,
        breakdown=LatencyBreakdown(
            *means,
            n_generated=front.n_generated,
            n_valid=n_delivered - n_mvcc_invalid - n_vscc_invalid,
            n_mvcc_invalid=n_mvcc_invalid,
            n_vscc_invalid=n_vscc_invalid,
            n_lost=front.n_lost,
        ),
        transactions=transactions,
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
