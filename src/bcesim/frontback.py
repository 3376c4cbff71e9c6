"""The engine: one run of a config and seed (`run_once`) and the record it
returns (`RunResult`).  Every run is a front and a back, so that runs
differing only in back fields share one front, and the fronts of one
replication share every pass that they read alike.

Generation stops at the horizon; the rest of the pipeline then drains, so
every proposal resolves to exactly one outcome (valid, mvcc_invalid,
vscc_invalid or lost) and the outcome counts partition the generated count.
Age resets and block commit times are recorded up to the horizon.  A run
reads no measurement field (`warmup`, `target_aoi`): its record is the same
for every value of them, and `experiments.summarize` alone applies them to
it.

Generation, key assignment, channel split, transmission, loss, comm latency
and endorsement (the front) never depend on block cutting, ordering,
validation or VSCC (the back): the back only consumes endorse-done events.
So a run (`run_once`) is `run_front`, which returns its endorsements in
endorse-done dispatch order, and `run_back`, which runs the rest of the
pipeline over that stream, and runs that differ only in back fields
(`config.BACK_FIELDS`) share one front.  Together they reproduce the
event-heap model of the pipeline (`tests/des_oracle.py`), which dispatches
every event in (time, seq) order, with seq taken when the event is
scheduled.

The front has no event loop.  It is a chain of passes over whole-run lists.
Each pass is a function of the fields it reads, of the passes before it and,
if it draws, of the seed, and each random stream is drawn by one pass, in an
order of its own (generation order or delivery order), as the event-heap
model draws it:

- generation (`generation_mode`, `total_rate`, `horizon`): the generation
  times, the running sum of the gaps up to the horizon;
- labels (`target_ratio`, `n_channels`): a key uniform per generation, in
  generation order, and a channel-split draw per background key with more
  than one channel (no draw at `target_ratio` 1, where every key uniform
  would give the target key);
- deliveries (`transmit_time`, `discipline`): the proposal each delivery
  delivers and its time, in delivery order (see below);
- loss (`stp`): a loss uniform per delivery, in delivery order;
- comm (`comm_latency`): a comm draw per passed delivery;
- endorsement (`endorse_time`, `n_endorsers`): an endorse uniform per passed
  delivery, transformed into the maximum over the endorsers, and the
  endorse-done order.  That is a stable sort of the deliveries by time: at a
  tie the endorsement delivered first took the smaller seq, since a slot
  dispatch delivers at most one.  With a fixed comm latency and a fixed
  endorsement it is the delivery order, neither sorted nor checked: the
  deliveries come in time order, loss keeps it, and so does adding one
  constant to every time.

The front then numbers the endorsements it keeps in delivery order: every
one in a full front, the target-key ones in a lean front.  Its stream holds
those numbers in endorse-done order, and a channel marker for each other
endorsement; beside it go columns of the kept endorsements' times (`Front`).
Neither half builds an object per endorsement.  A draw goes to its place in
its pass's order whatever the other fields are: the j-th key uniform to the
j-th generation, and the j-th comm and endorse draw to the j-th passed
delivery, for every `stp`.  So two configs that agree in the fields a pass
reads, and in those of the passes before it, have the same output of that
pass, and those that differ in `stp` alone share one draw prefix of comm and
endorse draws.  A pass that no draw feeds (a periodic generation, and each
pass after it up to the first that draws) has the same output at every seed.
`experiments._replicate` builds every front of its call through one
`Fronts`: each distinct pass is computed once and kept until its last use in
the call, so a pass that no draw feeds is computed once for all the call's
seeds.  A stream that two passes at one seed draw is drawn once, into a
prefix kept until the last of them reads it; a stream that one pass draws
goes straight into that pass.  Nothing outlives the call.  A `target_ratio`
sweep pays the labels and the numbering per value, and an `stp` sweep the
loss, comm and endorsement passes.

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
A proposal joins the transmitter's queue only at its own generation, so the
queue holds its proposals in generation order, ties in insertion order, and
a deque of them is exact for both disciplines: FCFS serves its left end (the
oldest) and LCFS its right end (the newest).  A delivery is lost with
probability 1 - `stp`, for good: nothing is retransmitted, so the delivered
rate thins to `total_rate * stp`.

The back has no event heap either.  It is two parts:

- A timeline per channel, which reads no label: one loop over the channel's
  blocks (`_timeline`) gives each block's stop, ready time and completion.
  A block is a contiguous run of the channel's part of the stream, cut when
  it reaches `block_size` or at its deadline t0 + timeout (t0 its first
  endorsement) if that passes before the channel's next endorsement.  It is
  ready at its cut plus the ordering delay, and the validator is a FIFO
  single server with deterministic service, so block k completes at end_k =
  max(ready_k, end_{k-1}) + validation time (Lindley's recursion, with the
  float operations of the event-heap model), and commits then.  The
  channels share one VSCC stream, which draws once per member, markers
  included, in the blocks' commit order.
- One pass over the target key's reads, all on channel 0, in stream order:
  over the reads alone, never over a marker.  A read sees the blocks that
  committed before it, and MVCC first-wins reduces to one test: it is valid
  iff the block of the last valid commit did.  VSCC decides first: a read
  that it fails is invalid whatever it read, and commits nothing.  A
  background key is its proposal's unique id, so its update is valid unless
  VSCC fails it.

Both are plain loops: a `map` chain over a whole stream lags the interpreter
speed that `bench/calibrate.py` measures when a shared host's speed drifts.

One back is one loop instead (`_one_loop_back`): a lean one at block size 1
on one channel whose stream is a `range`, every endorsement a target-key read
and none reordered (`target_ratio` 1, as in the M/D/1 configs).  There
block k, read k and number k are all endorsement k, so at each endorsement
the loop takes the block's Lindley step, the read's MVCC test, its commit
and its latency sums, and builds no view, cut or block column.  A full
record over the same stream takes the two parts, and gives the same result.

What a back reads of the stream alone is built once per front, at the first
back's use, and kept on it (`Front.view`): each channel's stream positions
and endorse-done times, and the target key's reads as indices into channel
0's part, with their numbers and times.  So the backs of a back-field sweep
share it.  A lean front at `target_ratio` 1 has no marker, so its reads
are its stream itself.

The target pass puts the block of each valid target-key read into one
column, by the read's number, and stamps nothing else on a lean back's
reads.  The latency means are then one pass over that column and the
front's time columns, in delivery (number) order.  They read each block's
ready time and completion, so they are summed before the completions are
cut at the horizon.  A full-record back also stamps every member from its
block (the version it read, its order and commit times, its validity) into
columns of its own, by number, so one front serves any number of backs, and
hands its result the front's columns and its own (`RunResult.columns`),
which the trace reads.

The back resolves the (time, seq) order of same-instant events only where
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
  and the previous block's validation-complete, at a tie the second.  The
  back records none of them: a tie reads them off the timeline.

A sweep over back fields pays the front once per replication and saves it
on every further value: the front is about four fifths of a lean run at
paper defaults (at block size 1 too), and about half (FCFS) to three fifths
(LCFS) on the M/D/1 configs of the benchmark's md1_channel workload (medians
over 6 seeds of the fastest of 7; Python 3.11, 2 vCPUs).

A run builds no reference cycles, so reference counting frees all of it and
the cyclic collector would only rescan live objects.  `run_once` pauses the
collector for the run and restores the caller's setting when the run returns
or raises; `experiments._replicate` holds the pause from before a
replication's first run until its results are summarized and dropped.
`test_simulation.py::test_run_leaves_no_cyclic_garbage` guards the premise.

`experiments` imports this module at its first run, so that importing
bcesim compiles none of it.
"""

import functools
import gc
import itertools
import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from collections.abc import Callable
from dataclasses import dataclass, field
from random import Random

from .config import ordering_delay
from .core import SimulationError, make_stream
from .metrics import AoISamplePath, LatencyBreakdown

# The tracked ledger key.  A background proposal's key is its own unique id,
# so an MVCC conflict can only involve the target key.
TARGET_KEY = 0

# The validity of a delivered transaction in the record.
VALID = "valid"
MVCC_INVALID = "mvcc_invalid"
VSCC_INVALID = "vscc_invalid"

# The fields of a full record's transactions, in the order of its columns
# and of the trace's cells after `rep`.
RECORD_FIELDS = (
    "id", "key", "channel", "gen_time", "arrive_time", "endorse_done",
    "captured_version", "order_done", "commit_time", "validity",
)


@dataclass
class RunResult:
    path: AoISamplePath  # every reset up to the horizon
    block_times: list  # ascending commit times of the blocks committed by the horizon
    blocks_committed: int  # total over the drained run
    breakdown: LatencyBreakdown  # latency means and every outcome count
    # `columns` and `lost` are None in a lean run.
    columns: tuple | None  # one column per name of RECORD_FIELDS, in delivery order
    lost: list | None  # (id, key, channel, gen_time) of dropped proposals


def run_once(cfg, seed, record=True):
    """Single-threaded, deterministic run of one configuration and seed.

    With `record` false the run is lean: `columns` and `lost` are None, and
    every other field is as in a full run.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return run_back(cfg, seed, run_front(cfg, seed, record))
    finally:
        if collecting:
            gc.enable()


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
    slot timeline, or a function that builds it (see `timeline`).  `view`
    is the `_ReadView` of its backs (None before the first): `n_channels` is
    a front field, so every back over one front reads the same one.
    """

    stream: list | range
    done: array
    proposal: array | list | range
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
    view: "_ReadView | None" = field(default=None, init=False, repr=False, compare=False)

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
    """The fronts of one `experiments._replicate` call, sharing their passes
    and their draws.

    `front(cfg, seed)` is `run_front(cfg, seed)`.  Each pass that the fronts
    of `runs`, (config, seed) pairs, share is computed at its first use and
    kept until its last.  A pass key names the seed only where a draw feeds
    the pass (`_pass_keys`), so a pass that no draw feeds, such as a
    periodic generation, is shared by every seed of the call.  A stream that
    two passes draw is drawn through a `_Prefix`, kept until the last of
    them reads it; one that a single pass draws goes straight into that
    pass.  A front of a config outside `runs` is built the same way, and is
    the same.
    """

    __slots__ = ("uses", "kept", "readers", "prefixes")

    def __init__(self, runs=()):
        # pass key -> fronts to read it
        self.uses = Counter(key for cfg, seed in runs for key in _pass_keys(cfg, seed))
        # stream key -> passes to draw it through `draws`; a generation pass
        # draws its own stream
        self.readers = Counter(key[-1] for key in self.uses
                               if key[-1] is not None and key[0] != "generation")
        self.kept = {}  # pass key -> its output
        self.prefixes = {}  # stream key -> its _Prefix

    def front(self, cfg, seed, record=False):
        """Generation through endorsement of one run (see `run_front`)."""
        generation, labels, deliveries, loss, comm, endorsement = _pass_keys(cfg, seed)
        gen_times = self.get(generation, _generation, seed, cfg.generation_mode, cfg.total_rate,
                             cfg.horizon)
        is_target, channel = self.get(labels, _labels, self, labels[-1], gen_times,
                                      cfg.target_ratio, cfg.n_channels)
        delivers, times, slots = self.get(deliveries, _deliveries, gen_times,
                                          cfg.transmit_time, cfg.discipline)
        served, at, passed = self.get(loss, _loss, self, loss[-1], delivers, times, cfg.stp)
        at = self.get(comm, _comm, self, comm[-1], at, cfg.comm_latency)
        done, order, ordered, proposal = self.get(endorsement, _endorsement, self, endorsement[-1],
                                                  served, at, cfg.comm_latency, cfg.endorse_time)

        # The endorsements the front keeps, numbered in delivery order, and a
        # column of each of their times.  A background key is its proposal's
        # id, and a proposal that arrives at its generation has one float for
        # both times, as in the event-heap model.
        n = len(served)
        if record:
            # one float per generation, which the run's path and record share
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

    def draws(self, stream, n, more, *args):
        """The first n draws of `stream`, from more(stream, *args): through
        its prefix while another pass is to draw it, else straight from it."""
        prefix = self.prefixes.pop(stream, None)
        left = self.readers.pop(stream, 1) - 1
        if left > 0:
            self.readers[stream] = left
            if prefix is None:
                prefix = _Prefix(more(stream, *args))
            self.prefixes[stream] = prefix
        return more(stream, *args)(0, n) if prefix is None else prefix.first(n)


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
            values.extend(self.more(len(values), n))
        return values if len(values) == n else values[:n]


def _pass_keys(cfg, seed):
    """The key of each pass of a config's front at `seed`: the pass, the key
    of the pass it reads or the fields it reads, and last the key of the
    stream that it draws, (stream id, seed, what each draw depends on), or
    None if it draws none.  So a key names the seed only where a draw feeds
    its pass."""
    comm, endorse = cfg.comm_latency, cfg.endorse_time
    generation = ("generation", cfg.generation_mode, cfg.total_rate, cfg.horizon,
                  ("generation", seed) if cfg.generation_mode == "exponential" else None)
    labels = ("labels", generation, cfg.target_ratio, cfg.n_channels,
              ("key-assign", seed) if cfg.target_ratio != 1.0 else None)
    deliveries = ("deliveries", generation, cfg.transmit_time, cfg.discipline, None)
    loss = ("loss", deliveries, cfg.stp, ("channel-loss", seed) if cfg.stp < 1.0 else None)
    comm = ("comm", loss, comm, ("comm-latency", seed, comm) if comm.kind == "exp" else None)
    endorsement = ("endorsement", comm, endorse, cfg.n_endorsers,
                   ("endorse", seed, endorse, cfg.n_endorsers) if endorse.kind == "exp" else None)
    return generation, labels, deliveries, loss, comm, endorsement


def run_front(cfg, seed, record=False):
    """Generation through endorsement of one run.

    It draws the generation, key-assign, channel-split, channel-loss,
    comm-latency and endorse streams in the order of the event-heap model of
    the pipeline, and reads every draw that the model reads, so `run_back`
    over it gives that model's result.  At `target_ratio` 1 it draws no key
    uniform: every one would put its proposal on the target key, and no
    other draw follows from it.  With `record` false it keeps the target-key
    endorsements only.
    """
    return Fronts().front(cfg, seed, record)


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


def _draws(stream, draw):
    """The draws draw(rng) of a stream, (its id, the seed, ...), for
    `Fronts.draws`: an iterator of those numbered start .. stop - 1."""
    rng = make_stream(stream[1], stream[0])
    return lambda start, stop: map(draw, itertools.repeat(rng, stop - start))


def _labels(fronts, stream, gen_times, target_ratio, n_channels):
    """Whether each proposal is on the target key, and its channel, in
    generation order: the target key stays on channel 0."""
    if stream is None:  # target_ratio 1: u < 1 for every key uniform, so none is drawn
        return [True] * len(gen_times), array("i", [0]) * len(gen_times)
    keys = fronts.draws(stream, len(gen_times), _draws, Random.random)
    is_target = [u < target_ratio for u in keys]
    if n_channels == 1:
        return is_target, array("i", [0]) * len(gen_times)
    randrange = make_stream(stream[1], "channel-split").randrange
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


def _loss(fronts, stream, served, at, stp):
    """The deliveries that pass, in delivery order, and whether each
    delivery passed (None if all do)."""
    if stream is None:  # stp 1
        return served, at, None
    passed = [u < stp for u in fronts.draws(stream, len(served), _draws, Random.random)]
    return list(itertools.compress(served, passed)), list(itertools.compress(at, passed)), passed


def _comm(fronts, stream, at, comm):
    """The arrival times: each passed delivery's time plus its comm latency."""
    if stream is None:  # a fixed latency: a column of 8 bytes per time
        return at if comm.value == 0.0 else array("d", [t + comm.value for t in at])
    return [t + c for t, c in zip(at, fronts.draws(stream, len(at), _draws, comm.sample))]


def _endorsement(fronts, stream, served, at, comm, endorse):
    """(done, order, ordered, proposal): the endorse-done times in delivery
    order, the endorse-done order of the deliveries (None if it is theirs),
    the times in that order (`done` itself then), and each one's proposal in
    that order.

    Where the comm latency and the endorsement are both fixed, the order is
    the deliveries' own, unchecked: the deliveries come in time order, loss
    keeps it, and adding one constant to every time keeps it too."""
    if endorse.kind == "fixed":
        # a + 0.0 is a for every time (none is -0.0), so an array is kept
        done = (at if endorse.value == 0.0 and at.__class__ is array
                else array("d", [a + endorse.value for a in at]))
    else:
        # summed straight into the column: no list of the sums besides the delays
        done = array("d", map(operator.add, at, fronts.draws(stream, len(at), _endorse_delays)))
    if (endorse.kind == comm.kind == "fixed"
            or all(map(operator.le, done, itertools.islice(done, 1, None)))):
        return done, None, done, served
    # one sort, keyed by a list (an array would make a float per key); the
    # ordered times are read through the order
    times = done.tolist()
    order = sorted(range(len(times)), key=times.__getitem__)  # stable: ties in delivery order
    proposal = order if served.__class__ is range else [served[i] for i in order]
    return done, order, array("d", [times[i] for i in order]), array("i", proposal)


def _endorse_delays(stream):
    """The endorsement delays of stream ("endorse", seed, the delay, n), over
    n endorsers, for `Fronts.draws`: a list of those numbered start ..
    stop - 1, each `Delay.sample_max` of the endorse stream, inline."""
    _, seed, endorse, n_endorsers = stream
    random, log, expm1 = make_stream(seed, "endorse").random, math.log, math.expm1
    scale = -endorse.value  # `sample_max`'s -mean * x is (-mean) * x
    rng = None  # after a zero uniform, the stream drawn again through `sample_max`

    def more(start, stop):
        nonlocal rng
        if rng is None:
            try:
                if n_endorsers == 1:  # x / 1 is x for every float
                    return [scale * log(-expm1(log(random())))
                            for _ in itertools.repeat(None, stop - start)]
                return [scale * log(-expm1(log(random()) / n_endorsers))
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
    # proposals waiting for the channel, in generation order (see the module docstring)
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


def _timeline(part, block_size, timeout, order_time, overhead, per_tx, joins):
    """(stops, readys, ends): the blocks of one channel's endorse-done times
    `part`, block k being part[stops[k - 1]:stops[k]], from 0 to len(part),
    with each block's ready time and completion.  It reads no label.

    A block holds `block_size` endorsements, or fewer when its deadline (its
    first endorsement's time plus `timeout`) passes before the next one or
    the stream ends; one due at the very deadline goes first iff joins(it,
    the block's first).  A block whose last endorsement is due before its
    deadline is cut at its size in one step; only a block that its deadline
    may cut is stepped through.  It is ready at its cut plus `order_time`,
    and completes by Lindley's recursion (see the module docstring).
    """
    n, prev, full = len(part), -math.inf, overhead + per_tx * block_size
    readys, ends = [], []
    add_ready, add_end = readys.append, ends.append
    if block_size == 1:  # every endorsement is a block, cut at its size
        for t in part:
            ready = t + order_time
            prev = (ready if ready >= prev else prev) + full
            add_ready(ready)
            add_end(prev)
        return range(1, n + 1), readys, ends
    stops = array("q")
    add_stop = stops.append
    s, step = 0, block_size - 1
    while s < n:
        deadline = part[s] + timeout
        last = s + step
        t = part[last] if last < n else math.inf
        if t < deadline:  # cut at its size
            ready, validation = t + order_time, full
            s = last + 1
        else:
            stop = last + 1 if last < n else n
            j = s + 1
            while j < stop and (part[j] < deadline or part[j] == deadline and joins(j, s)):
                j += 1
            if j - s == block_size:
                ready, validation = part[j - 1] + order_time, full
            else:
                ready, validation = deadline + order_time, overhead + per_tx * (j - s)
            s = j
        prev = (ready if ready >= prev else prev) + validation
        add_stop(s)
        add_ready(ready)
        add_end(prev)
    return stops, readys, ends


class _ReadView:
    """What every back over one front reads of its stream alone
    (`Front.view`).

    `positions[c]` is channel c's stream positions (None at one channel:
    every one), and `parts[c]` their endorse-done times.  `nums_of[c]` is
    channel c's numbers in stream order: every channel's in a full record,
    channel 0's alone in a lean one.  `reads` is the target key's reads on
    channel 0, (js, ys, ts): their indices into the channel's part, their
    numbers and their times, in stream order.
    """

    __slots__ = ("positions", "parts", "nums_of", "reads")

    def __init__(self, front, n_channels):
        stream, done, keys, record = front.stream, front.done, front.key, front.record
        positions = [None]
        if n_channels > 1:
            on = ([-1 - x if x < 0 else 0 for x in stream] if front.channel is None
                  else [front.channel[x] for x in stream])
            positions = [[] for _ in range(n_channels)]
            adds = [pos.append for pos in positions]
            for i, c in enumerate(on):
                adds[c](i)
        parts = [done if pos is None else array("d", [done[i] for i in pos]) for pos in positions]
        nums_of = [stream if pos is None else [stream[i] for i in pos]
                   for pos in positions[:None if record else 1]]
        nums, part = nums_of[0], parts[0]
        if record:
            js = [j for j, y in enumerate(nums) if keys[y] == TARGET_KEY]
        elif len(nums) == len(front.gen_time):  # no marker on channel 0
            js = range(len(nums))
        else:  # a lean front keeps the target key's endorsements only
            js = [j for j, y in enumerate(nums) if y >= 0]
        self.positions, self.parts, self.nums_of = positions, parts, nums_of
        # arrays, since the view lives as long as its front; the numbers are
        # the stream's own ints
        self.reads = (js, nums, part) if js.__class__ is range else (
            array("i", js), [nums[j] for j in js], array("d", [part[j] for j in js]))


def run_back(cfg, seed, front):
    """Batching through commit of one run over a front of the same seed and
    of a config that differs from `cfg` in back fields only: a timeline per
    channel, then the target pass, or, for a lean back at block size 1 on one
    channel over a stream of every endorsement in delivery order, one loop
    that does both (see the module docstring).

    The result is `run_once(cfg, seed, record=front.record)`'s: a full
    record's holds the record's ten columns, the front's and the back's own.
    """
    record = front.record
    horizon, n_channels = cfg.horizon, cfg.n_channels
    block_size, timeout = cfg.block_size, cfg.timeout
    order_time = ordering_delay(cfg)
    overhead, per_tx = cfg.validate_block_overhead, cfg.validate_per_tx

    stream, done = front.stream, front.done
    n = len(stream)
    if n and done[0] < 0.0:  # the stream is in time order, from a clock at 0
        raise SimulationError(f"event at t={done[0]} behind clock t=0.0")
    if (block_size == 1 and n_channels == 1 and not record and stream.__class__ is range
            and front.endorse_done is done):
        return _one_loop_back(cfg, seed, front)
    view = front.view
    if view is None:
        view = front.view = _ReadView(front, n_channels)
    ties = _Dispatches(front, block_size, timeout, order_time)
    parts, joins, precedes = ties.parts, ties.joins, ties.precedes

    # The timeline of each channel's part of the stream, which reads no label.
    readys_of = []
    for pos, part in zip(view.positions, view.parts):
        stops, readys, ends = _timeline(
            part, block_size, timeout, order_time, overhead, per_tx,
            joins if pos is None else lambda j, s, pos=pos: joins(pos[j], pos[s]))
        parts.append((pos, part, stops, ends))
        readys_of.append(readys)

    # VSCC draws once per member as its block commits: a channel's blocks in
    # their order, the channels' in completion order, an exact tie in the
    # (time, seq) order of their validation-completes.
    fails = None
    if cfg.vscc_fail_prob > 0.0:
        random, fail_prob = make_stream(seed, "vscc").random, cfg.vscc_fail_prob
        draws = [random() < fail_prob for _ in itertools.repeat(None, n)]
        fails = [draws]
        if n_channels > 1:
            blocks = sorted((end, k * n_channels + c) for c, (_, _, _, ends) in enumerate(parts)
                            for k, end in enumerate(ends))
            for i in range(1, len(blocks)):
                while i and blocks[i - 1][0] == blocks[i][0] and precedes(
                        -3 - 3 * blocks[i][1], -3 - 3 * blocks[i - 1][1]):
                    blocks[i - 1], blocks[i] = blocks[i], blocks[i - 1]
                    i -= 1
            fails, taken = [bytearray(len(part)) for _, part, _, _ in parts], iter(draws)
            for _, b in blocks:
                k, c = divmod(b, n_channels)
                stops = parts[c][2]
                lo, hi = stops[k - 1] if k else 0, stops[k]
                fails[c][lo:hi] = bytes(itertools.islice(taken, hi - lo))

    keys, gen_time = front.key, front.gen_time
    n_kept = len(gen_time)
    if record:  # every member's stamps from its block: one pair of times per block
        order_done, commit_time = [None] * n_kept, [None] * n_kept
        validity, captured = [VALID] * n_kept, [0] * n_kept
        for c, ((_, _, stops, ends), readys, on_c) in enumerate(zip(parts, readys_of, view.nums_of)):
            for y, k in zip(on_c, _blocks(stops)):
                order_done[y], commit_time[y] = readys[k], ends[k]
            for j in itertools.compress(itertools.count(), fails[c] if fails else ()):
                validity[on_c[j]] = VSCC_INVALID

    # The target pass, over channel 0's target-key reads in stream order.  A
    # read is valid (MVCC first-wins) iff the block of the key's last valid
    # commit, lv, committed before it, at its completion (an exact tie in
    # (time, seq) order).  A full record's read took the valid commits of the
    # blocks committed before it.  Each valid read's block goes into
    # `block_of`, by its number (-1: not a valid target-key read), which the
    # latency means read.  The commits follow the channel's completions, which
    # never decrease, so only a commit not after its generation is refused.
    path = AoISamplePath(0.0, horizon)
    add_reset = path.resets.append
    freshest = -math.inf
    n_mvcc_invalid = 0
    block_of = [-1] * n_kept
    js, ys, ts = view.reads
    pos, part, stops, ends = parts[0]
    p_of = int if pos is None else pos.__getitem__  # a read's stream position
    step = 3 * n_channels  # block k's validation-complete: -3 - step * k
    valid = []  # the block of each valid commit, in a full record
    uniform = len(stops) * block_size == len(part)  # read j is then in block j // B
    lv, lv_end, b = -1, -math.inf, 0
    if fails is None:
        fails_0 = itertools.repeat(False)
    else:
        fails_0 = fails[0] if js.__class__ is range else [fails[0][j] for j in js]
    for j, y, t, failed in zip(js, ys, ts, fails_0):
        if lv_end < t or lv_end == t and stops[lv] <= j and precedes(-3 - step * lv, p_of(j)):
            if record:
                captured[y] = len(valid)
            if failed:
                continue
            if uniform:
                b = j // block_size
            else:  # the reads come in stream order, so the block only moves on
                while stops[b] <= j:
                    b += 1
            lv = b
            end = lv_end = ends[b]
            block_of[y] = b
            gen = gen_time[y]
            if end <= horizon:
                if end <= gen:
                    raise SimulationError(f"commit time {end} not after generation time {gen}")
                if gen > freshest:
                    add_reset((end, gen))
                    freshest = gen
            if record:
                valid.append(b)
            continue
        if record:
            # It read the valid commits of the blocks completed before it, none
            # at its instant: the next valid read would share it, and reads share
            # one only when injected, which go before every block there.
            captured[y] = bisect_left(valid, bisect_left(ends, t, 0, lv))
            if failed:
                continue
            validity[y] = MVCC_INVALID
        elif failed:
            continue
        n_mvcc_invalid += 1

    # The latency means of the valid target-key endorsements, each summed in
    # delivery order, as the event-heap model's post-pass sums them.  They
    # read every block's times, so they come before the cut at the horizon.
    readys, ends = readys_of[0], parts[0][3]
    comm = endorse = order = validate = 0.0
    n_target = 0
    for b, gen, a, e in zip(block_of, gen_time, front.arrive_time, front.endorse_done):
        if b >= 0:
            o = readys[b]
            comm += a - gen
            endorse += e - a
            order += o - e
            validate += ends[b] - o
            n_target += 1

    # The record is the front's columns and the back's, in `RECORD_FIELDS`
    # order: one (order_done, commit_time) pair of objects per block, and the
    # front's generation floats, which serve as arrival times too where the
    # front has one column for both.
    columns = (front.id, keys, front.channel, gen_time, front.arrive_time, front.endorse_done,
               captured, order_done, commit_time, validity) if record else None
    return _result(front, horizon, path, [ends for _, _, _, ends in parts],
                   (comm, endorse, order, validate), n_target, n_mvcc_invalid,
                   0 if fails is None else draws.count(True), columns)


def _one_loop_back(cfg, seed, front):
    """`run_back` over a lean front whose stream is its every endorsement in
    delivery order, at block size 1 on one channel: endorsement k is block k
    and the target key's read k, and its endorse-done column is `done`
    itself, so one loop runs the timeline, the target pass and the latency
    means, in the order and with the float operations of the two parts."""
    horizon, order_time = cfg.horizon, ordering_delay(cfg)
    validation = cfg.validate_block_overhead + cfg.validate_per_tx
    done = front.done
    ends = []
    ties = _Dispatches(front, 1, cfg.timeout, order_time)
    ties.parts.append((None, done, range(1, len(done) + 1), ends))
    precedes, add_end = ties.precedes, ends.append
    fails, n_vscc_invalid = itertools.repeat(False), 0
    if cfg.vscc_fail_prob > 0.0:
        random, fail_prob = make_stream(seed, "vscc").random, cfg.vscc_fail_prob
        fails = [random() < fail_prob for _ in itertools.repeat(None, len(done))]
        n_vscc_invalid = fails.count(True)
    path = AoISamplePath(0.0, horizon)
    add_reset = path.resets.append
    freshest = end = lv_end = -math.inf
    lv = -1
    comm = endorse = order = validate = 0.0
    n_mvcc_invalid, k = 0, -1
    for t, gen, a, failed in zip(done, front.gen_time, front.arrive_time, fails):
        k += 1
        ready = t + order_time
        end = (ready if ready >= end else end) + validation
        add_end(end)
        if lv_end < t or lv_end == t and precedes(-3 - 3 * lv, k):
            if failed:
                continue
            lv, lv_end = k, end
            if end <= horizon:
                if end <= gen:
                    raise SimulationError(f"commit time {end} not after generation time {gen}")
                if gen > freshest:
                    add_reset((end, gen))
                    freshest = gen
            comm += a - gen
            endorse += t - a
            order += ready - t
            validate += end - ready
        elif not failed:
            n_mvcc_invalid += 1
    # every read is valid, MVCC-invalid or VSCC-invalid
    n_target = len(done) - n_mvcc_invalid - n_vscc_invalid
    return _result(front, horizon, path, [ends], (comm, endorse, order, validate), n_target,
                   n_mvcc_invalid, n_vscc_invalid)


def _result(front, horizon, path, ends_of, sums, n_target, n_mvcc_invalid, n_vscc_invalid,
            columns=None):
    """The `RunResult` of a back: the latency means from their sums over the
    valid target-key endorsements, and each channel's block completions
    (`ends_of`), which every block reaches in the drained run, cut at the
    horizon."""
    means = [s / n_target for s in sums] if n_target else [None] * 4
    blocks_committed = 0
    for ends in ends_of:
        blocks_committed += len(ends)
        del ends[bisect_right(ends, horizon):]
    block_times = sorted(itertools.chain.from_iterable(ends_of)) if len(ends_of) > 1 else ends_of[0]
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
        columns=columns,
        lost=front.lost,
    )


def _blocks(stops):
    """The block of each member of a channel's part, from its blocks' stops."""
    if stops.__class__ is range:  # one member each
        return range(len(stops))
    sizes = map(operator.sub, stops, itertools.chain((0,), stops))
    return list(itertools.chain.from_iterable(map(itertools.repeat, itertools.count(), sizes)))


class _Dispatches:
    """The dispatches of one back, as far as an exact tie needs them.

    A dispatch is an int: endorsement i of the front is i, and block b (its
    channel c's k-th, b = k * n_channels + c) has its timeout -1 - 3b, if its
    deadline cut it, its block-ready -2 - 3b and its validation-complete
    -3 - 3b.  A back dispatch's time, and the dispatch that scheduled it, are
    read off its channel's blocks (`parts`) when a tie asks.
    """

    __slots__ = ("front", "block_size", "timeout", "order_time", "parts", "known")

    def __init__(self, front, block_size, timeout, order_time):
        self.front = front
        self.block_size, self.timeout, self.order_time = block_size, timeout, order_time
        # per channel's timeline: its stream positions (None: every one),
        # their endorse-done times, its blocks' stops and completions (the
        # floats that end as the run's `block_times`)
        self.parts = []
        self.known = {}  # validation-complete -> (its time, its parent)

    def slot(self, i):
        """The slot dispatch that delivered endorsement i."""
        return self.front.timeline()[2][self.front.proposal[i]]

    def joins(self, j, s):
        """Whether endorsement j goes before the deadline, due at its very
        instant, of the batch that endorsement s began: iff j was delivered
        before s's dispatch, which scheduled the deadline's timeout."""
        return self.slot(j) < self.slots_before(s)

    def event(self, d):
        """(time, the dispatch that scheduled it) of back dispatch d."""
        b, kind = divmod(-1 - d, 3)
        n_channels = len(self.parts)
        k, c = divmod(b, n_channels)
        pos, part, stops, ends = self.parts[c]
        start, stop = stops[k - 1] if k else 0, stops[k]
        deadline = part[start] + self.timeout
        if kind == 0:  # the timeout, scheduled by the batch's first endorsement
            return deadline, start if pos is None else pos[start]
        if kind == 1:  # the block-ready, scheduled by its cut
            if stop - start < self.block_size:
                return deadline + self.order_time, d + 1
            return part[stop - 1] + self.order_time, stop - 1 if pos is None else pos[stop - 1]
        # The validation-complete, scheduled by the later of the block-ready
        # and the channel's last validation-complete, at a tie by the one
        # dispatched second.  Kept: a run of ties asks for it at each step.
        known = self.known.get(d)
        if known is None:
            ready = self.event(d + 1)[0]
            prev = ends[k - 1] if k else -math.inf
            last = d + 3 * n_channels
            known = self.known[d] = (
                ends[k], last if ready < prev or ready == prev and self.precedes(d + 1, last)
                else d + 1)
        return known

    def slots_before(self, d):
        """The number of slot dispatches before dispatch d."""
        front = self.front
        slot_time, slot_sched, _ = front.timeline()
        instants = []  # (lo, hi): the slot dispatches at each dispatch's instant
        while True:
            t, parent = (front.done[d], None) if d >= 0 else self.event(d)
            lo = bisect_left(slot_time, t)
            hi = bisect_right(slot_time, t, lo)
            if lo == hi:
                n = lo
                break
            instants.append((lo, hi))
            if d >= 0:  # an endorse-done, scheduled by the slot dispatch that delivered it
                n = self.slot(d)
                break
            d = parent
        # a slot dispatch at a dispatch's instant goes first iff the slot
        # dispatch that scheduled it precedes the one that scheduled that dispatch
        for lo, hi in reversed(instants):
            n = bisect_left(slot_sched, n, lo, hi)
        return n

    def precedes(self, a, b):
        """Whether dispatch a comes before dispatch b, a different one, in the
        event-heap model's (time, seq) order."""
        done = self.front.done
        while True:
            ta, pa = (done[a], None) if a >= 0 else self.event(a)
            tb, pb = (done[b], None) if b >= 0 else self.event(b)
            if ta != tb:
                return ta < tb
            if a >= 0:
                if b >= 0:
                    return a < b
                return self.slot(a) < self.slots_before(pb)
            if b >= 0:
                return self.slot(b) >= self.slots_before(pa)
            a, b = pa, pb  # each dispatch schedules at most one back event
