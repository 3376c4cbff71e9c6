"""Reference event-heap engine that `bcesim.frontback.run_once` must match.

`run_once` is a front and a back (`bcesim.frontback`), passes over whole-run
lists with no event heap.  This engine is the model they reproduce: every
event goes through one min-heap ordered by (time, seq), where seq is
assigned in scheduling order, each phase has its own handler method, and the
transmitter queue pops by a linear scan.  Keys and generation times are drawn
by helper functions, a block is validated in one pass and committed in a
second, and the outcome counts and latency means are taken in a pass over
the finished trace.  It draws every RNG stream in the same order as
`run_once`, so both produce identical runs; the equivalence tests in
`test_simulation.py` hold them to that, field by field, including the order
of events due at one instant.

The engine keeps no ledger and builds no object per transaction.  This
module holds the test-side views of its record: `transactions` reads a full
record's columns as Transactions, and `final_ledgers` derives each channel's
final ledger from them, which the oracle's own `LedgerState`s check.  The
oracle builds its sample path commit by commit (`CommitPath`), checking each
commit as it comes.
"""

import enum
import heapq
import math
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass

from bcesim.config import ordering_delay
from bcesim.core import SimulationError, make_stream
from bcesim.frontback import (
    MVCC_INVALID,
    RECORD_FIELDS,
    TARGET_KEY,
    VALID,
    VSCC_INVALID,
    Front,
    RunResult,
)
from bcesim.metrics import AoISamplePath, LatencyBreakdown


class LedgerState:
    """Versioned key-value state, one instance per channel.

    Only version numbers and generation timestamps are stored; the values
    themselves never influence timing, so they are not modeled.  Absent keys
    read as version 0 and every successful commit increments by exactly 1.
    """

    __slots__ = ("versions", "gen_times")

    def __init__(self):
        self.versions = {}  # key -> version
        self.gen_times = {}  # key -> generation time of the last committed update


class Transaction:
    """One delivered update: a row of a full record (`transactions`), or one
    in flight through the oracle, with a field per name of `RECORD_FIELDS`."""

    __slots__ = RECORD_FIELDS

    def __init__(self, *fields):
        for name, value in zip(RECORD_FIELDS, fields, strict=True):
            setattr(self, name, value)


def transactions(result):
    """Every delivered Transaction of a run's full record, in delivery order
    (None for a lean run)."""
    if result.columns is None:
        return None
    return list(map(Transaction, *result.columns))


def final_ledgers(result):
    """Each channel's final ledger, derived from a full record's columns: for
    each key, the version of its last valid commit (`captured_version + 1`,
    the highest) and that commit's `gen_time`.  A channel with no valid
    commit reads as an empty ledger."""
    ledgers = defaultdict(LedgerState)
    for tx in transactions(result):
        if tx.validity == VALID:
            ledger = ledgers[tx.channel]
            version = tx.captured_version + 1
            if version > ledger.versions.get(tx.key, 0):
                ledger.versions[tx.key] = version
                ledger.gen_times[tx.key] = tx.gen_time
    return ledgers


class CommitPath(AoISamplePath):
    """An AoISamplePath built one commit at a time, as the event-heap model
    commits: it keeps the last commit and the freshest generation seen."""

    __slots__ = ("last_commit", "freshest_gen")

    def __init__(self, start, end):
        super().__init__(start, end)
        self.last_commit = self.freshest_gen = -math.inf

    def record_commit(self, t_u, t_g):
        """Register a committed update; appended as a reset only if fresher."""
        if t_u < self.last_commit:
            raise SimulationError(
                f"commit at t={t_u} behind previous commit at t={self.last_commit}"
            )
        if t_u <= t_g:
            raise SimulationError(f"commit time {t_u} not after generation time {t_g}")
        self.last_commit = t_u
        if t_g > self.freshest_gen:
            self.resets.append((t_u, t_g))
            self.freshest_gen = t_g


@dataclass
class OracleResult(RunResult):
    """The oracle's RunResult, with what the engine does not keep."""

    ledgers: list  # each channel's final LedgerState


def read_version(ledger, key):
    """The version of `key` in a channel's ledger: 0 if it was never written."""
    return ledger.versions.get(key, 0)


def apply_update(ledger, key, gen_time):
    """Commit one update; caller must have passed MVCC for this key."""
    version = ledger.versions.get(key, 0) + 1
    ledger.versions[key] = version
    ledger.gen_times[key] = gen_time
    return version


def entries(ledger):
    """Snapshot of the full key -> (version, last_gen_time) map."""
    return {key: (version, ledger.gen_times[key]) for key, version in ledger.versions.items()}


def arrivals_front(arrivals):
    """A full-record front whose endorsements are the injected arrivals, each
    (arrive_time, endorse_delay, key, gen_time), on channel 0, ahead of every
    back event at the same instant (they were all scheduled before the run),
    so tests can drive `bcesim.frontback.run_back` with a known sub-workload.
    Only the target key may repeat: a background key is its proposal's own,
    as in the model."""
    background = [key for _, _, key, _ in arrivals if key != TARGET_KEY]
    if len(set(background)) < len(background):
        raise ValueError(f"a background key repeats: {background}")
    n = len(arrivals)
    arrive = array("d", [a for a, _, _, _ in arrivals])
    endorse_done = array("d", [a + delay for a, delay, _, _ in arrivals])
    stream = sorted(range(n), key=endorse_done.__getitem__)  # stable: ties in order
    # each arrival is its own proposal, delivered before the first slot dispatch
    return Front(stream, array("d", [endorse_done[i] for i in stream]), range(n),
                 (array("d"), array("i"), array("i", [-1]) * n),
                 array("d", [g for _, _, _, g in arrivals]), arrive, endorse_done,
                 list(range(1, n + 1)), [key for _, _, key, _ in arrivals], array("i", [0]) * n,
                 [], n, 0)


# The validity of a transaction that has not committed yet.
PENDING = "pending"


def _pending(tid, key, channel, gen_time, arrive_time):
    """A delivered transaction before its endorsement, ordering and commit."""
    return Transaction(tid, key, channel, gen_time, arrive_time, None, None, None, None, PENDING)


class Proposal:
    def __init__(self, pid, key, channel, gen_time):
        self.id, self.key, self.channel, self.gen_time = pid, key, channel, gen_time


class Block:
    def __init__(self, txs, cut_time, channel):
        self.txs, self.cut_time, self.channel = txs, cut_time, channel


def next_generation_time(cfg, now, rng):
    """Time of the next proposal: exact period in periodic mode, Exp draw otherwise."""
    if cfg.generation_mode == "periodic":
        return now + 1.0 / cfg.total_rate
    return now + rng.expovariate(cfg.total_rate)


def assign_key(cfg, rng, fresh_key):
    """Target key with probability target_ratio, else the given unique background key."""
    if rng.random() < cfg.target_ratio:
        return TARGET_KEY
    return fresh_key


def validate_block(block, ledger, vscc_fail_prob, rng):
    """Mark each transaction valid / mvcc_invalid / vscc_invalid, in block order.

    A transaction passes MVCC iff its captured version equals the current
    ledger version plus the commits earlier transactions of this same block
    will apply.  Never touches the ledger.
    """
    pending = {}
    for tx in block.txs:
        if vscc_fail_prob > 0.0 and rng.random() < vscc_fail_prob:
            tx.validity = VSCC_INVALID
            continue
        current = read_version(ledger, tx.key) + pending.get(tx.key, 0)
        if tx.captured_version == current:
            tx.validity = VALID
            pending[tx.key] = pending.get(tx.key, 0) + 1
        else:
            tx.validity = MVCC_INVALID


def latency_breakdown(transactions, n_lost, n_generated, target_key):
    """Aggregate a finished transaction trace into a LatencyBreakdown."""
    n_valid = n_mvcc = n_vscc = 0
    sums = [0.0, 0.0, 0.0, 0.0]
    n_target = 0
    for tx in transactions:
        if tx.validity == VALID:
            n_valid += 1
        elif tx.validity == MVCC_INVALID:
            n_mvcc += 1
        elif tx.validity == VSCC_INVALID:
            n_vscc += 1
        if tx.key == target_key and tx.validity == VALID:
            n_target += 1
            sums[0] += tx.arrive_time - tx.gen_time
            sums[1] += tx.endorse_done - tx.arrive_time
            sums[2] += tx.order_done - tx.endorse_done
            sums[3] += tx.commit_time - tx.order_done
    means = [s / n_target for s in sums] if n_target else [None] * 4
    return LatencyBreakdown(
        comm_lat=means[0],
        endorse_lat=means[1],
        order_lat=means[2],
        validate_lat=means[3],
        n_generated=n_generated,
        n_valid=n_valid,
        n_mvcc_invalid=n_mvcc,
        n_vscc_invalid=n_vscc,
        n_lost=n_lost,
    )


def commit_block(block, ledger, completion):
    """Apply every valid update and stamp commit times on all transactions.

    Returns the committed (valid) transactions.
    """
    committed = []
    for tx in block.txs:
        tx.commit_time = completion
        if tx.validity == VALID:
            apply_update(ledger, tx.key, tx.gen_time)
            committed.append(tx)
    return committed


class EventKind(enum.IntEnum):
    GENERATION = 0
    TRANSMIT_COMPLETE = 1
    ENDORSE_COMPLETE = 2
    TIMEOUT_FIRE = 3
    BLOCK_READY = 4
    VALIDATION_COMPLETE = 5


class EventQueue:
    """Min-heap of events ordered by (time, seq) with the virtual clock.

    The clock advances only in next_event(), to the time of the event being
    dispatched, so it never decreases.
    """

    __slots__ = ("_heap", "_seq", "clock")

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.clock = 0.0

    def schedule(self, time, kind, payload=None):
        """Insert an event; returns its seq number (the event id)."""
        if time < self.clock:
            raise SimulationError(
                f"scheduled event at t={time} behind clock t={self.clock}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, int(kind), payload))
        return seq

    def next_event(self):
        """Pop the minimum (time, seq) event and advance the clock; None when empty."""
        if not self._heap:
            return None
        ev = heapq.heappop(self._heap)
        self.clock = ev[0]
        return ev

    def __len__(self):
        return len(self._heap)


class ScanQueue:
    """Transmitter queue whose pop scans every waiting proposal.

    FCFS pops the smallest (gen_time, insertion seq), LCFS the largest.
    """

    def __init__(self, discipline):
        self.discipline = discipline
        self._items = []  # (gen_time, insertion seq, proposal)
        self._seq = 0

    def push(self, proposal):
        self._items.append((proposal.gen_time, self._seq, proposal))
        self._seq += 1

    def pop(self):
        items = self._items
        pick = min if self.discipline == "fcfs" else max
        i = pick(range(len(items)), key=lambda j: (items[j][0], items[j][1]))
        return items.pop(i)[2]

    def __len__(self):
        return len(self._items)


class ChannelState:
    """Per-channel pipeline state: pending ordering batch and the serial validator."""

    def __init__(self, channel, cfg, ledger):
        self.channel = channel
        self.cfg = cfg
        self.ledger = ledger
        self.batch = []
        self.batch_id = 0  # bumped at every cut; stale timeouts carry an old id
        self.validation_queue = deque()
        self.validator_busy = False

    def submit(self, tx, now):
        """Append an endorsed transaction; returns (cut block or None, new deadline or None)."""
        self.batch.append(tx)
        if len(self.batch) >= self.cfg.block_size:
            return self._cut(now), None
        if len(self.batch) == 1:
            return None, now + self.cfg.timeout
        return None, None

    def fire_timeout(self, batch_id, now):
        """Cut the armed batch, unless it was already cut (stale deadline)."""
        if batch_id != self.batch_id or not self.batch:
            return None
        return self._cut(now)

    def _cut(self, now):
        block = Block(self.batch, now, self.channel)
        self.batch = []
        self.batch_id += 1
        return block


class Simulator:
    """One run of a configuration and seed; `arrivals` as in
    `arrivals_front`."""

    def __init__(self, cfg, seed, arrivals=None):
        cfg.validate()
        self.cfg = cfg
        self.queue = EventQueue()
        self.arrivals = arrivals

        self.rng_gen = make_stream(seed, "generation")
        self.rng_key = make_stream(seed, "key-assign")
        self.rng_loss = make_stream(seed, "channel-loss")
        self.rng_comm = make_stream(seed, "comm-latency")
        self.rng_endorse = make_stream(seed, "endorse")
        self.rng_vscc = make_stream(seed, "vscc")
        self.rng_split = make_stream(seed, "channel-split")

        self.channels = [
            ChannelState(i, cfg, LedgerState())
            for i in range(cfg.n_channels)
        ]
        self.txq = ScanQueue(cfg.discipline)
        self.channel_busy = False
        self.transactions = []
        self.lost = []
        self.n_generated = 0
        self.blocks_committed = 0
        self.block_times = []
        self._next_id = 1
        self._raw_path = CommitPath(0.0, cfg.horizon)
        self._ordering_delay = ordering_delay(cfg)

    def run(self):
        queue = self.queue
        if self.arrivals is None:
            first = next_generation_time(self.cfg, 0.0, self.rng_gen)
            if first <= self.cfg.horizon:
                queue.schedule(first, EventKind.GENERATION)
        else:
            for arrive, delay, key, gen_time in self.arrivals:
                tx = _pending(self._next_id, key, 0, gen_time, arrive)
                self._next_id += 1
                self.n_generated += 1
                self.transactions.append(tx)
                queue.schedule(arrive + delay, EventKind.ENDORSE_COMPLETE, tx)

        handlers = {
            EventKind.GENERATION: self._on_generation,
            EventKind.ENDORSE_COMPLETE: self._on_endorse_complete,
            EventKind.TRANSMIT_COMPLETE: self._on_transmit_complete,
            EventKind.TIMEOUT_FIRE: self._on_timeout,
            EventKind.BLOCK_READY: self._on_block_ready,
            EventKind.VALIDATION_COMPLETE: self._on_validation_complete,
        }
        while True:
            ev = queue.next_event()
            if ev is None:
                break
            t, _, kind, payload = ev
            handlers[kind](t, payload)
        return self.result()

    # -- workload events ---------------------------------------------------

    def _on_generation(self, t, _):
        pid = self._next_id
        self._next_id += 1
        self.n_generated += 1
        key = assign_key(self.cfg, self.rng_key, pid)
        if key == TARGET_KEY or self.cfg.n_channels == 1:
            channel = 0
        else:
            channel = self.rng_split.randrange(self.cfg.n_channels)
        prop = Proposal(pid, key, channel, t)
        if self.cfg.transmit_time == 0.0 and not self.channel_busy and not len(self.txq):
            # zero occupancy: the channel never queues, resolve in place
            self._resolve_transmission(prop, t)
        else:
            self.txq.push(prop)
            if not self.channel_busy:
                self._start_transmission(t)
        nxt = next_generation_time(self.cfg, t, self.rng_gen)
        if nxt <= self.cfg.horizon:
            self.queue.schedule(nxt, EventKind.GENERATION)

    def _start_transmission(self, t):
        prop = self.txq.pop()
        self.channel_busy = True
        self.queue.schedule(t + self.cfg.transmit_time, EventKind.TRANSMIT_COMPLETE, prop)

    def _on_transmit_complete(self, t, prop):
        self.channel_busy = False
        self._resolve_transmission(prop, t)
        if len(self.txq):
            self._start_transmission(t)

    def _resolve_transmission(self, prop, t):
        cfg = self.cfg
        if cfg.stp >= 1.0 or self.rng_loss.random() < cfg.stp:
            arrive = t
            if cfg.comm_latency.value != 0.0:
                arrive += cfg.comm_latency.sample(self.rng_comm)
            tx = _pending(prop.id, prop.key, prop.channel, prop.gen_time, arrive)
            self.transactions.append(tx)
            delay = cfg.endorse_time.sample_max(self.rng_endorse, cfg.n_endorsers)
            self.queue.schedule(arrive + delay, EventKind.ENDORSE_COMPLETE, tx)
        else:
            self.lost.append((prop.id, prop.key, prop.channel, prop.gen_time))

    # -- pipeline events ---------------------------------------------------

    def _on_endorse_complete(self, t, tx):
        ch = self.channels[tx.channel]
        tx.endorse_done = t
        tx.captured_version = read_version(ch.ledger, tx.key)
        block, deadline = ch.submit(tx, t)
        if block is not None:
            self._dispatch_block(block)
        elif deadline is not None:
            self.queue.schedule(deadline, EventKind.TIMEOUT_FIRE, (ch, ch.batch_id))

    def _on_timeout(self, t, payload):
        ch, batch_id = payload
        block = ch.fire_timeout(batch_id, t)
        if block is not None:
            self._dispatch_block(block)

    def _dispatch_block(self, block):
        ready = block.cut_time + self._ordering_delay
        for tx in block.txs:
            tx.order_done = ready
        self.queue.schedule(ready, EventKind.BLOCK_READY, block)

    def _on_block_ready(self, t, block):
        ch = self.channels[block.channel]
        if ch.validator_busy:
            ch.validation_queue.append(block)
        else:
            self._start_validation(ch, block, t)

    def _start_validation(self, ch, block, t):
        ch.validator_busy = True
        duration = self.cfg.validate_block_overhead + self.cfg.validate_per_tx * len(block.txs)
        self.queue.schedule(t + duration, EventKind.VALIDATION_COMPLETE, block)

    def _on_validation_complete(self, t, block):
        ch = self.channels[block.channel]
        validate_block(block, ch.ledger, self.cfg.vscc_fail_prob, self.rng_vscc)
        committed = commit_block(block, ch.ledger, t)
        if t <= self.cfg.horizon:
            for tx in committed:
                if tx.key == TARGET_KEY:
                    self._raw_path.record_commit(t, tx.gen_time)
            self.block_times.append(t)
        self.blocks_committed += 1
        ch.validator_busy = False
        if ch.validation_queue:
            self._start_validation(ch, ch.validation_queue.popleft(), t)

    # -- results -----------------------------------------------------------

    def result(self):
        return OracleResult(
            path=self._raw_path,
            block_times=self.block_times,
            blocks_committed=self.blocks_committed,
            breakdown=latency_breakdown(
                self.transactions, len(self.lost), self.n_generated, TARGET_KEY
            ),
            columns=tuple([getattr(tx, field) for tx in self.transactions]
                          for field in RECORD_FIELDS),
            lost=self.lost,
            ledgers=[ch.ledger for ch in self.channels],
        )


def run_oracle(cfg, seed, arrivals=None):
    return Simulator(cfg, seed, arrivals=arrivals).run()
