"""One simulation run: wires workload, pipeline, ledger, and metrics together.

Generation stops at the horizon; the remaining events then drain so every
proposal resolves to exactly one outcome (valid, mvcc_invalid, vscc_invalid,
or lost) and the outcome counts partition the generated count.  Age resets
are only recorded up to the horizon, and statistics are taken on the path
restricted to [warmup, horizon].  The warmup never changes the run itself, so
a result keeps the whole path and can be re-windowed for any other warmup.
"""

from bisect import bisect_left
from dataclasses import dataclass

from .core import EventKind, EventQueue, make_stream
from .ledger import LedgerState
from .metrics import AoISamplePath, LatencyBreakdown, latency_breakdown
from .pipeline import (
    ChannelState,
    Transaction,
    commit_block,
    endorse_delay,
    ordering_delay,
    validate_block,
    validation_duration,
)
from .workload import TARGET_KEY, Proposal, TransmitterQueue, assign_key, next_generation_time

_GENERATION = int(EventKind.GENERATION)
_TRANSMIT_COMPLETE = int(EventKind.TRANSMIT_COMPLETE)
_ENDORSE_COMPLETE = int(EventKind.ENDORSE_COMPLETE)
_TIMEOUT_FIRE = int(EventKind.TIMEOUT_FIRE)
_BLOCK_READY = int(EventKind.BLOCK_READY)
_VALIDATION_COMPLETE = int(EventKind.VALIDATION_COMPLETE)


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


class Simulator:
    """Single-threaded, deterministic run of one configuration and seed.

    `arrivals` bypasses the workload entirely: a list of
    (arrive_time, endorse_delay, key, gen_time) tuples injected straight into
    the endorsing phase of channel 0's pipeline (used by tests to drive the
    pipeline with a known sub-workload).
    """

    def __init__(self, cfg, seed, arrivals=None):
        cfg.validate()
        self.cfg = cfg
        self.src = cfg.source()
        self.params = cfg.chain()
        self.svc = cfg.services()
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
            ChannelState(i, self.params, LedgerState(i))
            for i in range(self.params.n_channels)
        ]
        self.txq = TransmitterQueue(self.src.discipline)
        self.channel_busy = False
        self.transactions = []
        self.lost = []
        self.n_generated = 0
        self.n_delivered = 0
        self.blocks_committed = 0
        self.block_times = []
        self._next_id = 1
        self._raw_path = AoISamplePath(0.0, cfg.horizon)
        self._ordering_delay = ordering_delay(self.params, self.svc)

    def run(self):
        queue = self.queue
        if self.arrivals is None:
            first = next_generation_time(self.src, 0.0, self.rng_gen)
            if first <= self.cfg.horizon:
                queue.schedule(first, _GENERATION)
        else:
            for arrive, delay, key, gen_time in self.arrivals:
                tx = Transaction(self._next_id, key, 0, gen_time, arrive)
                self._next_id += 1
                self.n_generated += 1
                self.n_delivered += 1
                self.transactions.append(tx)
                queue.schedule(arrive + delay, _ENDORSE_COMPLETE, tx)

        while True:
            ev = queue.next_event()
            if ev is None:
                break
            t, _, kind, payload = ev
            if kind == _GENERATION:
                self._on_generation(t)
            elif kind == _ENDORSE_COMPLETE:
                self._on_endorse_complete(t, payload)
            elif kind == _TRANSMIT_COMPLETE:
                self._on_transmit_complete(t, payload)
            elif kind == _TIMEOUT_FIRE:
                self._on_timeout(t, payload)
            elif kind == _BLOCK_READY:
                self._on_block_ready(t, payload)
            elif kind == _VALIDATION_COMPLETE:
                self._on_validation_complete(t, payload)
        return self.result()

    # -- workload events ---------------------------------------------------

    def _on_generation(self, t):
        pid = self._next_id
        self._next_id += 1
        self.n_generated += 1
        key = assign_key(self.src, self.rng_key, pid)
        if key == TARGET_KEY or self.params.n_channels == 1:
            channel = 0
        else:
            channel = self.rng_split.randrange(self.params.n_channels)
        prop = Proposal(pid, key, channel, t)
        if self.src.transmit_time == 0.0 and not self.channel_busy and not len(self.txq):
            # zero occupancy: the channel never queues, resolve in place
            self._resolve_transmission(prop, t)
        else:
            self.txq.push(prop)
            if not self.channel_busy:
                self._start_transmission(t)
        nxt = next_generation_time(self.src, t, self.rng_gen)
        if nxt <= self.cfg.horizon:
            self.queue.schedule(nxt, _GENERATION)

    def _start_transmission(self, t):
        prop = self.txq.pop()
        self.channel_busy = True
        self.queue.schedule(t + self.src.transmit_time, _TRANSMIT_COMPLETE, prop)

    def _on_transmit_complete(self, t, prop):
        self.channel_busy = False
        self._resolve_transmission(prop, t)
        if len(self.txq):
            self._start_transmission(t)

    def _resolve_transmission(self, prop, t):
        src = self.src
        if src.stp >= 1.0 or self.rng_loss.random() < src.stp:
            arrive = t
            if src.comm_latency.value != 0.0:
                arrive += src.comm_latency.sample(self.rng_comm)
            self.n_delivered += 1
            tx = Transaction(prop.id, prop.key, prop.channel, prop.gen_time, arrive)
            self.transactions.append(tx)
            delay = endorse_delay(self.params, self.svc, self.rng_endorse)
            self.queue.schedule(arrive + delay, _ENDORSE_COMPLETE, tx)
        else:
            self.lost.append((prop.id, prop.key, prop.channel, prop.gen_time))

    # -- pipeline events ---------------------------------------------------

    def _on_endorse_complete(self, t, tx):
        ch = self.channels[tx.channel]
        tx.endorse_done = t
        tx.captured_version = ch.ledger.read_version(tx.key)
        block, deadline = ch.submit(tx, t)
        if block is not None:
            self._dispatch_block(block)
        elif deadline is not None:
            self.queue.schedule(deadline, _TIMEOUT_FIRE, (ch, ch.batch_id))

    def _on_timeout(self, t, payload):
        ch, batch_id = payload
        block = ch.fire_timeout(batch_id, t)
        if block is not None:
            self._dispatch_block(block)

    def _dispatch_block(self, block):
        ready = block.cut_time + self._ordering_delay
        for tx in block.txs:
            tx.order_done = ready
        self.queue.schedule(ready, _BLOCK_READY, block)

    def _on_block_ready(self, t, block):
        ch = self.channels[block.channel]
        if ch.validator_busy:
            ch.validation_queue.append(block)
        else:
            self._start_validation(ch, block, t)

    def _start_validation(self, ch, block, t):
        ch.validator_busy = True
        duration = validation_duration(self.svc, len(block.txs))
        self.queue.schedule(t + duration, _VALIDATION_COMPLETE, block)

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
        warmup = self.cfg.warmup
        path = self._raw_path.restricted(warmup, self.cfg.horizon)
        breakdown = latency_breakdown(
            self.transactions, len(self.lost), self.n_generated, TARGET_KEY
        )
        return RunResult(
            path=path,
            breakdown=breakdown,
            transactions=self.transactions,
            lost=self.lost,
            n_generated=self.n_generated,
            n_delivered=self.n_delivered,
            blocks_committed=self.blocks_committed,
            blocks_in_window=_count_from(self.block_times, warmup),
            ledgers=[ch.ledger for ch in self.channels],
            full_path=self._raw_path,
            block_times=self.block_times,
        )


def run_once(cfg, seed, arrivals=None):
    """Convenience wrapper: build, run, and return the RunResult."""
    return Simulator(cfg, seed, arrivals=arrivals).run()
