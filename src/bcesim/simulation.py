"""One simulation run: the record it returns and the call that makes it.

Generation stops at the horizon; the rest of the pipeline then drains, so
every proposal resolves to exactly one outcome (valid, mvcc_invalid,
vscc_invalid, or lost) and the outcome counts partition the generated count.
Age resets and block commit times are recorded up to the horizon.  A run
reads no measurement field (`warmup`, `target_aoi`): its record is the same
for every value of them, and `experiments.summarize` alone applies them to
it.

A run is its front and its back (`bcesim.frontback`): `run_front` draws
generation through endorsement, each random stream in a pass of its own, and
`run_back` runs batching, ordering, validation and commit.  The back is a
timeline per channel, which reads no label: each block's cut, ready time and
completion, at which it commits.  Then one pass over the target key's reads
decides MVCC first-wins by the blocks that committed before each read.
Neither half keeps an event heap; the `frontback` docstring gives the tie
rule that puts every event in the (time, seq) order of the event-heap model
in `tests/des_oracle.py`.  Runs that differ only in back fields
(`config.BACK_FIELDS`) share one front.

A run's caller says whether it needs the per-transaction record.  A full
run keeps every delivered transaction, every lost proposal and each
channel's ledger.  It keeps the transactions as ten columns, one per
`Transaction` field in delivery order (`RunResult.columns`), which the trace
is written from; `RunResult.transactions` builds the Transactions from them
at its first access, for the callers that read a record one transaction at a
time.  A lean run (``record=False``) keeps only what `summarize` reads: the
AoI resets, the block commit times, the outcome counts and the latency means.
Its front keeps the target-key endorsements only, as numbers with a column
per time, and its back sums the latency means over those columns in delivery
order, the order of the full record.  Neither builds a Transaction as it
runs.  A background key is its proposal's unique id, never written before,
so its MVCC check always passes: a lean run neither reads nor writes it in
the ledger.  Outcomes are counted as blocks commit, in either mode.

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
from dataclasses import dataclass
from functools import cached_property

from .metrics import AoISamplePath, LatencyBreakdown
from .pipeline import Transaction


@dataclass
class RunResult:
    path: AoISamplePath  # every reset up to the horizon
    block_times: list  # ascending commit times of the blocks committed by the horizon
    blocks_committed: int  # total over the drained run
    breakdown: LatencyBreakdown  # latency means and every outcome count
    # `columns`, `lost` and `ledgers` are None in a lean run.
    columns: tuple | None  # one column per Transaction field, in delivery order
    lost: list | None  # (id, key, channel, gen_time) of dropped proposals
    ledgers: list | None  # final LedgerState per channel

    @cached_property
    def transactions(self):
        """Every delivered Transaction, in delivery order (None in a lean
        run): built from `columns` at the first access, and kept."""
        if self.columns is None:
            return None
        return list(map(Transaction, *self.columns))


def run_once(cfg, seed, record=True):
    """Single-threaded, deterministic run of one configuration and seed.

    With `record` false the run is lean: `columns`, `transactions`, `lost`
    and `ledgers` are None, and every other field is as in a full run.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        # imported at the first run, so that importing bcesim compiles none of it
        from .frontback import run_back, run_front

        return run_back(cfg, seed, run_front(cfg, seed, record))
    finally:
        if collecting:
            gc.enable()
