"""Checkpoint-interval analysis: restart cost vs checkpoint cadence.

The paper's Section 6 argument is a trade-off: checkpoints spend normal-
case work (flushing, compacting, garbage collection) to bound the
recovery data a restart must reprocess.  This module measures both sides
on the functional engines — drive a seeded workload with a
:class:`~repro.checkpoint.CheckpointScheduler` at a given cadence, crash
at the end, and count exactly what recovery reads and writes
(:class:`~repro.storage.stable.StableStorage` counters) — then prices
the measured volumes on the simulated hardware via
:func:`~repro.analysis.restart.estimate_functional_restart`, next to an
analytic bound derived only from the cadence.  The crashtest proves
recovery *correct* at every crash point; this answers how *long* it
takes, and how the answer moves with the checkpoint interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.restart import RestartEstimate, estimate_functional_restart
from repro.checkpoint import CheckpointScheduler
from repro.faults.harness import DEFAULT_PAGES, apply_op, generate_ops, make_manager
from repro.machine.config import MachineConfig

__all__ = [
    "CheckpointRunStats",
    "analytic_restart_bound",
    "run_with_checkpoints",
]


@dataclass(frozen=True)
class CheckpointRunStats:
    """One workload run at one checkpoint cadence, crashed and recovered."""

    architecture: str
    #: Operations between scheduler triggers (None: never checkpoint).
    checkpoint_every: Optional[int]
    checkpoints_taken: int
    checkpoints_skipped: int
    #: Normal-case cost: recovery-data records appended during the run.
    overhead_records: int
    #: Normal-case cost: stable-page writes during the run.
    overhead_page_writes: int
    #: Restart work: records read by ``recover()`` + a full committed sweep.
    restart_records: int
    restart_page_reads: int
    restart_page_writes: int
    #: The measured restart volumes priced on the simulated hardware.
    measured: RestartEstimate
    #: Cadence-only analytic bound on the same restart.
    analytic: RestartEstimate

    @property
    def restart_pages_touched(self) -> int:
        return self.restart_page_reads + self.restart_page_writes


def analytic_restart_bound(
    architecture: str,
    checkpoint_every: Optional[int],
    total_ops: int,
    total_records: int,
    n_pages: int,
    config: Optional[MachineConfig] = None,
) -> RestartEstimate:
    """Restart bound from the cadence alone (no post-crash measurement).

    A checkpoint bounds the un-reprocessed recovery data to what the
    workload produced since the last one: at most ``checkpoint_every``
    operations' worth of records (the whole run when never
    checkpointing) at the run's own mean record rate.  Restart scans
    that residue once and a read-side architecture (version selection's
    commit-order scan, notably) may rescan it once more per database
    page, hence the ``n_pages + 1`` factor; every database page may also
    need a read plus a write.  The envelope is deliberately loose —
    sticky-due deferral and per-architecture compaction only ever
    shrink the residue — so measured restarts sit at or below it.
    """
    if total_ops < 1:
        raise ValueError("need at least one operation to derive a record rate")
    residual_ops = (
        total_ops if checkpoint_every is None
        else min(checkpoint_every, total_ops)
    )
    records_per_op = total_records / total_ops
    residual_records = math.ceil(records_per_op * residual_ops) * (n_pages + 1)
    pages_touched = 2 * n_pages
    if architecture == "command":
        # Logical replay re-executes every residual committed command —
        # one random page write each — so the residue, not the database
        # size, bounds the redo pass (Section 6's trade, amplified: the
        # cheapest normal-case log pays the most re-execution at restart).
        pages_touched += math.ceil(records_per_op * residual_ops)
    return estimate_functional_restart(
        architecture,
        records_scanned=residual_records,
        pages_touched=pages_touched,
        config=config,
    )


def run_with_checkpoints(
    arch: str,
    seed: int,
    checkpoint_every: Optional[int],
    n_transactions: int = 40,
    n_pages: int = DEFAULT_PAGES,
    config: Optional[MachineConfig] = None,
) -> CheckpointRunStats:
    """Run a seeded workload with scheduled checkpoints, crash, recover.

    The scheduler polls at every operation boundary; no checkpoint is
    forced at the end, so the residual recovery data at the crash
    reflects the cadence — a shorter interval leaves less to reprocess.
    Measured restart work is the storage-counter delta across
    ``recover()`` plus a read of every database page (the read path is
    where version selection and shadow paging pay their restart cost).
    """
    manager = make_manager(arch)
    ops = generate_ops(seed, n_transactions, n_pages)
    scheduler = (
        CheckpointScheduler(every_ops=checkpoint_every)
        if checkpoint_every is not None
        else None
    )
    tids: Dict[int, int] = {}
    committed: Dict[int, bytes] = {}
    pending: Dict[int, Dict[int, bytes]] = {}
    for op in ops:
        apply_op(manager, op, tids, committed, pending)
        if scheduler is not None:
            scheduler.note_op()
            scheduler.maybe_checkpoint(manager)
    stable = manager.stable
    overhead_records = stable.records_appended
    overhead_page_writes = stable.page_writes
    manager.crash()
    records_before = stable.records_read
    reads_before = stable.page_reads
    writes_before = stable.page_writes
    manager.recover()
    for page in range(n_pages):
        manager.read_committed(page)
    restart_records = stable.records_read - records_before
    restart_page_reads = stable.page_reads - reads_before
    restart_page_writes = stable.page_writes - writes_before
    measured = estimate_functional_restart(
        arch,
        records_scanned=restart_records,
        pages_touched=restart_page_reads + restart_page_writes,
        config=config,
    )
    analytic = analytic_restart_bound(
        arch,
        checkpoint_every,
        total_ops=len(ops),
        total_records=overhead_records,
        n_pages=n_pages,
        config=config,
    )
    return CheckpointRunStats(
        architecture=arch,
        checkpoint_every=checkpoint_every,
        checkpoints_taken=scheduler.taken if scheduler is not None else 0,
        checkpoints_skipped=scheduler.skipped if scheduler is not None else 0,
        overhead_records=overhead_records,
        overhead_page_writes=overhead_page_writes,
        restart_records=restart_records,
        restart_page_reads=restart_page_reads,
        restart_page_writes=restart_page_writes,
        measured=measured,
        analytic=analytic,
    )
