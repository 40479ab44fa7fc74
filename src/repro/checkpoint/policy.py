"""Checkpoint policies: the paper's Section 6 restart-bounding mechanisms.

The paper's restart analysis assumes every architecture periodically
checkpoints so that restart cost is bounded by the checkpoint interval
rather than by the length of history.  Three policies cover the design
space the five architectures occupy:

* :class:`QuiescentCheckpoint` — wait until no transaction is active,
  compact the recovery data, write a checkpoint record.  The only option
  for mechanisms whose recovery data cannot distinguish "old committed"
  from "current committed" without the full commit history (version
  selection).
* :class:`FuzzyCheckpoint` — record the active-transaction table and the
  dirty-page table and compact *around* live transactions without ever
  draining them (the paper's Section 3.1 claim for parallel logging).
* :class:`SnapshotCheckpoint` — for the shadow and differential families
  the atomically-installed snapshot (page-table root, merged base file)
  *is* the checkpoint; taking one just flips/merges and reclaims garbage.

A policy is a template: :meth:`CheckpointPolicy.take` brackets the
manager's own checkpoint steps — ``checkpoint_compact()``,
``recovery_volume()`` and ``checkpoint_dirty_pages()`` — with the shared
bookkeeping — quiescence check, active/dirty capture, durable
:data:`CHECKPOINT_FILE` record — and crosses ``_fault_point`` hooks at
every step so the crashtest sweep covers crash-during-checkpoint.
Recovery managers declare which policy they follow via the
``checkpoint_policy`` class attribute (reprolint rule ARCH03), and
``take_checkpoint()`` runs that template directly.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

__all__ = [
    "CHECKPOINT_FILE",
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointRecord",
    "CheckpointStats",
    "CheckpointUnsupported",
    "FuzzyCheckpoint",
    "QuiescentCheckpoint",
    "SnapshotCheckpoint",
]

#: Stable file holding one record per completed checkpoint.  Append-only:
#: recovery may read it, nothing ever truncates it (the "checkpoint-lost"
#: harness oracle counts on that).
CHECKPOINT_FILE = "checkpoints"


class CheckpointError(Exception):
    """A checkpoint request that cannot be honored correctly."""


class CheckpointUnsupported(CheckpointError):
    """The manager declares no checkpoint capability."""


class CheckpointRecord(NamedTuple):
    """One durable checkpoint: what restart needs to know to start here."""

    seq: int
    kind: str
    #: Transactions active when the checkpoint began (fuzzy: the ATT).
    active: Tuple[int, ...]
    #: Buffered pages not yet on stable storage (fuzzy: the DPT).
    dirty_pages: Tuple[int, ...]
    #: Recovery-data volume (records) retained after compaction.
    retained: int
    #: Architecture-specific facts, as sorted (key, value) pairs.
    payload: Tuple[Tuple[str, int], ...]


class CheckpointStats(NamedTuple):
    """Outcome of one checkpoint attempt."""

    record: Optional[CheckpointRecord]
    skipped: bool
    reason: Optional[str]
    #: Recovery-data records reclaimed by the compaction.
    reclaimed: int


class CheckpointPolicy:
    """Template for taking one checkpoint against a recovery manager."""

    kind = "abstract"
    requires_quiescence = False

    @classmethod
    def take(cls, manager) -> CheckpointStats:
        """Run the checkpoint protocol; returns what happened.

        Crash-safe at every hook crossing: the compaction steps are
        individually atomic-or-redundant, and the checkpoint record is
        pure metadata appended last.
        """
        manager._fault_point(f"checkpoint.{cls.kind}.begin")
        if cls.requires_quiescence and manager.active_transactions:
            # Sticky deferral: the caller (scheduler/harness) retries at a
            # later operation boundary instead of force-draining.
            manager._fault_point(f"checkpoint.{cls.kind}.skip")
            return CheckpointStats(None, True, "active-transactions", 0)
        active = tuple(sorted(manager.active_transactions))
        dirty = manager.checkpoint_dirty_pages()
        before = manager.recovery_volume()
        payload = manager.checkpoint_compact()
        after = manager.recovery_volume()
        record = CheckpointRecord(
            seq=manager.stable.file_length(CHECKPOINT_FILE) + 1,
            kind=cls.kind,
            active=active,
            dirty_pages=dirty,
            retained=after,
            payload=tuple(sorted(payload.items())),
        )
        manager._fault_point(f"checkpoint.{cls.kind}.pre-record")
        manager.stable.append(CHECKPOINT_FILE, record)
        manager._fault_point(f"checkpoint.{cls.kind}.post-record")
        return CheckpointStats(record, False, None, max(0, before - after))


class QuiescentCheckpoint(CheckpointPolicy):
    """Drain (defer until no transaction is active), then compact."""

    kind = "quiescent"
    requires_quiescence = True


class FuzzyCheckpoint(CheckpointPolicy):
    """Record ATT + DPT and compact without draining transactions."""

    kind = "fuzzy"


class SnapshotCheckpoint(CheckpointPolicy):
    """The page-table / differential-file flip doubles as the checkpoint."""

    kind = "snapshot"
