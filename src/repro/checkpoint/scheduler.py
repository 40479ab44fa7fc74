"""When to checkpoint: operation-count or sim-time triggers.

The scheduler is deliberately dumb and deterministic: callers feed it
progress (:meth:`CheckpointScheduler.note_op`) and poll
:meth:`~CheckpointScheduler.maybe_checkpoint` at operation boundaries.
Once a trigger fires the scheduler stays *due* until a checkpoint
actually completes — a quiescent policy may skip while transactions are
active, and the sticky flag turns that skip into deferral rather than a
lost checkpoint.

:func:`sim_checkpointer` is the timed-simulation counterpart: a
generator process that periodically drives an architecture's
``take_checkpoint`` hook (used by the parallel architectures in
``repro.core``; duck-typed so this layer-0 package imports neither the
machine nor the architectures).
"""

from __future__ import annotations

from typing import Optional

from repro.checkpoint.policy import CheckpointStats

__all__ = ["CheckpointScheduler", "sim_checkpointer"]


class CheckpointScheduler:
    """Sticky-due checkpoint trigger on operation count."""

    def __init__(self, every_ops: Optional[int] = None):
        if every_ops is not None and every_ops < 1:
            raise ValueError("every_ops must be at least 1")
        self.every_ops = every_ops
        self._ops = 0
        self._due = False
        self.taken = 0
        self.skipped = 0

    # -- progress feed -------------------------------------------------------
    def note_op(self, n: int = 1) -> None:
        self._ops += n
        if self.every_ops is not None and self._ops >= self.every_ops:
            self._due = True

    @property
    def due(self) -> bool:
        return self._due

    def mark_taken(self) -> None:
        self._due = False
        self._ops = 0
        self.taken += 1

    # -- the poll ------------------------------------------------------------
    def maybe_checkpoint(self, manager) -> Optional[CheckpointStats]:
        """Take a checkpoint if one is due; None when not due.

        A skipped checkpoint (quiescence deferral) leaves the scheduler
        due, so the next boundary retries.
        """
        if not self._due:
            return None
        stats = manager.take_checkpoint()
        if stats.skipped:
            self.skipped += 1
            return stats
        self.mark_taken()
        return stats


def sim_checkpointer(env, architecture, interval_ms: float):
    """Generator process: drive ``architecture.take_checkpoint()`` on a timer."""
    if interval_ms <= 0:
        raise ValueError("checkpoint interval must be positive")
    while True:
        yield env.timeout(interval_ms)
        yield from architecture.take_checkpoint()
