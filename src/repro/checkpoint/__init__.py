"""Checkpointing: bounded-restart recovery across the five architectures.

``policy`` defines the three checkpoint disciplines of the paper's design
space (quiescent, fuzzy, snapshot-consistent) as templates over each
recovery manager's own checkpoint steps, and ``scheduler`` decides when
to take one (operation count or simulated time).  See docs/CHECKPOINT.md
for the policy catalogue and the per-architecture mapping to the paper's
Section 6 restart assumptions.
"""

from repro.checkpoint.policy import (
    CHECKPOINT_FILE,
    CheckpointError,
    CheckpointPolicy,
    CheckpointRecord,
    CheckpointStats,
    CheckpointUnsupported,
    FuzzyCheckpoint,
    QuiescentCheckpoint,
    SnapshotCheckpoint,
)
from repro.checkpoint.scheduler import CheckpointScheduler, sim_checkpointer

__all__ = [
    "CHECKPOINT_FILE",
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointRecord",
    "CheckpointScheduler",
    "CheckpointStats",
    "CheckpointUnsupported",
    "FuzzyCheckpoint",
    "QuiescentCheckpoint",
    "SnapshotCheckpoint",
    "sim_checkpointer",
]
