"""A functional crash-recovery engine: the paper's algorithms, executable.

The timed simulator (:mod:`repro.machine` + :mod:`repro.core`) measures the
*performance* of the recovery architectures; this package demonstrates their
*correctness*.  Every architecture has a recovery manager implementing the
actual commit / abort / crash-restart logic over a two-level store
(volatile buffer pool + stable storage) with crash injection:

* :class:`DistributedWalManager` — write-ahead logging over N independent
  logs with restart that never merges them (paper Section 3.1 / ref [13]),
  plus fuzzy checkpointing without quiescing;
* :class:`ShadowPageTableManager` — copy-on-write slots with an atomic
  page-table root swap (Section 3.2.1);
* :class:`OverwritingManager` — the no-undo and no-redo scratch-ring
  variants with transaction lists that survive crashes (Section 3.2.2.2);
* :class:`VersionSelectionManager` — two timestamped blocks per page,
  current chosen at read time (Section 3.2.2.1);
* :class:`DifferentialFileManager` — tuple-level A/D files over a read-only
  base, reads evaluating (B u A) - D (Section 3.3).

Two modern challengers (:mod:`repro.storage.modern`) join the 1985 field
under the identical contract and harnesses:

* :class:`CommandLoggingManager` — adaptive command logging with
  dependency-aware parallel wave replay (Yao et al.);
* :class:`RedoOnlyWalManager` — redo-only WAL with early lock release
  and single-pass analysis+redo restart (Sauer & Härder).

All managers implement the same :class:`RecoveryManager` interface and the
same contract, checked by shared property-based tests: after any sequence
of operations, crashes, and recoveries, every committed transaction's
effects are durable and no uncommitted effect is visible.

:class:`BTree` stores its nodes as pages of any manager, encoded with the
record codec (:func:`encode_record`/:func:`decode_record`), so its page
splits commit, abort and survive crashes under every architecture.
"""

from repro.storage.archive import ArchiveDumpMixin
from repro.storage.btree import BTree, KeyTooLargeError
from repro.storage.differential import DifferentialFileManager
from repro.storage.errors import (
    LockConflict,
    StorageError,
    UnknownTransaction,
)
from repro.storage.interface import RecoveryManager
from repro.storage.modern import CommandLoggingManager, RedoOnlyWalManager
from repro.storage.overwrite import OverwritingManager, OverwriteVariant
from repro.storage.records import RecordCodecError, decode_record, encode_record
from repro.storage.shadow import ShadowPageTableManager
from repro.storage.stable import StableStorage
from repro.storage.versions import VersionSelectionManager
from repro.storage.wal import DistributedWalManager

__all__ = [
    "ArchiveDumpMixin",
    "BTree",
    "CommandLoggingManager",
    "DifferentialFileManager",
    "DistributedWalManager",
    "KeyTooLargeError",
    "LockConflict",
    "OverwriteVariant",
    "OverwritingManager",
    "RecordCodecError",
    "RecoveryManager",
    "RedoOnlyWalManager",
    "ShadowPageTableManager",
    "StableStorage",
    "StorageError",
    "UnknownTransaction",
    "VersionSelectionManager",
    "decode_record",
    "encode_record",
]
