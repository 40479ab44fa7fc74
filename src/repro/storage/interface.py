"""The common contract of every functional recovery manager.

Transactions are driven explicitly::

    manager = DistributedWalManager(n_logs=3)
    tid = manager.begin()
    manager.write(tid, page=1, data=b"hello")
    manager.commit(tid)
    manager.crash()      # wipe all volatile state
    manager.recover()    # restart algorithm
    assert manager.read_committed(1) == b"hello"

The contract (checked by the shared property-based tests in
``tests/test_storage_properties.py``):

* **durability** — after ``commit`` returns, the transaction's writes
  survive any number of crashes;
* **atomicity** — a transaction that never committed (aborted, or active
  at a crash) leaves no trace;
* **isolation** (page level) — with ``enforce_locks=True`` (default),
  conflicting concurrent page access raises :class:`LockConflict`,
  modeling the paper's page-level-locking scheduler.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.checkpoint import (
    CHECKPOINT_FILE,
    CheckpointRecord,
    CheckpointStats,
    CheckpointUnsupported,
)
from repro.storage.errors import LockConflict, RecoveryStateError, UnknownTransaction
from repro.storage.stable import StableStorage

__all__ = ["RecoveryManager"]


class RecoveryManager:
    """Base class: transaction registry, page locks, crash plumbing."""

    name = "abstract"

    #: Checkpoint capability (reprolint ARCH03): concrete managers bind the
    #: :class:`repro.checkpoint.CheckpointPolicy` subclass they implement,
    #: or set ``checkpoint_unsupported = True`` to opt out explicitly.
    checkpoint_policy: Optional[type] = None
    checkpoint_unsupported = False

    def __init__(
        self, stable: Optional[StableStorage] = None, enforce_locks: bool = True
    ):
        self.stable = stable if stable is not None else StableStorage()
        self.enforce_locks = enforce_locks
        self._next_tid = 1
        self._active: Set[int] = set()
        #: page -> owning transaction (exclusive page locks; readers of a
        #: page someone else is updating conflict, as under strict 2PL with
        #: the write set known up front).
        self._locks: Dict[int, int] = {}
        #: set once the first crash happens; ``recover()`` before that is
        #: a caller bug (see :class:`RecoveryStateError`).
        self._crashed = False
        self._fault_callback: Optional[Callable[[str], None]] = None

    # -- transaction control -------------------------------------------------
    def begin(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        self._active.add(tid)
        self._on_begin(tid)
        return tid

    def read(self, tid: int, page: int) -> bytes:
        self._check_active(tid)
        self._lock(tid, page)
        return self._do_read(tid, page)

    def write(self, tid: int, page: int, data: bytes) -> None:
        self._check_active(tid)
        self._lock(tid, page)
        self._do_write(tid, page, data)

    def commit(self, tid: int) -> None:
        self._check_active(tid)
        self._do_commit(tid)
        self._finish(tid)

    def abort(self, tid: int) -> None:
        self._check_active(tid)
        self._do_abort(tid)
        self._finish(tid)

    # -- crash / restart ----------------------------------------------------------
    def crash(self) -> None:
        """Lose every piece of volatile state (buffer pool, lock table,
        active transactions, unforced log tails).

        Idempotent: crashing an already-crashed manager is a no-op beyond
        re-clearing (already empty) volatile state, so a crash that lands
        *during recovery* can simply be followed by another ``crash()`` +
        ``recover()``.
        """
        self._crashed = True
        self._active.clear()
        self._locks.clear()
        self._on_crash()

    def recover(self) -> None:
        """Run the architecture's restart algorithm against stable storage.

        Only legal after at least one ``crash()``; repeated recovery after
        a single crash is allowed (restart algorithms are idempotent).
        Raises :class:`RecoveryStateError` on a never-crashed manager.
        """
        if not self._crashed:
            raise RecoveryStateError(
                f"recover() on {self.name!r} manager that never crashed; "
                "call crash() first"
            )
        self._on_recover()

    def read_committed(self, page: int) -> bytes:
        """The current committed value of ``page`` (outside any transaction)."""
        raise NotImplementedError

    # -- checkpointing -------------------------------------------------------
    def take_checkpoint(self) -> CheckpointStats:
        """Run this architecture's checkpoint protocol (see docs/CHECKPOINT.md).

        Runs the declared ``checkpoint_policy`` template over this
        manager's checkpoint steps: compacts the recovery data so restart
        is bounded by the checkpoint interval, then appends a durable
        :class:`CheckpointRecord`.  Raises :class:`CheckpointUnsupported`
        on a manager with no declared policy; a quiescent policy may
        *skip* (returned in the stats) while transactions are active.
        """
        if self.checkpoint_unsupported or self.checkpoint_policy is None:
            raise CheckpointUnsupported(
                f"{self.name!r} manager declares no checkpoint policy"
            )
        return self.checkpoint_policy.take(self)

    # -- checkpoint steps (the policy template calls these) ------------------
    def checkpoint_compact(self) -> Dict[str, int]:
        """Compact the recovery data; returns the record's payload facts."""
        raise CheckpointUnsupported(f"{self.name!r} manager has no compaction")

    def recovery_volume(self) -> int:
        """Recovery-data records a restart would have to scan right now."""
        return 0

    def checkpoint_dirty_pages(self) -> Tuple[int, ...]:
        """Pages dirty in the buffer pool at checkpoint begin (the DPT)."""
        return ()

    def checkpoint_count(self) -> int:
        """Durable checkpoints taken so far (survives crashes)."""
        return self.stable.file_length(CHECKPOINT_FILE)

    def last_checkpoint(self) -> Optional[CheckpointRecord]:
        """The most recent durable checkpoint record, if any."""
        records = self.stable.read_file(CHECKPOINT_FILE)
        return records[-1] if records else None

    # -- subclass hooks ---------------------------------------------------------------
    def _on_begin(self, tid: int) -> None:
        pass

    def _do_read(self, tid: int, page: int) -> bytes:
        raise NotImplementedError

    def _do_write(self, tid: int, page: int, data: bytes) -> None:
        raise NotImplementedError

    def _do_commit(self, tid: int) -> None:
        raise NotImplementedError

    def _do_abort(self, tid: int) -> None:
        raise NotImplementedError

    def _on_crash(self) -> None:
        raise NotImplementedError

    def _on_recover(self) -> None:
        raise NotImplementedError

    # -- fault injection -----------------------------------------------------------------
    def set_fault_callback(self, callback: Optional[Callable[[str], None]]) -> None:
        """Install (or clear) a hook-crossing callback.

        The callback receives the hook-point name each time execution
        crosses a named crash point (``wal.commit.pre-record``, ...) and
        may raise ``InjectedCrash`` to simulate a failure exactly there.
        """
        self._fault_callback = callback

    def _fault_point(self, name: str) -> None:
        if self._fault_callback is not None:
            self._fault_callback(name)

    # -- shared plumbing -----------------------------------------------------------------
    def _check_active(self, tid: int) -> None:
        if tid not in self._active:
            raise UnknownTransaction(f"transaction {tid} is not active")

    def _lock(self, tid: int, page: int) -> None:
        if not self.enforce_locks:
            return
        holder = self._locks.get(page)
        if holder is None:
            self._locks[page] = tid
        elif holder != tid:
            raise LockConflict(tid, page, holder)

    def _finish(self, tid: int) -> None:
        self._active.discard(tid)
        for page in [p for p, t in self._locks.items() if t == tid]:
            del self._locks[page]

    @property
    def active_transactions(self) -> Set[int]:
        return set(self._active)
