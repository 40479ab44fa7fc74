"""Exceptions of the functional storage engine."""

from __future__ import annotations

__all__ = [
    "LockConflict",
    "RecoveryStateError",
    "StorageError",
    "UnknownTransaction",
]


class StorageError(Exception):
    """Base class for storage-engine errors."""


class RecoveryStateError(StorageError):
    """``recover()`` was called on a manager that never crashed.

    Restart algorithms assume volatile state is gone; running one over a
    live manager would silently mix volatile and reconstructed state.
    """


class UnknownTransaction(StorageError):
    """An operation named a transaction id that is not active."""


class LockConflict(StorageError):
    """A page-level lock request conflicts with another active transaction."""

    def __init__(self, tid: int, page: int, holder: int):
        super().__init__(
            f"transaction {tid} cannot lock page {page}: held by {holder}"
        )
        self.tid = tid
        self.page = page
        self.holder = holder
