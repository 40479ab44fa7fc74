"""Property-based tests: every recovery manager obeys the same contract.

A hypothesis state machine drives each manager through arbitrary
interleavings of begin / write / commit / abort / crash+recover (and, for
the WAL manager, page steals), alongside a trivial reference model that
remembers the last committed value of every page.  Invariants:

* **durability** — committed values survive any suffix of operations,
  including crashes;
* **atomicity** — uncommitted or aborted writes never become visible;
* page-level lock discipline is respected by construction (the machine
  only reads or writes pages not held by another active transaction);
* **isolation** — a transaction reading a page it has not written sees
  the last committed value, and the read locks the page.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.storage import (
    CommandLoggingManager,
    DifferentialFileManager,
    DistributedWalManager,
    OverwriteVariant,
    OverwritingManager,
    RedoOnlyWalManager,
    ShadowPageTableManager,
    VersionSelectionManager,
)

PAGES = st.integers(min_value=0, max_value=7)
VALUES = st.binary(min_size=0, max_size=4)


class RecoveryContract(RuleBasedStateMachine):
    """Shared contract machine; subclasses provide ``make_manager``."""

    def make_manager(self):
        raise NotImplementedError

    def __init__(self):
        super().__init__()
        self.manager = self.make_manager()
        #: The reference model: last committed value per page.
        self.committed = {}
        #: tid -> {page: value} for active transactions.
        self.pending = {}
        #: tid -> pages an active transaction has read but not written;
        #: the read took the page's lock.
        self.read_locks = {}

    # -- helpers ---------------------------------------------------------------
    def _held_by_other(self, tid, page):
        return any(
            page in self.pending[other] or page in self.read_locks.get(other, ())
            for other in self.pending
            if other != tid
        )

    def _end(self, tid):
        self.read_locks.pop(tid, None)
        return self.pending.pop(tid)

    # -- rules -----------------------------------------------------------------
    @rule()
    def begin(self):
        if len(self.pending) >= 3:
            return
        tid = self.manager.begin()
        self.pending[tid] = {}

    @precondition(lambda self: self.pending)
    @rule(page=PAGES, value=VALUES, pick=st.integers(min_value=0, max_value=10))
    def write(self, page, value, pick):
        tid = sorted(self.pending)[pick % len(self.pending)]
        if self._held_by_other(tid, page):
            return  # respect page-level locking
        self.manager.write(tid, page, value)
        self.pending[tid][page] = value

    @precondition(lambda self: self.pending)
    @rule(pick=st.integers(min_value=0, max_value=10))
    def commit(self, pick):
        tid = sorted(self.pending)[pick % len(self.pending)]
        self.manager.commit(tid)
        self.committed.update(self._end(tid))

    @precondition(lambda self: self.pending)
    @rule(pick=st.integers(min_value=0, max_value=10))
    def abort(self, pick):
        tid = sorted(self.pending)[pick % len(self.pending)]
        self.manager.abort(tid)
        self._end(tid)

    @rule()
    def crash_and_recover(self):
        self.manager.crash()
        self.manager.recover()
        self.pending.clear()
        self.read_locks.clear()

    @precondition(lambda self: self.pending)
    @rule(pick=st.integers(min_value=0, max_value=10))
    def read_your_writes(self, pick):
        tid = sorted(self.pending)[pick % len(self.pending)]
        for page, value in self.pending[tid].items():
            assert self.manager.read(tid, page) == value

    @precondition(lambda self: self.pending)
    @rule(page=PAGES, pick=st.integers(min_value=0, max_value=10))
    def read_committed_value(self, page, pick):
        """A live transaction reads a page it has not written."""
        tid = sorted(self.pending)[pick % len(self.pending)]
        if page in self.pending[tid] or self._held_by_other(tid, page):
            return
        assert self.manager.read(tid, page) == self.committed.get(page, b""), (
            f"page {page}: read by live t{tid} ({self.manager.name})"
        )
        self.read_locks.setdefault(tid, set()).add(page)

    # -- invariant -----------------------------------------------------------------
    @invariant()
    def committed_state_matches_model(self):
        for page in range(8):
            expected = self.committed.get(page, b"")
            actual = self.manager.read_committed(page)
            assert actual == expected, (
                f"page {page}: expected {expected!r}, got {actual!r} "
                f"({self.manager.name})"
            )


_SETTINGS = settings(max_examples=40, stateful_step_count=30, deadline=None)


class WalContract(RecoveryContract):
    def make_manager(self):
        return DistributedWalManager(n_logs=3)

    @precondition(lambda self: self.manager.dirty_pages)
    @rule(pick=st.integers(min_value=0, max_value=10))
    def steal_a_page(self, pick):
        """Flush a dirty page mid-transaction (steal) — recovery must cope."""
        dirty = sorted(self.manager.dirty_pages)
        self.manager.flush_page(dirty[pick % len(dirty)])

    @rule()
    def checkpoint(self):
        self.manager.checkpoint()


class WalSingleLogContract(RecoveryContract):
    def make_manager(self):
        return DistributedWalManager(n_logs=1)


class ShadowContract(RecoveryContract):
    def make_manager(self):
        return ShadowPageTableManager()


class NoUndoContract(RecoveryContract):
    def make_manager(self):
        return OverwritingManager(OverwriteVariant.NO_UNDO)


class NoRedoContract(RecoveryContract):
    def make_manager(self):
        return OverwritingManager(OverwriteVariant.NO_REDO)


class VersionsContract(RecoveryContract):
    def make_manager(self):
        return VersionSelectionManager()


class DifferentialContract(RecoveryContract):
    def make_manager(self):
        return DifferentialFileManager()


class CommandLoggingContract(RecoveryContract):
    """Low threshold so both record kinds (cmd and phys) get exercised."""

    def make_manager(self):
        return CommandLoggingManager(physical_threshold=2)

    @precondition(lambda self: self.manager.dirty_pages)
    @rule(pick=st.integers(min_value=0, max_value=10))
    def steal_a_page(self, pick):
        """The no-steal gate makes this a no-op for uncommitted pages."""
        dirty = sorted(self.manager.dirty_pages)
        self.manager.flush_page(dirty[pick % len(dirty)])

    @rule()
    def checkpoint(self):
        self.manager.checkpoint()


class RedoOnlyContract(RecoveryContract):
    def make_manager(self):
        return RedoOnlyWalManager()

    @precondition(lambda self: self.manager.dirty_pages)
    @rule(pick=st.integers(min_value=0, max_value=10))
    def steal_a_page(self, pick):
        """The no-steal gate makes this a no-op for uncommitted pages."""
        dirty = sorted(self.manager.dirty_pages)
        self.manager.flush_page(dirty[pick % len(dirty)])

    @rule()
    def checkpoint(self):
        self.manager.checkpoint()


TestWalContract = WalContract.TestCase
TestWalSingleLogContract = WalSingleLogContract.TestCase
TestShadowContract = ShadowContract.TestCase
TestNoUndoContract = NoUndoContract.TestCase
TestNoRedoContract = NoRedoContract.TestCase
TestVersionsContract = VersionsContract.TestCase
TestDifferentialContract = DifferentialContract.TestCase
TestCommandLoggingContract = CommandLoggingContract.TestCase
TestRedoOnlyContract = RedoOnlyContract.TestCase

for case in (
    TestWalContract,
    TestWalSingleLogContract,
    TestShadowContract,
    TestNoUndoContract,
    TestNoRedoContract,
    TestVersionsContract,
    TestDifferentialContract,
    TestCommandLoggingContract,
    TestRedoOnlyContract,
):
    case.settings = _SETTINGS
