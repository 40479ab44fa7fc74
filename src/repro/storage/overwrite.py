"""Functional overwriting recovery: the no-undo and no-redo variants.

Both keep separate current and shadow copies of a page only while the
updating transaction is active, in a stable **scratch ring** (paper Section
3.2.2.2), and both maintain a small transaction list that survives crashes:

* **no-undo** — updated pages are written to the scratch ring as the
  transaction runs; commit appends the tid to the stable *committed list*
  (the commit point) and then copies the scratch pages over the shadows.
  Restart re-applies the scratch copies of committed-but-unapplied
  transactions (redo from scratch) and discards the rest — no undo ever.
* **no-redo** — the shadow (original) of each page is saved to the scratch
  ring before the home is overwritten in place; commit appends the tid to
  the stable committed list.  Restart restores shadows for every
  transaction *not* in the committed list — no redo ever.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from repro.checkpoint import FuzzyCheckpoint
from repro.storage.archive import ArchiveDumpMixin
from repro.storage.interface import RecoveryManager
from repro.storage.stable import StableStorage

__all__ = ["OverwriteVariant", "OverwritingManager"]


class OverwriteVariant(enum.Enum):
    NO_UNDO = "no-undo"
    NO_REDO = "no-redo"


class OverwritingManager(ArchiveDumpMixin, RecoveryManager):
    """Scratch-ring overwriting; see module docstring."""

    name = "overwriting"
    checkpoint_policy = FuzzyCheckpoint
    crash_volatile = ("_txn_writes", "_shadow_saved")

    _SCRATCH = "scratch"
    _COMMITTED = "committed_txns"
    _APPLIED = "applied_txns"

    def __init__(
        self,
        variant: OverwriteVariant = OverwriteVariant.NO_UNDO,
        stable: Optional[StableStorage] = None,
    ):
        super().__init__(stable)
        self.variant = variant
        # -- volatile state --
        #: tid -> page -> current (uncommitted) value, for reads.
        self._txn_writes: Dict[int, Dict[int, bytes]] = {}
        #: no-redo: pages whose shadow this txn already saved.
        self._shadow_saved: Dict[int, Set[int]] = {}

    # -- transaction hooks -------------------------------------------------------
    def _on_begin(self, tid: int) -> None:
        self._txn_writes[tid] = {}
        self._shadow_saved[tid] = set()

    def _do_read(self, tid: int, page: int) -> bytes:
        mine = self._txn_writes[tid].get(page)
        if mine is not None:
            return mine
        return self.stable.read_page(page)

    def _do_write(self, tid: int, page: int, data: bytes) -> None:
        if self.variant is OverwriteVariant.NO_UNDO:
            # Current copy parks in the scratch ring; the shadow (home copy)
            # stays untouched until after commit.
            self.stable.append(self._SCRATCH, ("current", tid, page, data))
            self._fault_point("overwrite.write.post-scratch")
        else:
            # Save the shadow once, then overwrite home in place.
            if page not in self._shadow_saved[tid]:
                before = self.stable.read_page(page)
                self.stable.append(self._SCRATCH, ("shadow", tid, page, before))
                self._shadow_saved[tid].add(page)
            self._fault_point("overwrite.write.pre-home")
            self.stable.write_page(page, data)
            self._fault_point("overwrite.write.post-home")
        self._txn_writes[tid][page] = data

    def _do_commit(self, tid: int) -> None:
        writes = self._txn_writes.pop(tid)
        self._shadow_saved.pop(tid, None)
        if not writes:
            return
        self._fault_point("overwrite.commit.pre-record")
        # The commit point: one appended record.
        self.stable.append(self._COMMITTED, tid)
        self._fault_point("overwrite.commit.post-record")
        if self.variant is OverwriteVariant.NO_UNDO:
            self._apply_scratch(tid)
        else:
            self._drop_scratch(tid)
        self._fault_point("overwrite.commit.post")

    def _do_abort(self, tid: int) -> None:
        writes = self._txn_writes.pop(tid)
        self._shadow_saved.pop(tid, None)
        if self.variant is OverwriteVariant.NO_UNDO:
            # Homes were never touched; scratch copies become garbage.
            self._drop_scratch(tid)
        else:
            # Homes were overwritten in place: restore the saved shadows.
            for record in self.stable.read_file(self._SCRATCH):
                kind, rec_tid, page, data = record
                if rec_tid == tid and kind == "shadow":
                    self.stable.write_page(page, data)
                    self._fault_point("overwrite.abort.page")
            self._drop_scratch(tid)
        del writes

    # -- scratch-ring helpers ------------------------------------------------------
    def _apply_scratch(self, tid: int) -> None:
        """No-undo: overwrite the shadows with the committed current copies."""
        latest: Dict[int, bytes] = {}
        for record in self.stable.read_file(self._SCRATCH):
            kind, rec_tid, page, data = record
            if rec_tid == tid and kind == "current":
                latest[page] = data
        for page, data in latest.items():
            self.stable.write_page(page, data)
            self._fault_point("overwrite.apply.page")
        self._fault_point("overwrite.apply.pre-applied-record")
        self.stable.append(self._APPLIED, tid)
        self._drop_scratch(tid)

    def _drop_scratch(self, tid: int) -> None:
        keep = [r for r in self.stable.read_file(self._SCRATCH) if r[1] != tid]
        self._fault_point("overwrite.scratch.pre-drop")
        self.stable.truncate(self._SCRATCH, keep)
        self._fault_point("overwrite.scratch.post-drop")

    # -- crash / restart ----------------------------------------------------------------
    def _on_recover(self) -> None:
        committed = set(self.stable.read_file(self._COMMITTED))
        applied = set(self.stable.read_file(self._APPLIED))
        scratch_tids = {r[1] for r in self.stable.read_file(self._SCRATCH)}
        if self.variant is OverwriteVariant.NO_UNDO:
            # Redo from scratch for committed transactions whose overwrite
            # did not finish; everything uncommitted is garbage.
            for tid in sorted(scratch_tids):
                self._fault_point("overwrite.recover.txn")
                if tid in committed and tid not in applied:
                    self._apply_scratch(tid)
                else:
                    # Uncommitted garbage, or leftovers from a crash that hit
                    # between marking a transaction applied and cleaning up.
                    self._drop_scratch(tid)
        else:
            # Restore shadows for every transaction that never committed.
            for tid in sorted(scratch_tids):
                self._fault_point("overwrite.recover.txn")
                if tid not in committed:
                    for record in self.stable.read_file(self._SCRATCH):
                        kind, rec_tid, page, data = record
                        if rec_tid == tid and kind == "shadow":
                            self.stable.write_page(page, data)
                self._drop_scratch(tid)

    def read_committed(self, page: int) -> bytes:
        if self.variant is OverwriteVariant.NO_UNDO:
            return self.stable.read_page(page)
        # No-redo: the home may hold an active transaction's data; the
        # committed value is then the saved shadow.
        for record in self.stable.read_file(self._SCRATCH):
            kind, rec_tid, rec_page, data = record
            if kind == "shadow" and rec_page == page and rec_tid in self._active:
                return data
        return self.stable.read_page(page)

    # -- checkpoint steps ----------------------------------------------------------------
    def checkpoint_compact(self) -> Dict[str, int]:
        """Prune the committed/applied lists (the fuzzy checkpoint's work).

        Restart only consults the lists for tids still present in the
        scratch ring, so a committed (or applied) tid whose scratch records
        are gone is dead weight and can be dropped — even while other
        transactions run.  A tid still in scratch (in-doubt: a crash
        between its commit record and its cleanup) is always retained.
        The committed list is truncated before the applied list; a crash
        between the two leaves extra applied tids, which restart ignores.
        """
        scratch_tids = {r[1] for r in self.stable.read_file(self._SCRATCH)}
        committed = self.stable.read_file(self._COMMITTED)
        applied = self.stable.read_file(self._APPLIED)
        keep_committed = [tid for tid in committed if tid in scratch_tids]
        keep_applied = [tid for tid in applied if tid in scratch_tids]
        self._fault_point("overwrite.checkpoint.pre-committed")
        self.stable.truncate(self._COMMITTED, keep_committed)
        self._fault_point("overwrite.checkpoint.committed")
        self.stable.truncate(self._APPLIED, keep_applied)
        self._fault_point("overwrite.checkpoint.applied")
        return {
            "applied_dropped": len(applied) - len(keep_applied),
            "committed_dropped": len(committed) - len(keep_committed),
        }

    def recovery_volume(self) -> int:
        return sum(
            self.stable.file_length(name)
            for name in (self._SCRATCH, self._COMMITTED, self._APPLIED)
        )

    # -- inspection ----------------------------------------------------------------------
    def scratch_length(self) -> int:
        return self.stable.file_length(self._SCRATCH)
