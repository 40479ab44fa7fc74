"""Functional shadow paging with an atomic page-table root swap.

The stable layout mirrors the canonical (System R-style) scheme the paper's
Section 3.2.1 builds on:

* a slot store (``slot:<n>`` pages) holding page images;
* two page-table versions (files ``page_table:0`` / ``page_table:1``),
  each a list of ``(logical page, slot)`` entries;
* a one-record ``root`` file naming the current version — the single
  atomic write that commits a transaction.

A transaction's updates go to *fresh* slots (written to stable storage as
they happen — no undo and no redo is ever needed for data pages); commit
writes the alternate page-table version and flips the root.  A crash at any
earlier point leaves the old root naming the old table, so the transaction
vanishes; a crash after the flip leaves it durable.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.checkpoint import SnapshotCheckpoint
from repro.storage.archive import ArchiveDumpMixin
from repro.storage.interface import RecoveryManager
from repro.storage.stable import StableStorage

__all__ = ["ShadowPageTableManager"]


class ShadowPageTableManager(ArchiveDumpMixin, RecoveryManager):
    """Copy-on-write slots + atomic root swap; see module docstring."""

    name = "shadow-page-table"
    checkpoint_policy = SnapshotCheckpoint
    crash_volatile = ("_txn_slots",)

    _ROOT = "root"
    _TABLE = ("page_table:0", "page_table:1")

    def __init__(self, stable: Optional[StableStorage] = None):
        super().__init__(stable)
        if not self.stable.read_file(self._ROOT):
            self.stable.append(self._ROOT, 0)
            self.stable.truncate(self._TABLE[0], [])
        # -- volatile state --
        self._next_slot = self._derive_next_slot()
        #: tid -> logical page -> fresh slot (private, uncommitted mapping).
        self._txn_slots: Dict[int, Dict[int, int]] = {}

    # -- stable helpers --------------------------------------------------------
    def _root(self) -> int:
        return self.stable.read_file(self._ROOT)[-1]

    def _current_table(self) -> Dict[int, int]:
        entries = self.stable.read_file(self._TABLE[self._root()])
        return dict(entries)

    def _derive_next_slot(self) -> int:
        used = [slot for _page, slot in self.stable.read_file(self._TABLE[self._root()])]
        return (max(used) + 1) if used else 0

    def _slot_page(self, slot: int) -> int:
        # Slots live in the stable page store under negative-space keys so
        # they can never collide with logical page numbers.
        return -(slot + 1)

    # -- transaction hooks ------------------------------------------------------
    def _on_begin(self, tid: int) -> None:
        self._txn_slots[tid] = {}

    def _do_read(self, tid: int, page: int) -> bytes:
        slot = self._txn_slots.get(tid, {}).get(page)
        if slot is None:
            slot = self._current_table().get(page)
        if slot is None:
            return b""
        return self.stable.read_page(self._slot_page(slot))

    def _do_write(self, tid: int, page: int, data: bytes) -> None:
        slot = self._next_slot
        self._next_slot += 1
        # The new copy goes straight to stable storage: harmless if the
        # transaction dies, because no page table points at it yet.
        self.stable.write_page(self._slot_page(slot), data)
        self._fault_point("shadow.write.post-slot")
        self._txn_slots[tid][page] = slot

    def _do_commit(self, tid: int) -> None:
        table = self._current_table()
        table.update(self._txn_slots.pop(tid))
        alternate = 1 - self._root()
        self._fault_point("shadow.commit.pre-table")
        self.stable.truncate(self._TABLE[alternate], sorted(table.items()))
        self._fault_point("shadow.commit.installed-table")
        # The commit point: one atomic root write.
        self.stable.append(self._ROOT, alternate)
        self._fault_point("shadow.commit.post-root")

    def _do_abort(self, tid: int) -> None:
        # Fresh slots become garbage; nothing on stable storage points at them.
        self._txn_slots.pop(tid, None)

    # -- crash / restart ------------------------------------------------------------
    def _on_recover(self) -> None:
        # Shadow recovery is trivial: the root names the last committed
        # table.  Restart only reclaims orphaned slots (garbage collection).
        self._fault_point("shadow.recover")
        self._next_slot = self._derive_next_slot()

    def read_committed(self, page: int) -> bytes:
        slot = self._current_table().get(page)
        if slot is None:
            return b""
        return self.stable.read_page(self._slot_page(slot))

    # -- checkpoint steps --------------------------------------------------------------
    def checkpoint_compact(self) -> Dict[str, int]:
        """Reclaim slots nothing references (the snapshot checkpoint's work).

        The committed snapshot is already durable (the root names it), so
        the checkpoint only frees slots referenced by neither page-table
        version nor any active transaction's private mapping.  Each delete
        is individually harmless, so a crash mid-sweep needs no repair.
        """
        referenced = set()
        for table in self._TABLE:
            for _page, slot in self.stable.read_file(table):
                referenced.add(slot)
        for tid in sorted(self._txn_slots):
            for slot in sorted(self._txn_slots[tid].values()):
                referenced.add(slot)
        freed = 0
        for key in sorted(self.stable.pages):
            if key >= 0:
                continue
            slot = -key - 1
            if slot in referenced:
                continue
            self.stable.delete_page(key)
            self._fault_point("shadow.checkpoint.gc-slot")
            freed += 1
        return {"root": self._root(), "slots_reclaimed": freed}

    # -- inspection -------------------------------------------------------------------
    def garbage_slots(self) -> int:
        """Stable slots no page-table version references (reclaimable):
        the snapshot checkpoint's recovery volume."""
        referenced = set()
        for table in self._TABLE:
            for _page, slot in self.stable.read_file(table):
                referenced.add(slot)
        allocated = {
            -key - 1 for key in self.stable.pages if key < 0
        }
        return len(allocated - referenced)

    recovery_volume = garbage_slots
