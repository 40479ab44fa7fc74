"""Functional version selection: two timestamped blocks per page.

Every page owns two adjacent stable blocks (paper Section 3.2.2.1).  A
write goes to the block *not* holding the current version, stamped with the
writing transaction's id; commit appends the tid to a stable committed list
with a monotonically increasing commit number.  A read fetches both blocks
and runs version selection: the block whose writer committed latest wins —
uncommitted or aborted writers simply never win, so crash recovery needs no
data movement at all.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.checkpoint import QuiescentCheckpoint
from repro.storage.archive import ArchiveDumpMixin
from repro.storage.errors import RecoveryStateError
from repro.storage.interface import RecoveryManager
from repro.storage.stable import StableStorage

__all__ = ["VersionSelectionManager"]

#: Writer id used for bootstrap versions (always considered committed).
GENESIS = 0


class VersionSelectionManager(ArchiveDumpMixin, RecoveryManager):
    """Adjacent-block versions chosen by commit timestamp at read time."""

    name = "version-selection"
    checkpoint_policy = QuiescentCheckpoint

    _COMMITS = "commit_order"

    def __init__(
        self, stable: Optional[StableStorage] = None, enforce_locks: bool = True
    ):
        super().__init__(stable, enforce_locks)
        # -- volatile: uncommitted write sets, for same-transaction reads.
        self._txn_writes: Dict[int, Dict[int, bytes]] = {}

    # -- block layout -----------------------------------------------------------
    @staticmethod
    def _block(page: int, which: int) -> int:
        """Stable keys of the two blocks of ``page`` (disjoint by parity)."""
        return page * 2 + which

    def _read_block(self, page: int, which: int) -> Tuple[int, bytes]:
        """(writer tid, payload) of one block; empty block -> (GENESIS, b'')."""
        raw = self.stable.read_page(self._block(page, which))
        if not raw:
            return GENESIS, b""
        tid_text, _, payload = raw.partition(b":")
        return int(tid_text), payload

    @staticmethod
    def _block_image(tid: int, data: bytes) -> bytes:
        """The stored bytes of a block written by ``tid`` (see _read_block)."""
        return str(tid).encode() + b":" + data

    # -- version selection ----------------------------------------------------------
    def _commit_rank(self) -> Dict[int, int]:
        """tid -> commit order (GENESIS ranks before everything)."""
        ranks = {GENESIS: -1}
        for order, tid in enumerate(self.stable.read_file(self._COMMITS)):
            ranks[tid] = order
        return ranks

    def _select_current(self, page: int) -> Tuple[Optional[int], bytes]:
        """The committed version of ``page``: (winning block, payload)."""
        ranks = self._commit_rank()
        best_block, best_rank, best_data = None, None, b""
        for which in (0, 1):
            tid, data = self._read_block(page, which)
            rank = ranks.get(tid)
            if rank is None:
                continue  # uncommitted or aborted writer: never selectable
            if best_rank is None or rank > best_rank:
                best_block, best_rank, best_data = which, rank, data
        return best_block, best_data

    # -- transaction hooks --------------------------------------------------------------
    def _on_begin(self, tid: int) -> None:
        self._txn_writes[tid] = {}

    def _do_read(self, tid: int, page: int) -> bytes:
        mine = self._txn_writes[tid].get(page)
        if mine is not None:
            return mine
        _block, data = self._select_current(page)
        return data

    def _do_write(self, tid: int, page: int, data: bytes) -> None:
        current_block, _ = self._select_current(page)
        target = 1 if current_block == 0 else 0
        self._fault_point("versions.write.pre-block")
        self.stable.write_page(self._block(page, target), self._block_image(tid, data))
        self._fault_point("versions.write.post-block")
        self._txn_writes[tid][page] = data

    def _do_commit(self, tid: int) -> None:
        if self._txn_writes.pop(tid):
            self._fault_point("versions.commit.pre-record")
            # The commit point: the tid enters the stable commit order, and
            # from now on version selection picks its blocks.
            self.stable.append(self._COMMITS, tid)
            self._fault_point("versions.commit.post")

    def _do_abort(self, tid: int) -> None:
        # The written blocks stay physically present but are never selected.
        self._txn_writes.pop(tid, None)

    # -- crash / restart -----------------------------------------------------------------
    def _on_crash(self) -> None:
        self._txn_writes.clear()

    def _on_recover(self) -> None:
        """Nothing to do: selection at read time already ignores losers."""

    def read_committed(self, page: int) -> bytes:
        _block, data = self._select_current(page)
        return data

    # -- checkpoint steps ----------------------------------------------------------------
    def checkpoint_compact(self) -> Dict[str, int]:
        """Truncate the commit-order file (the quiescent checkpoint's work).

        Every read scans the whole commit order, so it must not grow with
        history.  With no transaction active, each page's winner is final:
        both blocks are rewritten as GENESIS copies of the winner, after
        which the commit order carries no information and is truncated.

        The *loser* block is rewritten first — this ordering is what makes
        a mid-compaction crash safe.  While the commit file is intact, a
        GENESIS loser (rank -1) can never outrank the still-stamped winner;
        rewriting the winner first would let a stale committed loser win.
        Destroying the loser is only legal because nothing is active: an
        uncommitted block at quiescence belongs to an aborted or crashed
        transaction and can never be selected.
        """
        if self._active:
            raise RecoveryStateError(
                "commit-order compaction requires quiescence"
            )
        before = self.stable.file_length(self._COMMITS)
        pages = sorted({key // 2 for key in self.stable.pages if key >= 0})
        rewritten = 0
        for page in pages:
            winner, data = self._select_current(page)
            if winner is None:
                continue
            image = self._block_image(GENESIS, data)
            self.stable.write_page(self._block(page, 1 - winner), image)
            self._fault_point("versions.checkpoint.loser-block")
            self.stable.write_page(self._block(page, winner), image)
            self._fault_point("versions.checkpoint.winner-block")
            rewritten += 1
        self._fault_point("versions.checkpoint.pre-truncate")
        self.stable.truncate(self._COMMITS)
        self._fault_point("versions.checkpoint.post-truncate")
        return {"commit_records_dropped": before, "pages_rewritten": rewritten}

    def recovery_volume(self) -> int:
        return self.stable.file_length(self._COMMITS)
