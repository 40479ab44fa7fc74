"""Functional differential files: R = (B u A) - D over a read-only base.

Following the paper's Section 3.3 (and Stonebraker's hypothetical-database
formulation it cites), the differential file is decomposed into an A file
(additions) and a D file (deletions); the base B is never modified in
place.  This manager works at tuple level — page-oriented semantics do not
fit a mechanism whose whole point is that logical pages are views:

* ``insert/delete/read_relation`` manipulate relations as sets of tuples;
* transaction writes are buffered volatile and appended to the stable A/D
  files at commit, tagged with the writing tid; the single commit record
  then lands in a shared commit file — the atomic commit point.  (Earlier
  revisions bracketed each file's run with its own marker, so a crash
  between the two markers committed the deletions but not the additions.)
* readers ignore A/D records whose tid has no commit record, so a crash
  between appends is invisible (dead records are swept at restart);
* ``merge`` folds committed A/D tuples into a new base and truncates the
  files (the maintenance operation the paper deliberately left unmodeled).

The page-level :class:`RecoveryManager` interface is implemented on top by
treating a page as the single-tuple relation ``("page", page)`` — enough
for the shared atomicity/durability property tests to drive this manager
through the same crash schedules as the others.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.checkpoint import SnapshotCheckpoint
from repro.storage.archive import ArchiveDumpMixin
from repro.storage.interface import RecoveryManager
from repro.storage.stable import StableStorage

__all__ = ["DifferentialFileManager"]

Tuple_ = Tuple  # readability alias in signatures


class DifferentialFileManager(ArchiveDumpMixin, RecoveryManager):
    """A/D differential files over a read-only base; see module docstring."""

    name = "differential-files"
    checkpoint_policy = SnapshotCheckpoint

    _A_FILE = "a_file"
    _D_FILE = "d_file"
    _BASE = "base"
    _COMMITS = "diff_commits"

    def __init__(self, stable: Optional[StableStorage] = None):
        super().__init__(stable)
        # -- volatile: per-transaction buffered additions / deletions.
        self._txn_adds: Dict[int, List[tuple]] = {}
        self._txn_dels: Dict[int, List[tuple]] = {}
        #: Per-transaction row version counter for the page adapter.
        #: Transaction ids are never reused (real systems persist a tid
        #: high-water mark), so (tid, k) stamps are globally unique.
        self._txn_row_counter: Dict[int, int] = {}

    # -- tuple-level API -----------------------------------------------------------
    def insert(self, tid: int, relation: str, row: tuple) -> None:
        """Buffer an insertion of ``row`` into ``relation``."""
        self._check_active(tid)
        self._txn_adds[tid].append((relation, row))

    def delete(self, tid: int, relation: str, row: tuple) -> None:
        """Buffer a deletion of ``row`` from ``relation``."""
        self._check_active(tid)
        self._txn_dels[tid].append((relation, row))

    def read_relation(self, relation: str, tid: Optional[int] = None) -> FrozenSet[tuple]:
        """Evaluate (B u A) - D for ``relation``.

        With ``tid``, the transaction's own buffered changes are applied on
        top (read-your-writes).
        """
        base = {
            row for rel, row in self.stable.read_file(self._BASE) if rel == relation
        }
        adds, dels = self._committed_diffs()
        result = (base | {r for rel, r in adds if rel == relation}) - {
            r for rel, r in dels if rel == relation
        }
        if tid is not None:
            self._check_active(tid)
            result |= {r for rel, r in self._txn_adds[tid] if rel == relation}
            result -= {r for rel, r in self._txn_dels[tid] if rel == relation}
        return frozenset(result)

    def _committed_tids(self) -> Set[int]:
        return set(self.stable.read_file(self._COMMITS))

    def _committed_diffs(self) -> Tuple[Set[tuple], Set[tuple]]:
        """Committed (adds, dels): records whose tid has a commit record."""
        committed = self._committed_tids()
        adds: Set[tuple] = set()
        dels: Set[tuple] = set()
        for file, target in ((self._A_FILE, adds), (self._D_FILE, dels)):
            for record in self.stable.read_file(file):
                # Records of a transaction that never committed stay
                # invisible forever (tids are not reused).
                if record[1] in committed:
                    target.add(record[2])
        return adds, dels

    # -- page-level adapter (for the shared property tests) ---------------------------
    # A page is the single-tuple relation "__page_<n>"; rows carry a
    # (tid, k) version stamp so that re-inserting a previously deleted value
    # is a *new* tuple — without this, set semantics would cancel it against
    # the old deletion (the classic differential-file pitfall, solved with
    # timestamps in Severance & Lohman's original design).
    @staticmethod
    def _page_relation(page: int) -> str:
        return f"__page_{page}"

    def _on_begin(self, tid: int) -> None:
        self._txn_adds[tid] = []
        self._txn_dels[tid] = []
        self._txn_row_counter.setdefault(tid, 0)

    def _do_read(self, tid: int, page: int) -> bytes:
        rows = self.read_relation(self._page_relation(page), tid)
        if not rows:
            return b""
        # Rows are (tid, k, data): the latest writer wins.
        return max(rows)[2]

    def _do_write(self, tid: int, page: int, data: bytes) -> None:
        relation = self._page_relation(page)
        for row in self.read_relation(relation, tid):
            self.delete(tid, relation, row)
        k = self._txn_row_counter[tid]
        self._txn_row_counter[tid] = k + 1
        self.insert(tid, relation, (tid, k, data))

    def _do_commit(self, tid: int) -> None:
        adds = self._txn_adds.pop(tid)
        dels = self._txn_dels.pop(tid)
        self._txn_row_counter.pop(tid, None)
        if not adds and not dels:
            return
        # Append the tid-tagged runs, then the single commit record.  A
        # crash anywhere before that record leaves only dead (invisible)
        # records; the one append is the atomic commit point.
        for relation, row in adds:
            self.stable.append(self._A_FILE, ("add", tid, (relation, row)))
            self._fault_point("diff.commit.mid-adds")
        for relation, row in dels:
            self.stable.append(self._D_FILE, ("del", tid, (relation, row)))
            self._fault_point("diff.commit.mid-dels")
        self._fault_point("diff.commit.pre-record")
        self.stable.append(self._COMMITS, tid)
        self._fault_point("diff.commit.post")

    def _do_abort(self, tid: int) -> None:
        self._txn_adds.pop(tid, None)
        self._txn_dels.pop(tid, None)
        self._txn_row_counter.pop(tid, None)

    # -- crash / restart -----------------------------------------------------------------
    def _on_crash(self) -> None:
        self._txn_adds.clear()
        self._txn_dels.clear()
        self._txn_row_counter.clear()

    def _on_recover(self) -> None:
        """Sweep dead records left by a mid-commit crash.

        A record whose tid never committed can never become visible (no
        transaction is active at restart and tids are not reused), so this
        is pure garbage collection — correctness never depends on it.
        """
        committed = self._committed_tids()
        for file in (self._A_FILE, self._D_FILE):
            records = self.stable.read_file(file)
            kept = [r for r in records if r[1] in committed]
            if len(kept) != len(records):
                self.stable.truncate(file, kept)
            self._fault_point("diff.recover.file")

    def read_committed(self, page: int) -> bytes:
        relation = self._page_relation(page)
        base = {row for rel, row in self.stable.read_file(self._BASE) if rel == relation}
        adds, dels = self._committed_diffs()
        rows = (base | {r for rel, r in adds if rel == relation}) - {
            r for rel, r in dels if rel == relation
        }
        return max(rows)[2] if rows else b""

    # -- maintenance -----------------------------------------------------------------------
    def merge(self) -> int:
        """Fold committed A/D tuples into the base; returns new base size.

        The paper's simulation deliberately does not model merge cost; the
        functional engine still provides the operation so differential
        files are a complete, usable mechanism.  It doubles as the
        snapshot checkpoint (docs/CHECKPOINT.md): active transactions only
        buffer volatile state, so merging mid-flight is safe.

        Truncation order is crash-critical: the base is rewritten first
        (a committed add re-applied from a surviving A record, or a
        committed delete re-subtracted from a surviving D record, is a
        no-op against the merged base), and the commit file goes last so
        surviving A/D records stay interpretable.
        """
        adds, dels = self._committed_diffs()
        base = set(self.stable.read_file(self._BASE))
        new_base = (base | adds) - dels
        self.stable.truncate(self._BASE, sorted(new_base))
        self._fault_point("diff.merge.base")
        self.stable.truncate(self._A_FILE)
        self._fault_point("diff.merge.a-file")
        self.stable.truncate(self._D_FILE)
        self._fault_point("diff.merge.d-file")
        self.stable.truncate(self._COMMITS)
        self._fault_point("diff.merge.commits")
        return len(new_base)

    def differential_sizes(self) -> Tuple[int, int]:
        """(|A|, |D|) in records."""
        a = self.stable.file_length(self._A_FILE)
        d = self.stable.file_length(self._D_FILE)
        return a, d

    # -- checkpoint steps ------------------------------------------------------------------
    def checkpoint_compact(self) -> Dict[str, int]:
        return {"base_tuples": self.merge()}

    def recovery_volume(self) -> int:
        a, d = self.differential_sizes()
        return a + d + self.stable.file_length(self._COMMITS)
