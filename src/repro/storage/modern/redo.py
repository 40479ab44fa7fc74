"""Redo-only WAL with early lock release at the commit-record append.

The second modern design judged against the 1985 field (Sauer & Härder,
"A novel recovery mechanism enabling fine-granained locking and fast,
REDO-only recovery"; Lomet et al. showed logical redo-only recovery
performance-competitive with ARIES): drop the undo half of write-ahead
logging entirely.

Two invariants make that sound:

* **No-steal write gate.**  An uncommitted page never reaches its home
  disk: :meth:`RedoOnlyWalManager.flush_page` silently refuses while the
  latest update is uncommitted (counted in ``writes_gated``).  With no
  uncommitted data on disk there is nothing to undo — losers vanish
  with the buffer pool at the crash.

* **Early lock release (ELR).**  A committing transaction's page locks
  are released the moment its commit record is *appended* to the
  sequential log, before the force completes.  Safe because the log is
  sequential: any dependent transaction's commit record lands later in
  the same log, so forcing it also forces this one — a crash can never
  durably commit the dependent without its predecessor.  The release is
  marked with a ``lock.release`` trace instant and counted in
  ``early_lock_releases``; the committed-prefix crashtest oracle covers
  the window via the ``redo.commit.elr`` fault point.

Restart is a **single pass**: one scan of the log classifies commit
records and surviving updates (the analysis phase), then redo installs
the newest committed image of each page the stable database is missing.
There is no undo phase — the manager records ``log.analysis`` and
``recovery.redo`` trace spans and never a ``recovery.undo`` span, which
the harnesses assert.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Set

from repro.storage.archive import ArchiveDumpMixin
from repro.storage.logcore import LogCore
from repro.storage.stable import StableStorage

__all__ = ["RedoOnlyWalManager", "RedoRecord"]


class RedoRecord(NamedTuple):
    """One page update: after-image only (there is no undo phase)."""

    tid: int
    page: int
    seq: int
    after: bytes


class RedoOnlyWalManager(ArchiveDumpMixin, LogCore):
    """Sequential redo-only WAL with ELR; see module docstring."""

    name = "redo-only-wal"
    hook_prefix = "redo"
    #: Statistics restart never reads (see ``RecoveryManager``).
    crash_invisible = ("writes_gated", "early_lock_releases")

    LOG_NAME = "redolog"

    def __init__(self, stable: Optional[StableStorage] = None, tracer=None):
        super().__init__([self.LOG_NAME], stable, tracer)
        self._log = self._logs[0]
        # -- statistics --
        self.writes_gated = 0
        self.early_lock_releases = 0
        #: Pages redone by the most recent restart.
        self.last_redo_pages = 0

    # -- writes ------------------------------------------------------------------
    def _do_write(self, tid: int, page: int, data: bytes) -> None:
        if not isinstance(data, bytes):
            raise TypeError("page data must be bytes")
        before = self._current(page)
        seq = self._next_seq(page)
        self._log.append(("upd", RedoRecord(tid, page, seq, data)))
        self._pool[page] = (data, seq, tid)
        self._txn_first_before.setdefault(tid, {}).setdefault(page, before)
        self._txn_pages.setdefault(tid, set()).add(page)

    # -- buffer management (no-steal / no-force) ----------------------------------
    def flush_page(self, page: int) -> None:
        """Flush a page to its home disk — refused while uncommitted.

        The no-steal write gate: with no undo log, an uncommitted page on
        the home disk would be unrecoverable, so the flush is a silent
        no-op (counted in ``writes_gated``) until the writer commits.
        """
        entry = self._pool.get(page)
        if entry is None:
            return
        data, seq, writer = entry
        if writer is not None:
            self.writes_gated += 1
            return
        self._log.force()
        self._fault_point("redo.flush.between-force-and-write")
        self.stable.write_page(page, data, seq)
        self._fault_point("redo.flush.post-write")

    # -- commit ------------------------------------------------------------------
    def _do_commit(self, tid: int) -> None:
        self._fault_point("redo.commit.pre-append")
        self._log.append(("commit", tid))
        self._fault_point("redo.commit.append")
        # Early lock release: the commit record has its place in the
        # sequential log, so any dependent committer's force also forces
        # this record — locks can go now, before the force.
        self._release_locks_early(tid)
        self._fault_point("redo.commit.elr")
        self._log.force()
        self._fault_point("redo.commit.post")
        self._forget_committed(tid)

    def _release_locks_early(self, tid: int) -> None:
        released = [page for page, holder in self._locks.items() if holder == tid]
        for page in released:
            del self._locks[page]
        self.early_lock_releases += len(released)
        if self.tracer is not None:
            self.tracer.instant("lock.release", tid=tid, pages=len(released))

    # -- restart ------------------------------------------------------------------
    def _on_recover(self) -> None:
        # Single pass: scan the log once, classifying commit records and
        # remembering each page's newest update per transaction; redo
        # then installs the newest *committed* image the stable page is
        # missing.  No undo phase exists.
        span = None
        if self.tracer is not None:
            span = self.tracer.begin("log.analysis")
        committed, by_page = self._scan_logs()
        self._tick()
        if span is not None:
            self.tracer.end(span, committed=len(committed))
        self._fault_point("redo.recover.analysis")
        redo_span = None
        if self.tracer is not None:
            redo_span = self.tracer.begin("recovery.redo")
        redone = 0
        for page in sorted(by_page):
            chain = [r for r in by_page[page] if r.tid in committed]
            if not chain:
                continue
            newest = max(chain, key=lambda r: r.seq)
            if newest.seq > self.stable.page_seq(page):
                self.stable.write_page(page, newest.after, newest.seq)
                redone += 1
                self._tick()
            self._fault_point("redo.recover.page")
        self.last_redo_pages = redone
        if redo_span is not None:
            self.tracer.end(redo_span, pages=redone)
        # Restart leaves stable storage at the committed state: every
        # surviving committed record is reflected and every uncommitted
        # record is permanently dead (no-steal means losers never touched
        # disk).  The single sequential log empties in one atomic
        # truncation — no two-phase dance is needed.
        self.stable.truncate(self._log.name)
        self._fault_point("redo.recover.truncate")

    # -- checkpointing ---------------------------------------------------------------
    def _truncate_checkpoint(self, scanned, retained: Set[int]) -> Dict[str, int]:
        # One sequential log, one atomic truncation in log order: a commit
        # record and its surviving updates move (or vanish) together.
        [(log, records, kept)] = scanned
        keep = set(map(id, kept))
        final = [
            record
            for record in records
            if id(record) in keep or (record[0] == "commit" and record[1] in retained)
        ]
        self.stable.truncate(log.name, final)
        self._fault_point("redo.checkpoint.truncate")
        return {log.name: len(final)}
