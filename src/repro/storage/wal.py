"""Distributed write-ahead logging with restart that never merges logs.

This is the functional counterpart of the paper's parallel-logging
architecture (Section 3.1 and ref [13]): a transaction's log records are
scattered over N independent logs, and crash recovery works without ever
building one merged physical log.

The trick is a **per-page update sequence number**: page-level strict 2PL
serializes the update history of each page, so tagging every log record
(and every stable page) with that page's sequence number totally orders the
records *of one page* regardless of which log they landed in.  Restart then
needs only:

1. scan each log independently, collecting the union of commit records and
   grouping update records by page (no cross-log ordering is ever used);
2. per page: redo the last committed after-image if it is newer than the
   stable page, then undo — restore the before-image of the earliest
   uncommitted record the stable page reflects.

Steal/no-force buffering is modeled faithfully: dirty pages may be flushed
before commit (after forcing the logs holding their records — the WAL rule)
and need not be flushed at commit; unforced log-buffer tails are lost at a
crash.

``checkpoint()`` implements fuzzy checkpointing without quiescing (the
paper's Section 3.1 claim): logs are truncated to the records not yet
reflected by stable pages, while transactions stay active.

The buffer pool, N-log commit, two-phase truncation and fuzzy-checkpoint
skeleton are the log core this design shares with the two modern log
managers (:mod:`repro.storage.logcore`); this module holds only the
WAL's difference — steal flush with monitor tokens, undo+redo restart,
and archive-log media recovery.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.sim.monitor import OrderingMonitor
from repro.sim.rng import RandomStreams
from repro.storage.archive import ARCHIVE_FILES, ARCHIVE_PAGES, ArchiveDumpMixin
from repro.storage.logcore import LogCore
from repro.storage.stable import StableStorage

__all__ = ["DistributedWalManager", "LogRecord"]


class LogRecord(NamedTuple):
    """One page update: full before/after images (physical logging)."""

    tid: int
    page: int
    seq: int
    before: bytes
    after: bytes


class DistributedWalManager(ArchiveDumpMixin, LogCore):
    """N-log write-ahead logging; see module docstring."""

    name = "distributed-wal"
    hook_prefix = "wal"
    crash_volatile = ("_log_tokens",)
    #: Files on the archive medium, not the data disks (the WAL layout:
    #: page snapshot + continuously-appended log + auxiliary-file snapshot).
    _archive_set = (ARCHIVE_PAGES, "archive_log", ARCHIVE_FILES)

    def __init__(
        self,
        n_logs: int = 3,
        stable: Optional[StableStorage] = None,
        selection_seed: Optional[int] = None,
        monitor: Optional[OrderingMonitor] = None,
    ):
        super().__init__([f"log{i}" for i in range(n_logs)], stable)
        self._rng: Optional[random.Random] = (
            RandomStreams(selection_seed).stream("wal.log-selection")
            if selection_seed is not None
            else None
        )
        self._round_robin = 0
        self._monitor = monitor
        #: log index -> tokens of still-buffered records (monitor bookkeeping).
        self._log_tokens: Dict[int, List[Tuple[int, int]]] = {}
        self._token_counter = 0

    # -- selection -----------------------------------------------------------
    def _force_log(self, index: int) -> None:
        """Force one log and retire its buffered records with the monitor."""
        self._logs[index].force()
        if self._monitor is not None:
            for token in self._log_tokens.pop(index, ()):
                self._monitor.durable("wal", token)

    def _select_log(self) -> int:
        if self._rng is not None:
            return self._rng.randrange(self.n_logs)
        index = self._round_robin
        self._round_robin = (self._round_robin + 1) % self.n_logs
        return index

    # -- writes ------------------------------------------------------------------
    def _do_write(self, tid: int, page: int, data: bytes) -> None:
        if not isinstance(data, bytes):
            raise TypeError("page data must be bytes")
        before = self._current(page)
        seq = self._next_seq(page)
        log_index = self._select_log()
        self._logs[log_index].append(
            ("update", LogRecord(tid, page, seq, before, data))
        )
        self._pool[page] = (data, seq, None)
        self._txn_first_before.setdefault(tid, {}).setdefault(page, before)
        self._txn_logs.setdefault(tid, set()).add(log_index)
        self._page_logs.setdefault(page, set()).add(log_index)
        if self._monitor is not None:
            token = (log_index, self._token_counter)
            self._token_counter += 1
            self._monitor.protect("wal", page, token)
            self._log_tokens.setdefault(log_index, []).append(token)

    # -- buffer management (steal / no-force) -----------------------------------------
    def flush_page(self, page: int) -> None:
        """Flush a dirty page to disk, forcing its logs first (WAL)."""
        entry = self._pool.get(page)
        if entry is None:
            return
        for log_index in sorted(self._page_logs.get(page, ())):
            self._force_log(log_index)
        self._fault_point("wal.flush.between-force-and-write")
        if self._monitor is not None:
            self._monitor.check("wal", page)
        self.stable.write_page(page, entry[0], entry[1])
        self._fault_point("wal.flush.post-write")

    # -- crash / restart ------------------------------------------------------------------
    def crash(self) -> None:
        super().crash()
        if self._monitor is not None:
            self._monitor.reset()

    def _on_recover(self) -> None:
        committed, by_page = self._scan_logs()
        for page, chain in by_page.items():
            chain.sort(key=lambda r: r.seq)
            by_seq = {r.seq: r for r in chain}
            # Undo: page sequence numbers identify exactly which update the
            # stable page reflects.  While that update is uncommitted (the
            # page was stolen), roll back through before-images.
            seq = self.stable.page_seq(page)
            rolled_back = None
            while True:
                record = by_seq.get(seq)
                if record is None or record.tid in committed:
                    break
                rolled_back = record.before
                seq = record.seq - 1
            # Redo: install the newest committed image if it is newer than
            # the (possibly rolled-back) stable state.
            committed_chain = [r for r in chain if r.tid in committed]
            if committed_chain and committed_chain[-1].seq > seq:
                last = committed_chain[-1]
                self.stable.write_page(page, last.after, last.seq)
            elif rolled_back is not None:
                self.stable.write_page(page, rolled_back, seq)
            self._fault_point("wal.recover.page")
        self._truncate_after_restart()

    # -- checkpointing -------------------------------------------------------------------
    def _keep_record(self, tid: int, committed: Set[int], unreflected: bool) -> bool:
        # Steal: a loser's before-images may still be needed for undo.
        return tid not in committed or unreflected

    # -- media recovery --------------------------------------------------------------------
    def dump(self) -> Dict[str, int]:
        """Take an archive dump (media-recovery baseline).

        Copies every stable page into the archive area and records the
        dump point; together with the archive log (every log record is
        also appended to the archive on force), this allows
        :meth:`recover_from_media_failure` to rebuild the database after
        the *data disks* are lost — the classic dump-plus-log media
        recovery the logging literature (Gray's notes, the paper's ref
        [12]) pairs with WAL.

        The dump is sharp with respect to stable pages (it copies what is
        on disk); uncommitted stolen data in the dump is corrected at
        restore time by the archived records, exactly as in restart.
        """
        self.flush_all()
        for index in range(self.n_logs):
            self._force_log(index)
        snapshot = [
            (page, data, self.stable.page_seq(page))
            for page, data in sorted(self.stable.pages.items())
        ]
        self.stable.truncate("archive_pages", snapshot)
        self._fault_point("media.dump.pages")
        # Archive the logs as of the dump; later records keep appending.
        archived = []
        for log in self._logs:
            archived.extend(log.stable_records())
        self.stable.truncate("archive_log", archived)
        self._fault_point("media.dump.log")
        # Auxiliary files (the checkpoint record file) have no log to
        # roll them forward from; snapshot them like the no-log managers.
        log_names = {log.name for log in self._logs}
        others = [
            (name, self.stable.read_file(name))
            for name in self.stable.files()
            if name not in log_names and name not in self._archive_set
        ]
        self.stable.truncate("archive_files", others)
        self._fault_point("media.dump.files")
        return {"pages": len(snapshot), "log_records": len(archived)}

    def archive_append(self) -> None:
        """Append current stable log contents to the archive log.

        Call after commits (or periodically): the archive log must contain
        every record that restart would need, because recovery truncates
        the online logs.
        """
        existing = self.stable.read_file("archive_log")
        merged = list(existing)
        current = []
        for log in self._logs:
            current.extend(log.stable_records())
        for record in current:
            if record not in merged:
                merged.append(record)
        self.stable.truncate("archive_log", merged)

    def recover_from_media_failure(self) -> None:
        """Rebuild the database from the archive dump + archive log.

        Models losing the data disks entirely: every stable page is wiped,
        then the dump is restored and the archived records are replayed
        with the same per-page redo/undo rules as restart.
        """
        dump = self.stable.read_file("archive_pages")
        archive = self.stable.read_file("archive_log")
        # The data disks are gone.
        for page in sorted(self.stable.pages):
            self.stable.write_page(page, b"", 0)
        self._fault_point("media.restore.wipe")
        for page, data, seq in dump:
            self.stable.write_page(page, data, seq)
        self._fault_point("media.restore.pages")
        # Restore the auxiliary-file snapshot (dumps may predate it).
        if "archive_files" in self.stable.files():
            log_names = {log.name for log in self._logs}
            for name in self.stable.files():
                if name not in log_names and name not in self._archive_set:
                    self.stable.truncate(name)
            for name, records in self.stable.read_file("archive_files"):
                self.stable.truncate(name, records)
            self._fault_point("media.restore.files")
        # Replay the archive through the restart algorithm: stage the
        # records into the online logs and run recovery.
        for log in self._logs:
            self.stable.truncate(log.name)
        if archive:
            self.stable.truncate(self._logs[0].name, archive)
        self._fault_point("media.restore.staged")
        # Media failure is a full restart: the public crash()/recover()
        # pair also clears the lock table and active-transaction set, so
        # survivors re-begin cleanly on the restored store.
        self.crash()
        self.recover()
        self._fault_point("media.restore.restart")

    def _archived_copies(self) -> Callable[[str, int], List[Any]]:
        # The archive log, being continuously appended, holds a clean copy
        # of every forced record: any archived record matching the stored
        # checksum envelope will do.
        candidates: List[Any] = list(self.stable.read_file("archive_log"))
        for _name, records in self.stable.read_file(ARCHIVE_FILES):
            candidates.extend(records)
        return lambda name, index: candidates
