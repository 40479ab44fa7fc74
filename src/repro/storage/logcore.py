"""The log core shared by the three log-based recovery managers.

The paper's parallel logging (Section 3.1) is N buffered logs whose
restart never merges them; the two modern designs are each a small
change to that write-ahead log — command logging swaps the record
format (Yao et al.), redo-only WAL drops undo and adds early lock
release (Sauer & Härder).  This module holds what the three share, so
each manager keeps only its difference:

* :class:`BufferedLog` — one log: a stable append-only file fronted by a
  volatile buffer that a crash discards;
* :class:`LogCore` — the volatile buffer pool with per-page update
  sequence numbers, per-transaction before-images, the N-log commit
  (force the transaction's logs, append the commit record on log
  ``tid % n``, force that log), the two-phase log truncation restart and
  the fuzzy checkpoint use, and the fuzzy-checkpoint skeleton, with
  each design supplying only its keep-record rule.

Every log record is a ``(kind, entry)`` tuple: ``("commit", tid)`` or an
update whose entry carries ``tid``, ``page`` and ``seq``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.checkpoint import FuzzyCheckpoint
from repro.storage.interface import RecoveryManager
from repro.storage.stable import StableStorage

__all__ = ["BufferedLog", "LogCore", "StepClock"]

#: Hook steps of the N-log commit, in crossing order.
_COMMIT_STEPS = ("pre-force", "mid-force", "pre-record", "pre-commit-force", "post")


class StepClock:
    """A ``now`` source for a tracer outside the simulator's event loop.

    Restart phases tick it once per unit of work, so spans get
    deterministic integer extents: same history, same trace.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def tick(self) -> None:
        self.now += 1.0


class BufferedLog:
    """One log: a stable append-only file plus a volatile buffer."""

    def __init__(self, stable: StableStorage, name: str):
        self.stable = stable
        self.name = name
        self.buffer: List[Tuple] = []

    def append(self, record: Tuple) -> None:
        self.buffer.append(record)

    def force(self) -> None:
        if self.buffer:
            self.stable.extend(self.name, self.buffer)
            self.buffer = []

    def lose_volatile(self) -> None:
        self.buffer = []

    def stable_records(self) -> List[Tuple]:
        # read_log: replay trusts only the checksum-clean prefix (the
        # torn-tail stop rule); interior rot raises RecordIntegrityError.
        return self.stable.read_log(self.name)


class LogCore(RecoveryManager):
    """Buffer pool, N-log commit, truncation and fuzzy checkpoint."""

    checkpoint_policy = FuzzyCheckpoint

    #: Hook-name prefix (``wal``, ``cmd``, ``redo``).  The hook names the
    #: shared code crosses are built from it once per class.
    hook_prefix = "log"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        prefix = cls.hook_prefix
        cls._commit_hooks = tuple(f"{prefix}.commit.{step}" for step in _COMMIT_STEPS)
        cls._recover_truncate_hooks = (
            f"{prefix}.recover.truncate-updates",
            f"{prefix}.recover.truncate-commits",
        )
        cls._checkpoint_truncate_hooks = (
            f"{prefix}.checkpoint.truncate-updates",
            f"{prefix}.checkpoint.truncate-commits",
        )

    def __init__(
        self,
        log_names: Sequence[str],
        stable: Optional[StableStorage],
        enforce_locks: bool,
        tracer=None,
    ):
        super().__init__(stable, enforce_locks)
        if not log_names:
            raise ValueError("need at least one log")
        self._logs = [BufferedLog(self.stable, name) for name in log_names]
        self.n_logs = len(self._logs)
        #: Optional :class:`repro.trace.Tracer` (duck-typed; never imported
        #: here to respect the layer map).  Restart phases record spans,
        #: timed by a :class:`StepClock` when the tracer has no clock.
        self.tracer = tracer
        self._clock = None
        if tracer is not None and getattr(tracer, "env", None) is None:
            self._clock = StepClock()
            tracer.env = self._clock
        # -- volatile state --
        #: page -> (data, seq, writer-tid or None once committed); a
        #: manager that steals never records the writer.
        self._pool: Dict[int, Tuple[bytes, int, Optional[int]]] = {}
        self._page_seq: Dict[int, int] = {}
        #: tid -> page -> the committed image the transaction overwrote.
        self._txn_first_before: Dict[int, Dict[int, bytes]] = {}
        #: tid -> pages whose pool entry names it as writer.
        self._txn_pages: Dict[int, Set[int]] = {}
        #: tid -> logs holding its records (forced at its commit).
        self._txn_logs: Dict[int, Set[int]] = {}
        #: page -> logs holding unforced records of that page (WAL rule).
        self._page_logs: Dict[int, Set[int]] = {}

    # -- internals -----------------------------------------------------------
    def _tick(self) -> None:
        if self._clock is not None:
            self._clock.tick()

    def _force_log(self, index: int) -> None:
        self._logs[index].force()

    def _current(self, page: int) -> bytes:
        entry = self._pool.get(page)
        if entry is not None:
            return entry[0]
        return self.stable.read_page(page)

    def _next_seq(self, page: int) -> int:
        seq = self._page_seq.get(page)
        if seq is None:
            seq = self.stable.page_seq(page)
        seq += 1
        self._page_seq[page] = seq
        return seq

    def _do_read(self, tid: int, page: int) -> bytes:
        return self._current(page)

    # -- buffer pool ---------------------------------------------------------
    def flush_all(self) -> None:
        for page in list(self._pool):
            self.flush_page(page)

    @property
    def dirty_pages(self) -> List[int]:
        return [
            page
            for page, entry in self._pool.items()
            if entry[1] > self.stable.page_seq(page)
        ]

    # -- commit / abort ------------------------------------------------------
    def _do_commit(self, tid: int) -> None:
        pre_force, mid_force, pre_record, pre_commit_force, post = self._commit_hooks
        self._fault_point(pre_force)
        for log_index in sorted(self._txn_logs.get(tid, ())):
            self._force_log(log_index)
            self._fault_point(mid_force)
        self._fault_point(pre_record)
        home_index = tid % self.n_logs
        self._logs[home_index].append(("commit", tid))
        self._fault_point(pre_commit_force)
        self._force_log(home_index)
        self._fault_point(post)
        self._forget_committed(tid)

    def _forget_committed(self, tid: int) -> None:
        """Drop ``tid``'s volatile state once its commit record is durable;
        the pages it wrote become flushable."""
        for page in self._txn_pages.pop(tid, ()):
            entry = self._pool.get(page)
            if entry is not None and entry[2] == tid:
                self._pool[page] = (entry[0], entry[1], None)
        self._txn_first_before.pop(tid, None)
        self._txn_logs.pop(tid, None)

    def _do_abort(self, tid: int) -> None:
        # In-memory undo: restore the committed image; no compensation
        # records are needed because restart ignores (or undoes) a
        # transaction without a commit record.  The restored entry is
        # committed data, so it is flushable again.
        for page, before in self._txn_first_before.pop(tid, {}).items():
            seq = self._next_seq(page)
            self._pool[page] = (before, seq, None)
        self._txn_pages.pop(tid, None)
        self._txn_logs.pop(tid, None)

    # -- crash / restart -----------------------------------------------------
    def _on_crash(self) -> None:
        self._pool.clear()
        self._page_seq.clear()
        self._txn_first_before.clear()
        self._txn_pages.clear()
        self._txn_logs.clear()
        self._page_logs.clear()
        for log in self._logs:
            log.lose_volatile()

    def _scan_logs(self):
        """Scan each log independently; union commits, group updates by page.

        No cross-log order is ever used: per-page sequence numbers order
        each page's records whichever log they landed in.
        """
        committed: Set[int] = set()
        by_page: Dict[int, List] = {}
        for log in self._logs:
            for record in log.stable_records():
                if record[0] == "commit":
                    committed.add(record[1])
                else:
                    entry = record[1]
                    by_page.setdefault(entry.page, []).append(entry)
        return committed, by_page

    def _truncate_logs(
        self,
        kept: Dict[str, List[Tuple]],
        retained: Set[int],
        hooks: Tuple[str, str],
    ) -> Dict[str, int]:
        """Cut every log to its ``kept`` updates plus the commit records of
        ``retained`` transactions; returns per-log retained counts.

        Two-phase, so a crash between per-log truncations stays safe:
        dropping a commit record from log A while the transaction's
        updates survive in log B would make a re-run of restart lose it.
        Phase 1 drops update records only (keeping every commit record);
        phase 2 drops the commit records no kept update needs.
        """
        commits_per_log: Dict[str, List[Tuple]] = {}
        for log in self._logs:
            commits = [r for r in log.stable_records() if r[0] == "commit"]
            commits_per_log[log.name] = commits
            self.stable.truncate(log.name, kept.get(log.name, []) + commits)
            self._fault_point(hooks[0])
        stats = {}
        for log in self._logs:
            final = kept.get(log.name, []) + [
                r for r in commits_per_log[log.name] if r[1] in retained
            ]
            self.stable.truncate(log.name, final)
            self._fault_point(hooks[1])
            stats[log.name] = len(final)
        return stats

    def _truncate_after_restart(self) -> None:
        """Empty every log once restart has reached the committed state.

        Every surviving committed record is now reflected and every
        uncommitted record permanently dead.  (This also stops reused
        page sequence numbers from colliding with dead records.)
        """
        self._truncate_logs({}, set(), self._recover_truncate_hooks)

    # -- checkpointing -------------------------------------------------------
    def checkpoint(self, flush: bool = False) -> Dict[str, int]:
        """Fuzzy checkpoint: truncate the logs without quiescing.

        Keeps the update records the design's :meth:`_keep_record` rule
        names, plus the commit records of transactions whose records
        survive.  With ``flush=True`` dirty pages are flushed first
        (a no-steal gate holds back uncommitted ones), maximizing
        truncation.  Returns per-log retained record counts.
        """
        for index in range(self.n_logs):
            self._force_log(index)
        if flush:
            self.flush_all()
        committed, _by_page = self._scan_logs()
        retained: Set[int] = set()
        scanned = []
        for log in self._logs:
            records = log.stable_records()
            kept = []
            for record in records:
                if record[0] == "commit":
                    continue
                entry = record[1]
                unreflected = entry.seq > self.stable.page_seq(entry.page)
                if self._keep_record(entry.tid, committed, unreflected):
                    kept.append(record)
                    retained.add(entry.tid)
            scanned.append((log, records, kept))
        return self._truncate_checkpoint(scanned, retained)

    def _keep_record(self, tid: int, committed: Set[int], unreflected: bool) -> bool:
        """No-steal rule: keep a committed record the stable page does not
        yet reflect, and every record of a still-active transaction (it
        may yet commit).  Records of aborted transactions are dropped —
        with no uncommitted data on disk they can never matter again."""
        if tid in committed:
            return unreflected
        return tid in self._active

    def _truncate_checkpoint(self, scanned, retained: Set[int]) -> Dict[str, int]:
        """Two-phase truncation, the same discipline as restart."""
        kept = {log.name: records for log, _all, records in scanned}
        return self._truncate_logs(kept, retained, self._checkpoint_truncate_hooks)

    # -- checkpoint steps (run by the FuzzyCheckpoint template) --------------
    def checkpoint_compact(self) -> Dict[str, int]:
        return self.checkpoint(flush=True)

    def recovery_volume(self) -> int:
        return sum(self.log_lengths().values())

    def checkpoint_dirty_pages(self) -> Tuple[int, ...]:
        # Captured before the flush: that is the fuzzy record's point.
        return tuple(sorted(self.dirty_pages))

    # -- inspection ----------------------------------------------------------
    def read_committed(self, page: int) -> bytes:
        for tid in self._active:
            before = self._txn_first_before.get(tid, {}).get(page)
            if before is not None:
                return before
        return self._current(page)

    def log_lengths(self) -> Dict[str, int]:
        """Stable record count per log (buffered tails excluded)."""
        return {log.name: len(log.stable_records()) for log in self._logs}
