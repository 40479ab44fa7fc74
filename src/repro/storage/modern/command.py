"""Adaptive command logging with dependency-aware parallel replay.

The modern counterpoint to the paper's parallel physical logging
(Section 3.1): instead of shipping full before/after page images, a
transaction ships compact *command* records — the operation and its
effect — over N independent logs, and restart re-executes committed
commands in dependency order (Yao et al., "Adaptive logging: optimizing
logging and recovery costs in distributed in-memory databases").

Two modern ideas are modeled faithfully:

* **Dependency-graph replay.**  Per-page update sequence numbers
  (assigned under strict 2PL) order each page's committed records; the
  per-page chains induce a transaction-level precedence DAG, and restart
  replays it as topological *waves* — every transaction in a wave is
  independent of the others, so a wave replays in parallel across log
  processors (:mod:`repro.storage.modern.replay`).  The schedule of the
  last restart is published in :attr:`CommandLoggingManager.last_replay`.

* **Adaptive fallback to physical records.**  Command records are cheap
  to collect but chain restart behind every dependency; a high-fan-in
  transaction (many distinct pages) would serialize wide stretches of
  the replay graph.  Once a transaction's write fan-in reaches
  ``physical_threshold`` it switches to ARIES-style physical records
  (before + after image) for the rest of its life — exactly Yao et
  al.'s hybrid — and the counters record the split.

Buffering is **no-steal / no-force**: an uncommitted page never reaches
its home disk (the write gate silently refuses, counted in
``writes_gated``), so command records never need an undo scan — restart
is analysis + redo only.  Commit forces the transaction's logs before
the commit record (the WAL rule), exactly like the distributed-WAL
manager.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.storage.archive import ArchiveDumpMixin
from repro.storage.logcore import LogCore
from repro.storage.modern.replay import build_waves, wave_stats
from repro.storage.stable import StableStorage

__all__ = ["CommandLoggingManager", "CommandRecord", "PhysicalRecord"]


class CommandRecord(NamedTuple):
    """One logical operation: the page it touched and its effect."""

    tid: int
    page: int
    seq: int
    after: bytes


class PhysicalRecord(NamedTuple):
    """ARIES-style fallback record: full before/after images."""

    tid: int
    page: int
    seq: int
    before: bytes
    after: bytes


class CommandLoggingManager(ArchiveDumpMixin, LogCore):
    """N-log adaptive command logging; see module docstring."""

    name = "command-logging"
    hook_prefix = "cmd"

    def __init__(
        self,
        n_logs: int = 3,
        physical_threshold: int = 4,
        stable: Optional[StableStorage] = None,
        enforce_locks: bool = True,
        tracer=None,
    ):
        super().__init__(
            [f"cmdlog{i}" for i in range(n_logs)], stable, enforce_locks, tracer
        )
        if physical_threshold < 1:
            raise ValueError("physical_threshold must be positive")
        self.physical_threshold = physical_threshold
        self._round_robin = 0
        # -- statistics --
        self.command_records = 0
        self.physical_records = 0
        self.writes_gated = 0
        #: Schedule of the most recent restart (see :func:`wave_stats`).
        self.last_replay: Dict[str, int] = {}

    def _select_log(self) -> int:
        index = self._round_robin
        self._round_robin = (self._round_robin + 1) % self.n_logs
        return index

    # -- writes ------------------------------------------------------------------
    def _do_write(self, tid: int, page: int, data: bytes) -> None:
        if not isinstance(data, bytes):
            raise TypeError("page data must be bytes")
        before = self._current(page)
        seq = self._next_seq(page)
        pages = self._txn_pages.setdefault(tid, set())
        pages.add(page)
        log_index = self._select_log()
        # Adaptive knob: past the fan-in threshold the transaction ships
        # physical records for the rest of its life (sticky, per Yao et
        # al.: its page set only grows).
        if len(pages) >= self.physical_threshold:
            self._logs[log_index].append(
                ("phys", PhysicalRecord(tid, page, seq, before, data))
            )
            self.physical_records += 1
        else:
            self._logs[log_index].append(
                ("cmd", CommandRecord(tid, page, seq, data))
            )
            self.command_records += 1
        self._pool[page] = (data, seq, tid)
        self._txn_first_before.setdefault(tid, {}).setdefault(page, before)
        self._txn_logs.setdefault(tid, set()).add(log_index)
        self._page_logs.setdefault(page, set()).add(log_index)

    # -- buffer management (no-steal / no-force) ----------------------------------
    def flush_page(self, page: int) -> None:
        """Flush a page to its home disk — refused while uncommitted.

        The no-steal gate: command records carry no before image, so an
        uncommitted page on the home disk would be unrecoverable.  The
        gate makes the flush a silent no-op (counted in ``writes_gated``)
        until the writer commits.
        """
        entry = self._pool.get(page)
        if entry is None:
            return
        data, seq, writer = entry
        if writer is not None:
            self.writes_gated += 1
            return
        for log_index in sorted(self._page_logs.get(page, ())):
            self._force_log(log_index)
        self._fault_point("cmd.flush.between-force-and-write")
        self.stable.write_page(page, data, seq)
        self._fault_point("cmd.flush.post-write")

    # -- restart ------------------------------------------------------------------
    def _on_recover(self) -> None:
        # Analysis: one scan of every log — committed set, each committed
        # transaction's records, and the per-page chains the replay DAG
        # is built from.
        span = None
        if self.tracer is not None:
            span = self.tracer.begin("log.analysis")
        committed, by_page = self._scan_logs()
        by_txn: Dict[int, list] = {}
        page_chains: Dict[int, list] = {}
        for page, chain in by_page.items():
            for entry in chain:
                if entry.tid in committed:
                    by_txn.setdefault(entry.tid, []).append(
                        (page, entry.seq, entry.after)
                    )
                    page_chains.setdefault(page, []).append((entry.seq, entry.tid))
        waves = build_waves(committed, page_chains)
        self.last_replay = wave_stats(waves)
        self._tick()
        if span is not None:
            self.tracer.end(span, **self.last_replay)
        self._fault_point("cmd.recover.analysis")
        # Replay: wave by wave; within a wave transactions are mutually
        # independent (would run on different log processors).  The
        # per-page seq guard makes re-replay after a mid-restart crash
        # idempotent.
        for wave_index, wave in enumerate(waves):
            wspan = None
            if self.tracer is not None:
                wspan = self.tracer.begin(
                    "replay.wave", wave=wave_index, width=len(wave)
                )
            for tid in wave:
                for page, seq, after in sorted(by_txn.get(tid, [])):
                    if seq > self.stable.page_seq(page):
                        self.stable.write_page(page, after, seq)
                        self._tick()
                    self._fault_point("cmd.recover.page")
            if wspan is not None:
                self.tracer.end(wspan)
            self._fault_point("cmd.recover.wave")
        self._truncate_after_restart()
