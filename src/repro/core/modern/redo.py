"""Timed redo-only WAL with ELR (Sauer & Härder) on the 1985 machine.

Two behavioural changes against the parallel-logging parent, both priced
by the simulator:

* **No-steal write gate.**  :meth:`RedoOnlyWalArchitecture.writeback`
  never writes the updated page home — it parks the page and releases
  the cache frame immediately (the durable copy lives in the log
  stream), so updated frames stop blocking the buffer pool on WAL
  barriers.  The home writes happen in :meth:`on_commit`, after the
  transaction's fragments are durable: uncommitted pages never reach
  the data disks, and an abort simply drops the parked pages.

* **Early lock release.**  Commit releases the transaction's page locks
  as soon as its fragments have *landed* at the log processors — the
  commit record then has its place in the sequential log stream, so any
  dependent committer's force also covers it (the single-log ordering
  argument; the functional twin in :mod:`repro.storage.modern.redo`
  proves it against the crashtest oracle).  Waiters unblock before the
  forces and home writes run, marked by a ``lock.release`` instant.

Restart needs no undo pass — priced in ``repro.analysis.restart`` as
``undo_ms = 0``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.logging.architecture import (
    LoggingConfig,
    ParallelLoggingArchitecture,
)
from repro.sim.monitor import CounterStat

__all__ = ["RedoOnlyWalArchitecture"]


class RedoOnlyWalArchitecture(ParallelLoggingArchitecture):
    """No-steal redo-only WAL with early lock release; see module docstring."""

    name = "redo-wal"

    def __init__(self, config: Optional[LoggingConfig] = None):
        super().__init__(config)
        self.writes_gated = CounterStat("redo.writes_gated")
        self.early_lock_releases = CounterStat("redo.early_lock_releases")

    # -- durability -----------------------------------------------------------------
    def _gated_of(self, txn) -> List[int]:
        return self.machine.runtime(txn).scratch.setdefault("redo.gated", [])

    def writeback(self, txn, page):
        """No-steal: park the page; it goes home at commit (or never)."""
        self._gated_of(txn).append(page)
        self.writes_gated.increment()
        self.machine.cache.release(1)
        return
        yield  # pragma: no cover - hook stays a generator

    def on_commit(self, txn):
        """ELR, then force, then stream the parked pages home."""
        machine = self.machine
        fragments = self._fragments_of(txn)
        in_flight = [
            fragment.delivered
            for fragment in fragments.values()
            if not fragment.delivered.triggered
        ]
        if in_flight:
            yield machine.env.all_of(in_flight)
        # Early lock release: every fragment has landed, so the commit
        # record's position in the log stream is fixed — dependent
        # transactions may take the locks before the force completes.
        machine.locks.release_all(txn.tid)
        machine._tinstant("lock.release", tid=txn.tid, early=True)
        self.early_lock_releases.increment()
        for lp_index in sorted(txn.recovery_state.get("log_processors", ())):
            if not self.log_processors[lp_index].alive:
                continue
            self.log_processors[lp_index].force()
        pending = [
            fragment.durable
            for fragment in fragments.values()
            if not fragment.durable.triggered
        ]
        if pending:
            yield machine.env.all_of(pending)
        # Home writes only now: no uncommitted page ever reaches disk.
        for page in self._gated_of(txn):
            span = machine._tspan("writeback", tid=txn.tid, page=page)
            disk_idx, addr = self.write_address(txn, page)
            if machine.monitor is not None:
                machine.monitor.check("wal", page)
            request = machine.data_disks[disk_idx].write([addr], tag="writeback")
            yield request.done
            machine.note_page_written(txn, page=page)
            machine._tend(span)
        yield from machine.wait_writebacks(txn)

    def on_abort(self, txn):
        """Drop the parked pages: losers never touch the data disks."""
        gated = self._gated_of(txn)
        del gated[:]
        yield from super().on_abort(txn)

    # -- reporting -----------------------------------------------------------------
    def extra_counters(self) -> Dict[str, int]:
        out = super().extra_counters()
        out["writes_gated"] = self.writes_gated.count
        out["early_lock_releases"] = self.early_lock_releases.count
        return out

    def describe(self) -> str:
        cfg = self.config_log
        return (
            f"redo-wal[no-steal, elr, {cfg.n_log_processors} lp, "
            f"{cfg.routing.value}]"
        )
