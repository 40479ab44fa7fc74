"""The hook interface every recovery architecture implements.

The database machine drives transactions through a fixed pipeline; an
architecture customizes the recovery-relevant steps:

1. ``on_begin`` — per-transaction setup (e.g. read the D-file pages).
2. ``read_sequence`` — the stream of work items for the transaction's
   reference string (a differential-file architecture interleaves A-file
   reads here).
3. ``before_page_read`` — indirection before a data page can be fetched
   (page-table lookup for shadow paging).
4. ``read_addresses`` — where the page physically lives (version selection
   fetches two adjacent blocks; scrambled shadow placement remaps).
5. ``page_cpu_ms`` — query-processor time for the page, including recovery
   CPU overheads (log-fragment construction, set-difference, ...).
6. ``on_page_updated`` — runs *while the query processor is held* right
   after an update (shipping a log fragment to a log processor).
7. ``writeback`` — the full path that makes an updated page durable; owns
   releasing the page's cache frame.
8. ``on_commit`` — commit-time recovery work (force the log, update the
   page table, overwrite shadows from the scratch ring, append A/D pages).
9. ``on_abort`` — cleanup when the scheduler aborts the transaction.

The base class implements the *bare machine*: no recovery data collected,
updated pages written home in place as soon as they are produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Tuple, Union

from repro.hardware.disk import DiskAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.machine.machine import DatabaseMachine
    from repro.workload.transaction import Transaction

__all__ = ["AuxRead", "DataPage", "RecoveryArchitecture", "WorkItem"]


@dataclass
class DataPage:
    """A reference-string page: locked, read, processed, maybe updated.

    Not frozen: one is built per page, and a frozen dataclass's
    ``__init__`` assigns through ``object.__setattr__``.
    """

    page: int


@dataclass(frozen=True)
class AuxRead:
    """An auxiliary read (e.g. an A-file page): frames + I/O + optional CPU,
    no locking and no update path."""

    disk_idx: int
    addresses: Tuple[DiskAddress, ...]
    cpu_ms: float = 0.0
    tag: str = "aux"


WorkItem = Union[DataPage, AuxRead]


class RecoveryArchitecture:
    """Base architecture = the bare machine (no recovery)."""

    name = "bare"

    def __init__(self) -> None:
        #: Set by attach(); the machine re-binds it for each run and
        #: clears it when the run returns.
        self.machine: "DatabaseMachine" = None
        #: Checkpoints completed so far (see :meth:`take_checkpoint`).
        self.checkpoints_taken = 0

    # -- wiring -----------------------------------------------------------------
    def attach(self, machine: "DatabaseMachine") -> None:
        """Bind to a machine; create private processors/disks here."""
        self.machine = machine

    # -- workload shaping ---------------------------------------------------------
    def read_sequence(self, txn: "Transaction") -> Iterable[WorkItem]:
        """Work items processed under the transaction's read-ahead window."""
        return (DataPage(p) for p in txn.read_pages)

    # -- per-page hooks (generators yield simulation events) -----------------------
    def on_begin(self, txn: "Transaction"):
        """Per-transaction setup, before any page is read."""
        return
        yield  # pragma: no cover

    def before_page_read(self, txn: "Transaction", page: int):
        """Indirection needed before the data page can be located."""
        return
        yield  # pragma: no cover

    def read_addresses(
        self, txn: "Transaction", page: int
    ) -> Tuple[int, Tuple[DiskAddress, ...]]:
        """Disk index and physical block(s) to fetch for ``page``."""
        disk_idx, addr = self.machine.locate(page)
        return disk_idx, (addr,)

    def write_address(
        self, txn: "Transaction", page: int
    ) -> Tuple[int, DiskAddress]:
        """Where the updated page is written back (default: in place)."""
        return self.machine.locate(page)

    def page_cpu_ms(self, txn: "Transaction", page: int, is_update: bool) -> float:
        """Query-processor time to process ``page``."""
        cfg = self.machine.config
        instructions = cfg.cost.scan_page
        if is_update:
            instructions += cfg.cost.update_page
        return cfg.cpu.ms(instructions)

    def on_page_updated(self, txn: "Transaction", page: int, qp_index: int):
        """Runs holding the query processor, right after the update."""
        return
        yield  # pragma: no cover

    # -- durability path ------------------------------------------------------------
    def writeback(self, txn: "Transaction", page: int):
        """Make the updated page durable; must release its cache frame."""
        machine = self.machine
        disk_idx, addr = self.write_address(txn, page)
        request = machine.data_disks[disk_idx].write([addr], tag="writeback")
        yield request.done
        machine.note_page_written(txn, page=page)
        machine.cache.release(1)

    def on_commit(self, txn: "Transaction"):
        """Commit-time recovery work; default waits for all write-backs."""
        yield from self.machine.wait_writebacks(txn)

    def on_abort(self, txn: "Transaction"):
        """Recovery cleanup after a scheduler-initiated abort."""
        return
        yield  # pragma: no cover

    def take_checkpoint(self):
        """Make the architecture's recovery data restart-bounded (generator).

        Driven periodically by :func:`repro.checkpoint.sim_checkpointer`
        (or an architecture's own trigger); implementations force buffered
        recovery data and write whatever durable record restart starts
        from.  The bare machine keeps no recovery data, so its checkpoint
        is only the counter.
        """
        self.checkpoints_taken += 1
        if self.machine is not None:
            self.machine._tinstant("checkpoint", kind="noop")
        return
        yield  # pragma: no cover

    # -- reporting --------------------------------------------------------------------
    def extra_utilizations(self, t_end: float) -> Dict[str, float]:
        return {}

    def extra_counters(self) -> Dict[str, int]:
        return {}

    def extra_averages(self, t_end: float) -> Dict[str, float]:
        return {}

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"
