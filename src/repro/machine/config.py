"""Configuration of the simulated database machine.

Defaults reproduce the paper's baseline testbed (Section 4): 25 query
processors, 100 4 KB cache frames, 2 data disks, multiprogramming level and
read-ahead chosen to match the paper's bare-machine anchors (see
``EXPERIMENTS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.hardware.params import IBM_3350, VAX_11_750, CostModel, CpuParams, DiskParams

__all__ = ["MachineConfig"]


@dataclass(frozen=True)
class MachineConfig:
    """Static parameters of one database-machine instance."""

    n_query_processors: int = 25
    cache_frames: int = 100
    n_data_disks: int = 2
    parallel_data_disks: bool = False
    disk: DiskParams = IBM_3350
    cpu: CpuParams = VAX_11_750
    cost: CostModel = field(default_factory=CostModel)
    #: Concurrent transactions admitted by the back-end controller.
    mpl: int = 3
    #: Per-transaction anticipatory-read depth (pages in flight), subject to
    #: free cache frames.  The BEC reads ahead while frames allow.
    prefetch_window: int = 32
    #: Logical database size in pages; the database is striped over the data
    #: disks' non-reserved cylinders.
    db_pages: int = 120_000
    #: Cylinders reserved per data disk for scratch space, differential
    #: files, and other recovery structures.
    reserved_cylinders: int = 50
    #: Queue discipline of conventional data disks: "fcfs" (period-correct
    #: default) or "sstf" (shortest-seek-time-first; ablation extension).
    disk_scheduling: str = "fcfs"
    #: Mirror every data disk (two physical drives per logical disk).  Reads
    #: fall back to the surviving side when one dies; a replacement rebuilds
    #: in the background.  Off by default: the paper's testbed is unmirrored,
    #: and default runs must stay byte-identical.
    mirrored_data_disks: bool = False
    #: Run the online integrity scrubber: a background patrol that reads
    #: every data-disk cylinder, detects rotted sectors (BIT_ROT faults),
    #: and repairs them from the mirror twin or escalates to archive media
    #: recovery.  Off by default: fault-free runs must stay byte-identical.
    scrub_enabled: bool = False
    #: Fraction of a disk's bandwidth the scrubber may consume (the rest is
    #: idle gaps left for foreground I/O, like the mirror rebuild's share).
    scrub_io_share: float = 0.1
    #: Idle time between complete scrub patrols, in ms (0 = back-to-back).
    scrub_interval_ms: float = 50.0
    #: Client deadline from arrival to admission in an open-system run
    #: (:meth:`DatabaseMachine.run_open`; the other admission values are
    #: constants in :mod:`repro.machine.admission`), in ms; a transaction
    #: not admitted by its deadline is shed (0 disables deadline shedding).
    admission_deadline_ms: float = 0.0
    seed: int = 1985

    def __post_init__(self) -> None:
        if self.n_query_processors < 1:
            raise ValueError("need at least one query processor")
        if self.mpl < 1:
            raise ValueError("multiprogramming level must be >= 1")
        if self.prefetch_window < 1:
            raise ValueError("prefetch window must be >= 1")
        usable = (
            (self.disk.cylinders - self.reserved_cylinders)
            * self.disk.pages_per_cylinder
            * self.n_data_disks
        )
        if self.db_pages > usable:
            raise ValueError(
                f"database of {self.db_pages} pages does not fit in "
                f"{usable} usable pages "
                f"({self.n_data_disks} disks minus reserved cylinders)"
            )
        if self.cache_frames < self.mpl:
            raise ValueError("cache must hold at least one frame per active txn")
        if self.disk_scheduling not in ("fcfs", "sstf"):
            raise ValueError(f"unknown disk scheduling {self.disk_scheduling!r}")
        if not 0.0 < self.scrub_io_share <= 1.0:
            raise ValueError(
                f"scrub I/O share must be in (0, 1], got {self.scrub_io_share}"
            )
        if self.scrub_interval_ms < 0:
            raise ValueError("scrub interval must be >= 0")
        if self.admission_deadline_ms < 0:
            raise ValueError("admission deadline must be >= 0 (0 disables)")

    @property
    def reserved_start_cylinder(self) -> int:
        return self.disk.cylinders - self.reserved_cylinders

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """A copy with selected fields replaced."""
        return replace(self, **kwargs)
