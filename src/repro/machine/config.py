"""Configuration of the simulated database machine.

Defaults reproduce the paper's baseline testbed (Section 4): 25 query
processors, 100 4 KB cache frames, 2 data disks, multiprogramming level and
read-ahead chosen to match the paper's bare-machine anchors (see
``EXPERIMENTS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.hardware.params import IBM_3350, VAX_11_750, CostModel, CpuParams, DiskParams

__all__ = ["ADMISSION_POLICIES", "MachineConfig"]

#: The admission policies of an open-system run (see ``admission_policy``).
ADMISSION_POLICIES = ("drop", "block")


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
    #: Fraction of a surviving mirror side's bandwidth the background rebuild
    #: may consume (the rest is idle gaps left for foreground I/O).
    mirror_rebuild_io_share: float = 0.5
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
    #: Delivery attempts per log fragment (each attempt re-selects a live
    #: log processor; each link attempt itself retransmits with backoff).
    log_ship_max_attempts: int = 4
    #: Linear backoff between fragment-shipping attempts, in ms.
    log_ship_backoff_ms: float = 2.0
    #: Depth of the bounded admission queue in front of the machine
    #: (admitted-but-not-yet-running transactions).  Only open-system runs
    #: (:meth:`DatabaseMachine.run_open`) consult the admission knobs;
    #: closed-batch ``run()`` is untouched and stays byte-identical.
    admission_queue_limit: int = 16
    #: Admission policy when an offered transaction arrives:
    #: ``drop`` (turn away instantly when the queue is full) or
    #: ``block`` (wait up to ``admission_block_timeout_ms`` for room).
    admission_policy: str = "drop"
    #: How long a ``block``-policy arrival waits for queue room before the
    #: attempt counts as a turn-away, in ms.
    admission_block_timeout_ms: float = 250.0
    #: Client-side attempts per offered transaction (first try + retries);
    #: a turned-away client retries with capped exponential backoff.
    admission_retry_max_attempts: int = 3
    #: Base of the capped exponential client backoff, in ms.
    admission_retry_base_ms: float = 50.0
    #: Cap on the exponential client backoff, in ms.
    admission_retry_cap_ms: float = 400.0
    #: Client deadline from arrival to admission, in ms; a transaction not
    #: admitted by its deadline is shed (0 disables deadline shedding).
    admission_deadline_ms: float = 0.0
    #: Cache-occupancy fraction at which backpressure asserts (arrivals
    #: are turned away) and the fraction below which it releases.
    backpressure_cache_high: float = 0.95
    backpressure_cache_low: float = 0.75
    #: Waiting lock requests at which backpressure asserts / releases.
    backpressure_lock_high: int = 48
    backpressure_lock_low: int = 12
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
        if not 0.0 < self.mirror_rebuild_io_share <= 1.0:
            raise ValueError(
                f"mirror rebuild I/O share must be in (0, 1], "
                f"got {self.mirror_rebuild_io_share}"
            )
        if not 0.0 < self.scrub_io_share <= 1.0:
            raise ValueError(
                f"scrub I/O share must be in (0, 1], got {self.scrub_io_share}"
            )
        if self.scrub_interval_ms < 0:
            raise ValueError("scrub interval must be >= 0")
        if self.log_ship_max_attempts < 1:
            raise ValueError("need at least one log-ship attempt")
        if self.log_ship_backoff_ms < 0:
            raise ValueError("log-ship backoff must be >= 0")
        if self.admission_queue_limit < 1:
            raise ValueError("admission queue needs at least one slot")
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.admission_policy!r}"
            )
        if self.admission_block_timeout_ms < 0:
            raise ValueError("admission block timeout must be >= 0")
        if self.admission_retry_max_attempts < 1:
            raise ValueError("need at least one admission attempt")
        if self.admission_retry_base_ms < 0 or self.admission_retry_cap_ms < 0:
            raise ValueError("admission retry backoff must be >= 0")
        if self.admission_deadline_ms < 0:
            raise ValueError("admission deadline must be >= 0 (0 disables)")
        if not 0.0 < self.backpressure_cache_low <= self.backpressure_cache_high <= 1.0:
            raise ValueError(
                "backpressure cache watermarks need "
                "0 < low <= high <= 1, got "
                f"{self.backpressure_cache_low}/{self.backpressure_cache_high}"
            )
        if not 0 <= self.backpressure_lock_low <= self.backpressure_lock_high:
            raise ValueError(
                "backpressure lock watermarks need 0 <= low <= high, got "
                f"{self.backpressure_lock_low}/{self.backpressure_lock_high}"
            )

    @property
    def usable_pages_per_disk(self) -> int:
        return (self.disk.cylinders - self.reserved_cylinders) * self.disk.pages_per_cylinder

    @property
    def reserved_start_cylinder(self) -> int:
        return self.disk.cylinders - self.reserved_cylinders

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """A copy with selected fields replaced."""
        return replace(self, **kwargs)
