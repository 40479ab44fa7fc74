"""The "thru page-table" shadow architecture (paper Section 3.2.1).

Every data-page access first resolves the page's disk address through the
page table; the lookup is pipelined with data-page processing (the machine's
read-ahead window keeps the PT disk and the data disks concurrently busy,
which is the paper's explanation for the modest degradation).  At commit the
updated pages' PT entries are rewritten: PT pages evicted from the buffer
must be reread — the buffer-size effect of Table 6.

The *clustered* configuration assumes logically adjacent pages stay
physically clustered within a cylinder (the paper's Section 4.2.1
assumption); the *scrambled* configuration drops that assumption and maps
data pages through a pseudo-random permutation (Section 4.2.3 / Table 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.base import RecoveryArchitecture
from repro.core.shadow.page_table import PageTableSubsystem
from repro.hardware.placement import ScrambledPlacement

__all__ = ["PageTableShadowArchitecture", "ShadowConfig"]


@dataclass(frozen=True)
class ShadowConfig:
    """Parameters of the thru-page-table shadow architecture."""

    n_pt_processors: int = 1
    pt_buffer_pages: int = 10
    #: Whether logically adjacent pages stay physically clustered.
    clustered: bool = True

    def __post_init__(self) -> None:
        if self.n_pt_processors < 1:
            raise ValueError("need at least one page-table processor")
        if self.pt_buffer_pages < 1:
            raise ValueError("page-table buffer needs at least one page")


class PageTableShadowArchitecture(RecoveryArchitecture):
    """Shadow paging with dedicated page-table processors and disks."""

    name = "shadow-pt"

    def __init__(self, config: Optional[ShadowConfig] = None):
        super().__init__()
        self.config_shadow = config or ShadowConfig()
        self.page_table: Optional[PageTableSubsystem] = None

    def attach(self, machine) -> None:
        super().attach(machine)
        cfg = self.config_shadow
        if not cfg.clustered:
            machine.placement = ScrambledPlacement(
                machine.config.disk,
                machine.config.n_data_disks,
                machine.config.db_pages,
            )
        self.page_table = PageTableSubsystem(
            machine.env,
            n_processors=cfg.n_pt_processors,
            buffer_pages=cfg.pt_buffer_pages,
            db_pages=machine.config.db_pages,
            streams=machine.streams,
        )

    # -- indirection ------------------------------------------------------------
    def before_page_read(self, txn, page: int):
        """Resolve the page's address through the page table."""
        yield from self.page_table.lookup(page)

    def page_cpu_ms(self, txn, page, is_update: bool) -> float:
        cfg = self.machine.config
        return super().page_cpu_ms(txn, page, is_update) + cfg.cpu.ms(
            cfg.cost.pt_lookup
        )

    # -- commit -----------------------------------------------------------------
    def on_commit(self, txn):
        """New copies are already on disk; install them in the page table."""
        yield from self.machine.wait_writebacks(txn)
        if txn.write_pages:
            span = self.machine._tspan(
                "pt.update", tid=txn.tid, pages=len(txn.write_pages)
            )
            monitor = self.machine.monitor
            for page in sorted(txn.write_pages):
                if monitor is not None:
                    monitor.check("install", page)
                yield from self.page_table.update_entry(page)
            self.machine._tend(span)
            fspan = self.machine._tspan("pt.flush", tid=txn.tid)
            events = self.page_table.flush(txn.write_pages)
            if events:
                yield self.machine.env.all_of(events)
            self.machine._tend(fspan)

    # -- reporting ----------------------------------------------------------------
    def extra_utilizations(self, t_end: float) -> Dict[str, float]:
        return self.page_table.utilizations(t_end)

    def extra_counters(self) -> Dict[str, int]:
        return self.page_table.counters()

    def describe(self) -> str:
        cfg = self.config_shadow
        layout = "clustered" if cfg.clustered else "scrambled"
        return (
            f"shadow-pt[{cfg.n_pt_processors} ptp, "
            f"buffer={cfg.pt_buffer_pages}, {layout}]"
        )
