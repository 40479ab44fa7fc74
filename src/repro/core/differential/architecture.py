"""The differential-file recovery architecture (paper Sections 3.3, 4.3).

Cost model, following the paper's assumptions:

* a transaction reading N base pages also reads ``size_fraction * N`` pages
  from each of the A and D files (differential files are ``size_fraction``
  of the base file, 10 % by default);
* processing a B or A page includes the set-difference against the
  transaction's D pages — against *all* of them under the basic strategy,
  and only for the ``QUALIFY_FRACTION`` of pages that produce at least one
  qualifying tuple under the optimal strategy;
* an updated page creates only ``output_fraction`` (10 %) of an output
  page of A/D tuples; a transaction's appends are written sequentially at
  commit, with fragmentation rounding partial pages up — so differential
  files *reduce* the number of updated pages written, as the paper notes.

A and D extents live in the reserved cylinders of the data disks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.base import AuxRead, DataPage, RecoveryArchitecture, WorkItem
from repro.hardware.placement import RingAllocator
from repro.sim.monitor import CounterStat

__all__ = ["DifferentialConfig", "DifferentialFileArchitecture"]

#: Fraction of B/A pages yielding at least one qualifying tuple, i.e.
#: paying the set-difference under the optimal strategy.
QUALIFY_FRACTION = 0.35


@dataclass(frozen=True)
class DifferentialConfig:
    """Parameters of the differential-file architecture."""

    #: |A| / |B| and |D| / |B| (paper Section 4.3: 10 %, swept in Table 11).
    size_fraction: float = 0.10
    #: Fraction of an output page created per updated page (Table 10).
    output_fraction: float = 0.10
    #: Optimal (diff only qualifying pages) vs basic (diff everything).
    optimal: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.size_fraction <= 1.0:
            raise ValueError(f"size_fraction {self.size_fraction} not in (0, 1]")
        if not 0.0 < self.output_fraction <= 1.0:
            raise ValueError(f"output_fraction {self.output_fraction} not in (0, 1]")


class DifferentialFileArchitecture(RecoveryArchitecture):
    """A/D differential files with (B u A) - D query processing."""

    name = "differential"

    def __init__(self, config: Optional[DifferentialConfig] = None):
        super().__init__()
        self.config_diff = config or DifferentialConfig()
        self._a_read_rings: List[RingAllocator] = []
        self._d_read_rings: List[RingAllocator] = []
        self._append_rings: List[RingAllocator] = []
        self.a_pages_read = CounterStat("diff.a_reads")
        self.d_pages_read = CounterStat("diff.d_reads")
        self.pages_appended = CounterStat("diff.appends")

    def attach(self, machine) -> None:
        super().attach(machine)
        cfg = machine.config
        if cfg.reserved_cylinders < 3:
            raise ValueError(
                "differential files need at least 3 reserved cylinders per disk"
            )
        third = cfg.reserved_cylinders // 3
        start = cfg.reserved_start_cylinder
        self._a_read_rings = []
        self._d_read_rings = []
        self._append_rings = []
        for _ in range(cfg.n_data_disks):
            self._a_read_rings.append(RingAllocator(cfg.disk, start, third))
            self._d_read_rings.append(RingAllocator(cfg.disk, start + third, third))
            self._append_rings.append(
                RingAllocator(
                    cfg.disk, start + 2 * third, cfg.reserved_cylinders - 2 * third
                )
            )

    # -- derived workload quantities -----------------------------------------------
    def diff_pages_for(self, txn) -> int:
        """A-file (= D-file) pages the transaction reads."""
        return int(self.config_diff.size_fraction * txn.n_reads)

    def _set_difference_ms(self, txn) -> float:
        """CPU for diffing one result page against the txn's D pages."""
        cfg = self.machine.config
        d_pages = self.diff_pages_for(txn)
        full = cfg.cpu.ms(cfg.cost.set_difference_per_d_page) * d_pages
        if self.config_diff.optimal:
            return QUALIFY_FRACTION * full
        return full

    # -- workload shaping --------------------------------------------------------------
    def read_sequence(self, txn) -> Iterable[WorkItem]:
        """Interleave A- and D-file reads into the base reference string."""
        n_diff = self.diff_pages_for(txn)
        cfg = self.machine.config
        stride = max(1, txn.n_reads // n_diff) if n_diff else txn.n_reads + 1
        diff_cpu = self._set_difference_ms(txn)
        a_cpu = cfg.cpu.ms(cfg.cost.scan_page + cfg.cost.union_merge) + diff_cpu
        emitted = 0
        for i, page in enumerate(txn.read_pages):
            yield DataPage(page)
            if emitted < n_diff and (i + 1) % stride == 0:
                disk_idx = (txn.tid + emitted) % len(self._a_read_rings)
                a_addr = self._a_read_rings[disk_idx].take(1)
                d_addr = self._d_read_rings[disk_idx].take(1)
                self.a_pages_read.increment()
                self.d_pages_read.increment()
                yield AuxRead(disk_idx, a_addr, cpu_ms=a_cpu, tag="a-file")
                yield AuxRead(disk_idx, d_addr, cpu_ms=0.0, tag="d-file")
                emitted += 1

    # -- CPU ---------------------------------------------------------------------------
    def page_cpu_ms(self, txn, page, is_update: bool) -> float:
        return super().page_cpu_ms(txn, page, is_update) + self._set_difference_ms(txn)

    # -- durability path -----------------------------------------------------------------
    def writeback(self, txn, page: int):
        """No in-place write-back: updates become A/D tuples, appended at
        commit.  The frame is free as soon as processing ends."""
        self.machine.cache.release(1)
        return
        yield  # pragma: no cover

    def appended_pages_for(self, txn) -> int:
        """A/D pages the transaction appends at commit (with fragmentation).

        ``output_fraction`` of an output page per updated page, rounded up
        to whole pages (the fragmentation the paper discusses in Table 10),
        plus one D page of deletion tuples.
        """
        if not txn.n_writes:
            return 0
        a_pages = max(1, math.ceil(txn.n_writes * self.config_diff.output_fraction))
        return a_pages + 1

    def on_commit(self, txn):
        machine = self.machine
        yield from machine.wait_writebacks(txn)
        n_append = self.appended_pages_for(txn)
        if not n_append:
            return
        disk_idx = txn.tid % len(self._append_rings)
        addresses = self._append_rings[disk_idx].take(n_append)
        self.pages_appended.increment(n_append)
        span = machine._tspan("append", tid=txn.tid, pages=n_append)
        yield from machine.write_batched(disk_idx, addresses, tag="append")
        machine._tend(span)
        machine.note_page_written(txn, n_append)

    # -- reporting ----------------------------------------------------------------------
    def extra_counters(self) -> Dict[str, int]:
        return {
            "a_pages_read": self.a_pages_read.count,
            "d_pages_read": self.d_pages_read.count,
            "pages_appended": self.pages_appended.count,
        }

    def describe(self) -> str:
        cfg = self.config_diff
        strategy = "optimal" if cfg.optimal else "basic"
        return (
            f"differential[{strategy}, size={cfg.size_fraction:.0%}, "
            f"output={cfg.output_fraction:.0%}]"
        )
