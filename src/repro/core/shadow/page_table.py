"""The page-table subsystem: PT processors, PT disks, and the LRU buffer.

Page tables live on dedicated page-table disks served by page-table
processors under back-end-controller control (paper Section 3.2.1).  PT
pages are striped across the PT processors; a small shared LRU buffer in
the controller's memory holds recently used PT pages.  The PT file is tiny
(one entry per data page, >1000 entries per 4 KB page), so PT-disk seeks
are short — which is exactly why one PT disk can almost keep up with two
data disks in the paper's Table 5.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.hardware.disk import ConventionalDisk, Disk, DiskAddress
from repro.hardware.params import IBM_3350, DiskParams
from repro.sim.core import Environment, Event
from repro.sim.monitor import CounterStat

__all__ = ["PageTableSubsystem"]


class PageTableSubsystem:
    """Shared page-table buffer backed by one or more PT disks."""

    def __init__(
        self,
        env: Environment,
        n_processors: int,
        buffer_pages: int,
        db_pages: int,
        streams,
        entries_per_page: int = 1024,
        disk_params: DiskParams = IBM_3350,
        stride_pages: int = 8,
    ):
        """``entries_per_page`` defaults to the paper's ">1000 page-table
        entries" per 4 KB PT page (Section 4.2.1); :meth:`_locate`
        explains ``stride_pages``."""
        if n_processors < 1:
            raise ValueError("need at least one page-table processor")
        if buffer_pages < 1:
            raise ValueError("page-table buffer needs at least one page")
        if stride_pages < 1:
            raise ValueError("stride must be at least one page")
        self.env = env
        self.entries_per_page = entries_per_page
        self.n_pt_pages = -(-db_pages // entries_per_page)
        self.buffer_pages = buffer_pages
        self.stride_pages = stride_pages
        self.disks: List[Disk] = [
            ConventionalDisk(
                env,
                disk_params,
                name=f"pt{i}",
                rng=streams.stream(f"disk.pt{i}"),
            )
            for i in range(n_processors)
        ]
        #: pt_page -> dirty flag; insertion order is LRU order.
        self._buffer: "OrderedDict[int, bool]" = OrderedDict()
        #: pt_page -> event fired when an in-flight read completes.
        self._loading: Dict[int, Event] = {}
        self.hits = CounterStat("pt.hits")
        self.misses = CounterStat("pt.misses")
        self.reads = CounterStat("pt.reads")
        self.writes = CounterStat("pt.writes")
        self.rereads = CounterStat("pt.rereads")

    # -- geometry -----------------------------------------------------------
    def pt_page_of(self, data_page: int) -> int:
        """Which PT page holds the entry for ``data_page``."""
        return data_page // self.entries_per_page

    def _locate(self, pt_page: int):
        """PT disk and address of ``pt_page`` (striped across PT disks).

        PT pages sit ``stride_pages`` apart rather than packed: a page-table
        disk serves the page tables of *every* relation plus free-block
        maps, so successive accesses pay short seeks and rotational
        latency.  This is what makes a single PT disk the bottleneck in
        the paper's Table 5 (PT-disk utilization 1.00 while the data disks
        drop to 0.86) — a packed 100-page PT file would never saturate.
        The default stride of 8 pages yields ~21 ms per PT access, the
        figure the paper's Table 4 numbers imply.
        """
        disk = self.disks[pt_page % len(self.disks)]
        local = pt_page // len(self.disks)
        linear = (local * self.stride_pages) % disk.params.capacity_pages
        return disk, DiskAddress.from_linear(linear, disk.params)

    # -- lookups ---------------------------------------------------------------
    def lookup(self, data_page: int):
        """Generator: ensure the PT page for ``data_page`` is buffered."""
        pt_page = self.pt_page_of(data_page)
        if pt_page in self._buffer:
            self.hits.increment()
            self._buffer.move_to_end(pt_page)
            return
        loading = self._loading.get(pt_page)
        if loading is not None:
            self.hits.increment()  # piggybacks on the in-flight read
            yield loading
            return
        self.misses.increment()
        yield from self._fetch(pt_page)

    def update_entry(self, data_page: int):
        """Generator: mark the entry's PT page dirty, rereading if evicted.

        Called at commit for each updated data page.  The paper's Table 6
        commentary: with a small buffer, PT pages must be *reread for
        updating due to the buffer-size constraint at commit time*.
        """
        pt_page = self.pt_page_of(data_page)
        if pt_page not in self._buffer:
            loading = self._loading.get(pt_page)
            if loading is not None:
                yield loading
            else:
                self.rereads.increment()
                yield from self._fetch(pt_page)
        if pt_page in self._buffer:
            self._buffer[pt_page] = True
            self._buffer.move_to_end(pt_page)

    def flush(self, data_pages) -> List[Event]:
        """Write out the dirty PT pages covering ``data_pages``.

        Returns the write-completion events (the new page-table locations of
        the shadow mechanism; timing-equivalent to writing in place).
        """
        pt_pages = sorted({self.pt_page_of(p) for p in data_pages})
        events = []
        for pt_page in pt_pages:
            if self._buffer.get(pt_page):
                self._buffer[pt_page] = False
                events.append(self._write(pt_page))
        return events

    # -- internals -----------------------------------------------------------------
    def _fetch(self, pt_page: int):
        event = self.env.event()
        self._loading[pt_page] = event
        disk, addr = self._locate(pt_page)
        request = disk.read([addr], tag="pt")
        self.reads.increment()
        yield request.done
        del self._loading[pt_page]
        yield from self._insert(pt_page)
        # Only lookups that found this read in flight hold ``event``, and
        # each waits on it already (it has left ``_loading``): with no
        # waiter, firing it would add a calendar entry nobody can observe.
        if event.callbacks and not event.triggered:
            event.succeed()

    def _insert(self, pt_page: int):
        while len(self._buffer) >= self.buffer_pages:
            victim, dirty = self._buffer.popitem(last=False)
            if dirty:
                yield self._write(victim)
        self._buffer[pt_page] = False

    def _write(self, pt_page: int) -> Event:
        disk, addr = self._locate(pt_page)
        request = disk.write([addr], tag="pt")
        self.writes.increment()
        return request.done

    # -- reporting --------------------------------------------------------------------
    def utilizations(self, t_end: float) -> Dict[str, float]:
        out = {disk.name: disk.utilization(t_end) for disk in self.disks}
        out["pt_disks"] = sum(out.values()) / len(self.disks)
        return out

    def counters(self) -> Dict[str, int]:
        return {
            "pt_hits": self.hits.count,
            "pt_misses": self.misses.count,
            "pt_reads": self.reads.count,
            "pt_writes": self.writes.count,
            "pt_rereads": self.rereads.count,
        }
