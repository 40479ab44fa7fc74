"""A log processor: assembles fragments into log pages on a private disk.

Logical logging (paper Section 3.1): fragments accumulate in the log
processor's buffer; when a log page fills it is written to the log disk and
every fragment in it becomes durable at once — which is also why logically
logged machines unblock (and can batch) many updated data pages together.

Physical logging (paper Section 4.1.2): every updated page produces two
full log pages — the before image and the after image — written immediately
as one two-page sequential request.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.hardware.disk import Disk
from repro.hardware.placement import RingAllocator
from repro.sim.core import Environment, Event
from repro.sim.monitor import CounterStat, OrderingMonitor, SampleStat

__all__ = ["LogFragment", "LogProcessor"]


class LogFragment:
    """One page-update's log record.

    ``delivered`` fires when the fragment reaches its log processor (after
    the interconnect or through-cache hop); ``durable`` fires when the log
    page containing it is on the log disk.
    """

    __slots__ = ("tid", "page", "delivered", "durable", "created_at", "lp_index")

    def __init__(self, env: Environment, tid: int, page: int):
        self.tid = tid
        self.page = page
        self.delivered: Event = env.event()
        self.durable: Event = env.event()
        self.created_at = env.now
        self.lp_index: Optional[int] = None


class LogProcessor:
    """One log processor with its private (conventional) log disk."""

    def __init__(
        self,
        env: Environment,
        index: int,
        disk: Disk,
        fragments_per_page: int,
        name: str = "lp",
        monitor: Optional[OrderingMonitor] = None,
    ):
        if fragments_per_page < 1:
            raise ValueError("a log page must hold at least one fragment")
        self.env = env
        self.index = index
        self.disk = disk
        self.fragments_per_page = fragments_per_page
        self.name = name
        self.monitor = monitor
        self._ring = RingAllocator(disk.params, 0, disk.params.cylinders)
        self._buffer: List[LogFragment] = []
        self.alive = True
        #: Called with each fragment this processor can no longer make
        #: durable (it died with the fragment buffered, or its log write
        #: failed); the architecture re-ships orphans to a surviving peer.
        self.on_orphan: Optional[Callable[[LogFragment], None]] = None
        self.log_pages_written = CounterStat(f"{name}.log_pages")
        self.fragments_received = CounterStat(f"{name}.fragments")
        self.forced_writes = CounterStat(f"{name}.forces")
        self.fragments_orphaned = CounterStat(f"{name}.orphans")
        self.fragment_wait_ms = SampleStat(f"{name}.fragment_wait")

    # -- failure ---------------------------------------------------------------
    def fail(self) -> List[LogFragment]:
        """The log processor dies: its disk fails and buffered fragments
        orphan.  Returns the orphans (also routed via ``on_orphan``)."""
        if not self.alive:
            return []
        self.alive = False
        self.disk.fail()
        orphans, self._buffer = self._buffer, []
        for fragment in orphans:
            self._orphan(fragment)
        return orphans

    def _orphan(self, fragment: LogFragment) -> None:
        self.fragments_orphaned.increment()
        if self.on_orphan is not None:
            self.on_orphan(fragment)

    # -- logical logging -----------------------------------------------------
    def deliver(self, fragment: LogFragment) -> None:
        """Add a fragment to the current log page; flush when full."""
        if not self.alive:
            self._orphan(fragment)
            return
        fragment.lp_index = self.index
        self.fragments_received.increment()
        self._buffer.append(fragment)
        if len(self._buffer) >= self.fragments_per_page:
            self._flush()

    def force(self) -> None:
        """Write out the current partial log page (commit processing)."""
        if self._buffer:
            self.forced_writes.increment()
            self._flush()

    def _flush(self) -> None:
        fragments, self._buffer = self._buffer, []
        addresses = self._ring.take(1)
        request = self.disk.write(addresses, tag="log")
        request.done.callbacks.append(self._make_durable(fragments, [request]))
        self.log_pages_written.increment()

    def write_checkpoint_page(self) -> Event:
        """Append a checkpoint page to the log ring; returns its completion.

        A checkpoint page records the active-transaction table and the
        dirty-page list (one page comfortably holds both); its cost is just
        one more sequential log write.
        """
        request = self.disk.write(self._ring.take(1), tag="checkpoint")
        self.log_pages_written.increment()
        return request.done

    # -- physical logging ------------------------------------------------------
    def deliver_physical(self, fragment: LogFragment) -> None:
        """Write the before- and the after-image page immediately.

        The two images are distinct log pages written as two separate
        requests ("two log pages are written: one contains the before image
        and the other contains the after image", paper Section 4.1.2); the
        fragment is durable when the *second* completes.
        """
        if not self.alive:
            self._orphan(fragment)
            return
        fragment.lp_index = self.index
        self.fragments_received.increment()
        before = self.disk.write(self._ring.take(1), tag="log")
        after = self.disk.write(self._ring.take(1), tag="log")
        done = before.done & after.done
        done.callbacks.append(self._make_durable([fragment], [before, after]))
        self.log_pages_written.increment(2)

    # -- internals ----------------------------------------------------------------
    def _make_durable(self, fragments: List[LogFragment], requests) -> object:
        def callback(_event) -> None:
            now = self.env.now
            if not all(request.ok for request in requests):
                # The log write never made it (disk died / torn page):
                # nothing became durable; orphan the fragments for re-ship.
                for fragment in fragments:
                    self._orphan(fragment)
                return
            for fragment in fragments:
                self.fragment_wait_ms.add(now - fragment.created_at)
                if self.monitor is not None:
                    self.monitor.durable("wal", fragment)
                if not fragment.durable.triggered:
                    fragment.durable.succeed(now)

        return callback

    @property
    def buffered_fragments(self) -> int:
        return len(self._buffer)
