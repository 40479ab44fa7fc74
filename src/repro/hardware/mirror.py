"""Mirrored data disks: two physical drives behind one logical disk.

A :class:`MirroredDisk` duck-types the :class:`~repro.hardware.disk.Disk`
client surface (``submit``/``read``/``write``, ``name``, ``accesses``,
``utilization``, ``parallel_access``, ``faults``) so the database machine
can swap it in for a plain drive without touching the pipelines:

* **writes** go to every live side; the logical write is durable when at
  least one copy lands intact (a torn or dying side is masked by its
  twin);
* **reads** are served by the first *clean* live side (the primary while
  it lives); a side dying mid-service falls back to its twin;
* **failure** of one side degrades the mirror but the logical disk keeps
  serving — only losing both sides fails a request;
* **rebuild**: :meth:`attach_replacement` brings in a fresh drive and a
  background process copies the survivor cylinder by cylinder at a
  bounded I/O share (``rebuild_io_share``), so foreground throughput
  degrades gracefully instead of collapsing.  The replacement is *stale*
  (never serves reads) until its rebuild completes.

Determinism: each physical side draws latencies from its own named
``RandomStreams`` stream (``disk.<name>.a`` / ``.b``; replacements get
``disk.<name>.r<n>``), derived independently of every pre-existing
stream — attaching mirrors to a machine does not perturb unmirrored runs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hardware.disk import Disk, DiskAddress, DiskRequest, make_disk
from repro.hardware.params import DiskParams
from repro.sim.core import Environment, SimulationError
from repro.sim.monitor import CounterStat
from repro.sim.rng import RandomStreams

__all__ = ["MirroredDisk"]


class MirroredDisk:
    """One logical disk served by a pair of physical drives."""

    def __init__(
        self,
        env: Environment,
        params: DiskParams,
        streams: RandomStreams,
        parallel: bool = False,
        name: str = "mirror",
        scheduling: str = "fcfs",
        rebuild_io_share: float = 0.5,
        rebuild_cylinders: Optional[int] = None,
    ):
        if not 0.0 < rebuild_io_share <= 1.0:
            raise SimulationError(
                f"rebuild I/O share must be in (0, 1], got {rebuild_io_share}"
            )
        self.env = env
        self.params = params
        self.name = name
        self._streams = streams
        self._parallel = parallel
        self._scheduling = scheduling
        self.rebuild_io_share = rebuild_io_share
        self.rebuild_cylinders = (
            params.cylinders if rebuild_cylinders is None else rebuild_cylinders
        )
        self.sides: List[Disk] = [
            self._make_side(f"{name}.a"),
            self._make_side(f"{name}.b"),
        ]
        #: A stale side holds no valid data yet (a replacement mid-rebuild):
        #: it takes writes but never serves reads.
        self._stale: List[bool] = [False, False]
        self.parallel_access = self.sides[0].parallel_access
        self._replacements = 0
        self._faults = None
        #: Logical request counters (the machine reads ``accesses``).
        self.accesses = CounterStat(f"{name}.accesses")
        self.failed_requests = CounterStat(f"{name}.failed_requests")
        self.torn_writes = CounterStat(f"{name}.torn_writes")
        self.fallback_reads = CounterStat(f"{name}.fallback_reads")
        self.corrupt_masked = CounterStat(f"{name}.corrupt_masked")
        self.rebuilt_pages = CounterStat(f"{name}.rebuilt_pages")
        self.rebuilds_completed = CounterStat(f"{name}.rebuilds")
        #: Time spent without full redundancy (closed windows only).
        self.degraded_ms = 0.0
        self.degraded_since: Optional[float] = None

    def _make_side(self, side_name: str) -> Disk:
        return make_disk(
            self.env,
            self.params,
            parallel=self._parallel,
            name=side_name,
            rng=self._streams.stream(f"disk.{side_name}"),
            scheduling=self._scheduling,
        )

    # -- fault wiring (duck-typed Disk surface) -----------------------------
    @property
    def faults(self):
        return self._faults

    @faults.setter
    def faults(self, injector) -> None:
        self._faults = injector
        for side in self.sides:
            side.faults = injector

    # -- membership ---------------------------------------------------------
    def _clean_sides(self) -> List[int]:
        return [
            i
            for i, side in enumerate(self.sides)
            if not side.failed and not self._stale[i]
        ]

    def _live_sides(self) -> List[int]:
        return [i for i, side in enumerate(self.sides) if not side.failed]

    @property
    def failed(self) -> bool:
        """True when no side can serve reads any more (the logical disk
        is gone; only an archive restore helps now)."""
        return not self._clean_sides()

    @property
    def degraded(self) -> bool:
        """True while the mirror lacks full redundancy."""
        return len(self._clean_sides()) < len(self.sides)

    @property
    def rebuilding(self) -> bool:
        return any(self._stale[i] for i in self._live_sides())

    def _update_redundancy(self) -> None:
        now = self.env.now
        if self.degraded:
            if self.degraded_since is None:
                self.degraded_since = now
        elif self.degraded_since is not None:
            self.degraded_ms += now - self.degraded_since
            self.degraded_since = None

    def fail(self, side: Optional[int] = None) -> None:
        """Kill one physical side (default: the first live one).

        The logical disk keeps serving from the survivor; failing an
        already-degraded mirror kills the survivor and the logical disk
        is gone.
        """
        if side is None:
            live = self._live_sides()
            if not live:
                return
            side = live[0]
        self.sides[side].fail()
        self._update_redundancy()

    def attach_replacement(self) -> None:
        """Swap a fresh drive in for the (first) dead side and start the
        background rebuild off the surviving clean side."""
        dead = [i for i, s in enumerate(self.sides) if s.failed]
        if not dead:
            raise SimulationError(f"{self.name}: no dead side to replace")
        clean = self._clean_sides()
        if not clean:
            raise SimulationError(f"{self.name}: no clean side to rebuild from")
        index = dead[0]
        self._replacements += 1
        replacement = self._make_side(f"{self.name}.r{self._replacements}")
        replacement.faults = self._faults
        self.sides[index] = replacement
        self._stale[index] = True
        self._update_redundancy()
        self.env.process(
            self._rebuild(index, clean[0]), name=f"{self.name}.rebuild"
        )

    # -- background rebuild --------------------------------------------------
    def _rebuild(self, new_index: int, src_index: int):
        """Copy the survivor onto the replacement, cylinder by cylinder.

        Each copied cylinder is followed by an idle gap sized so the
        rebuild consumes at most ``rebuild_io_share`` of the wall time it
        is active — the remaining bandwidth is left to foreground I/O
        (which additionally competes in the survivor's request queue).
        """
        env = self.env
        params = self.params
        # ``env.tracer`` is read at each use, never held across a yield: a
        # run can end mid-rebuild, and the suspended rebuild must not keep
        # a finished run's tracer alive.
        span = None
        if env.tracer is not None:
            span = env.tracer.begin(
                "mirror.rebuild", track=self.name, cylinders=self.rebuild_cylinders
            )
        pages = 0
        completed = True
        for cylinder in range(self.rebuild_cylinders):
            src = self.sides[src_index]
            new = self.sides[new_index]
            if src.failed or new.failed:
                completed = False
                break
            addresses = [
                DiskAddress(cylinder, track, sector)
                for track in range(params.tracks_per_cylinder)
                for sector in range(params.pages_per_track)
            ]
            started = env.now
            read = src.submit("read", addresses, tag="rebuild")
            yield read.done
            if read.error is not None:
                completed = False
                break
            write = new.submit("write", addresses, tag="rebuild")
            yield write.done
            if write.error is not None:
                completed = False
                break
            pages += len(addresses)
            self.rebuilt_pages.increment(len(addresses))
            busy = env.now - started
            share = self.rebuild_io_share
            if share < 1.0 and busy > 0.0:
                yield env.timeout(busy * (1.0 - share) / share)
        if completed and not self.sides[new_index].failed:
            self._stale[new_index] = False
            self.rebuilds_completed.increment()
            self._update_redundancy()
        tracer = env.tracer if span is not None else None
        if tracer is not None:
            tracer.end(span, pages=pages, completed=completed)

    # -- client API (duck-typed Disk surface) --------------------------------
    def submit(self, kind: str, addresses, tag: str = "") -> DiskRequest:
        """Enqueue a logical I/O; ``request.done`` fires when it finishes."""
        req = DiskRequest(self.env, kind, addresses, tag)
        self.accesses.increment()
        self.env.process(self._serve(req), name=f"{self.name}.req")
        return req

    def read(self, addresses, tag: str = "") -> DiskRequest:
        return self.submit("read", addresses, tag)

    def write(self, addresses, tag: str = "") -> DiskRequest:
        return self.submit("write", addresses, tag)

    def _serve(self, req: DiskRequest):
        if req.kind == "read":
            yield from self._serve_read(req)
        else:
            yield from self._serve_write(req)

    def _serve_read(self, req: DiskRequest):
        attempts = 0
        saw_corrupt = False
        for index in range(len(self.sides)):
            side = self.sides[index]
            if side.failed or self._stale[index]:
                continue
            attempts += 1
            inner = side.submit("read", req.addresses, req.tag)
            yield inner.done
            if inner.error is None and inner.corrupt:
                # This side returned rotted bits; mask with the twin and
                # leave the repair to the scrubber's next pass.
                saw_corrupt = True
                self.corrupt_masked.increment()
                continue
            if inner.error is None:
                if index != 0 or attempts > 1:
                    # Served off the fallback side (or after a mid-service
                    # death) — the degraded-read counter survivetest reads.
                    self.fallback_reads.increment()
                self._finish(req)
                return
            # The side died while serving; fall through to its twin.
        if saw_corrupt:
            # Every surviving copy is rotted: surface the corruption to the
            # caller instead of silently returning bad bits.
            self._finish(req, corrupt=True)
            return
        self._finish(req, error="mirror-failed")

    def _serve_write(self, req: DiskRequest):
        inner = [
            self.sides[i].submit("write", req.addresses, req.tag)
            for i in self._live_sides()
        ]
        if not inner:
            self._finish(req, error="mirror-failed")
            return
        yield self.env.all_of([r.done for r in inner])
        if any(r.error is None and not r.torn for r in inner):
            self._finish(req)
        elif any(r.error is None for r in inner):
            # Every surviving copy tore: the logical write is torn too.
            self.torn_writes.increment()
            self._finish(req, torn=True)
        else:
            self._finish(req, error="mirror-failed")

    def _finish(
        self,
        req: DiskRequest,
        error: Optional[str] = None,
        torn: bool = False,
        corrupt: bool = False,
    ) -> None:
        req.error = error
        req.torn = torn
        req.corrupt = corrupt
        if error is not None:
            self.failed_requests.increment()
        req.done.succeed(self.env.now)

    # -- metrics -------------------------------------------------------------
    @property
    def pending(self) -> int:
        return sum(side.pending for side in self.sides)

    def utilization(self, t_end: Optional[float] = None) -> float:
        if not self.sides:
            return 0.0
        return sum(side.utilization(t_end) for side in self.sides) / len(self.sides)

    def extra_counters(self) -> dict:
        """Mirror-specific counters the machine folds into its RunResult."""
        return {
            "mirror_corrupt_masked": self.corrupt_masked.count,
            "mirror_fallback_reads": self.fallback_reads.count,
            "mirror_rebuilt_pages": self.rebuilt_pages.count,
            "mirror_rebuilds": self.rebuilds_completed.count,
            "mirror_lost_requests": self.failed_requests.count,
        }
