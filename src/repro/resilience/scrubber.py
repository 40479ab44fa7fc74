"""The online integrity scrubber: a throttled background patrol.

Silent corruption (``FaultKind.BIT_ROT``) rots sectors in place; nothing
fails until something *reads* them.  Left to foreground traffic alone,
a rotted sector in a cold region can lurk until long after the mirror
twin — the only clean copy — has itself died or rotted.  The scrubber
closes that window the way production storage systems do: a background
process patrols every data-disk cylinder on a bounded I/O share (the
same throttle discipline as the mirrored-disk rebuild), *detects* rot
via the read path's checksum verdict (``DiskRequest.corrupt``), and
*repairs* it immediately:

* on a mirrored disk, the clean twin is read and the rotted side is
  rewritten (a rewrite sheds the rot — see ``Disk._settle_rot``);
* when no clean copy survives (both sides rotted, or the disk is
  unmirrored), the scrubber **escalates**: the sector is restored from
  the archive medium, modeled as a rewrite charged to the same disk and
  counted separately (``scrub_escalations``) — the simulation twin of
  the functional layer's per-architecture archive+log media recovery.

Detection latency — rot time to scrub detection — is recorded per
sector (:attr:`Scrubber.detections`), giving the scrubtest harness its
bounded-window oracle, exactly as :class:`HealthMonitor` does for
component failures.

Determinism: the scrubber draws no random numbers at all; with
``scrub_enabled`` off (the default) it is never constructed, so
fault-free runs stay byte-identical to pre-integrity traces.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.hardware.disk import DiskAddress
from repro.sim.monitor import CounterStat

__all__ = ["Scrubber"]


class Scrubber:
    """Background detect-and-repair patrol over one machine's data disks.

    Constructing the scrubber registers it as ``machine.scrubber`` (the
    machine folds :meth:`extra_counters` into its run result) and starts
    the patrol process; knobs come from the machine's config
    (``scrub_io_share``, ``scrub_interval_ms``).
    """

    def __init__(self, machine):
        #: Bound while a run lasts (``DatabaseMachine`` releases it after).
        self.machine = machine
        self.io_share = machine.config.scrub_io_share
        self.interval_ms = machine.config.scrub_interval_ms
        self.passes = CounterStat("scrub.passes")
        self.sectors_read = CounterStat("scrub.sectors_read")
        self.sectors_detected = CounterStat("scrub.detections")
        self.sectors_repaired = CounterStat("scrub.repairs")
        self.escalations = CounterStat("scrub.escalations")
        #: One record per detected sector: time, disk, sector, latency_ms.
        self.detections: List[Dict[str, Any]] = []
        machine.scrubber = self
        machine.env.process(self._patrol(), name="scrub")

    # -- the patrol -----------------------------------------------------------
    def _patrol(self):
        env = self.machine.env
        while not self.machine.crashed:
            for disk in self.machine.data_disks:
                yield from self._scrub_disk(disk)
            self.passes.increment()
            if self.interval_ms > 0:
                yield env.timeout(self.interval_ms)

    def _scrub_disk(self, disk):
        """One patrol over every cylinder of one logical disk.

        ``env.tracer`` is read at each use, never held across a yield: a
        run can end mid-pass, and the suspended pass must not keep a
        finished run's tracer alive.
        """
        env = self.machine.env
        params = getattr(disk, "params", None)
        if params is None:  # pragma: no cover - every modeled disk has params
            return
        span = None
        if env.tracer is not None:
            span = env.tracer.begin(
                "scrub.pass", track=disk.name, cylinders=params.cylinders
            )
        read = 0
        detected = 0
        repaired = 0
        for cylinder in range(params.cylinders):
            addresses = [
                DiskAddress(cylinder, track, sector)
                for track in range(params.tracks_per_cylinder)
                for sector in range(params.pages_per_track)
            ]
            started = env.now
            for side in self._sides(disk):
                if side.failed:
                    continue
                request = side.submit("read", addresses, tag="scrub")
                yield request.done
                read += len(addresses)
                if request.error is not None or not request.corrupt:
                    continue
                rotted = [
                    addr
                    for addr in addresses
                    if addr.linear(side.params) in side.corrupt_sectors
                ]
                detected += len(rotted)
                yield from self._repair(disk, side, rotted)
                repaired += len(rotted)
            busy = env.now - started
            if self.io_share < 1.0 and busy > 0.0:
                yield env.timeout(busy * (1.0 - self.io_share) / self.io_share)
        self.sectors_read.increment(read)
        tracer = env.tracer if span is not None else None
        if tracer is not None:
            tracer.end(span, sectors=read, detected=detected, repaired=repaired)

    def _sides(self, disk) -> List[Any]:
        """The physical drives behind one logical disk, patrol order."""
        sides = getattr(disk, "sides", None)
        if sides is None:
            return [disk]
        stale = getattr(disk, "_stale", [False] * len(sides))
        return [side for index, side in enumerate(sides) if not stale[index]]

    def _repair(self, disk, side, rotted):
        """Heal rotted sectors on ``side``, recording detection latency."""
        env = self.machine.env
        now = env.now
        for addr in rotted:
            linear = addr.linear(side.params)
            rot_time = side.corrupt_sectors.get(linear, now)
            latency = now - rot_time
            self.sectors_detected.increment()
            self.detections.append(
                {
                    "time_ms": now,
                    "disk": side.name,
                    "sector": linear,
                    "latency_ms": latency,
                }
            )
            if env.tracer is not None:
                env.tracer.instant(
                    "scrub.detect",
                    track=side.name,
                    sector=linear,
                    latency_ms=latency,
                )
        twin = self._clean_twin(disk, side, rotted)
        if twin is not None:
            # Read the clean copy off the twin, rewrite the rotted side.
            request = twin.submit("read", rotted, tag="scrub")
            yield request.done
            mode = "mirror"
        else:
            # No surviving clean copy: restore from the archive medium
            # (the simulation twin of archive+log media recovery).
            self.escalations.increment(len(rotted))
            mode = "archive"
        write = side.submit("write", rotted, tag="scrub")
        yield write.done
        for addr in rotted:
            linear = addr.linear(side.params)
            self.sectors_repaired.increment()
            if env.tracer is not None:
                env.tracer.instant(
                    "scrub.repair", track=side.name, sector=linear, mode=mode
                )

    def _clean_twin(self, disk, side, rotted):
        """A live twin of ``side`` holding clean copies of every rotted
        sector, or ``None`` (escalate to the archive)."""
        for other in self._sides(disk):
            if other is side or other.failed:
                continue
            if all(
                addr.linear(other.params) not in other.corrupt_sectors
                for addr in rotted
            ):
                return other
        return None

    # -- accounting -----------------------------------------------------------
    def detection_latencies(self) -> List[float]:
        return [record["latency_ms"] for record in self.detections]

    def extra_counters(self) -> Dict[str, int]:
        """Scrubber counters the machine folds into its RunResult."""
        return {
            "scrub_passes": self.passes.count,
            "scrub_sectors_read": self.sectors_read.count,
            "scrub_detections": self.sectors_detected.count,
            "scrub_repairs": self.sectors_repaired.count,
            "scrub_escalations": self.escalations.count,
        }
