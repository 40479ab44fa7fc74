"""The back-end controller's health monitor: heartbeats over a link.

The BEC probes every component (query processors, log processors, data
disks) on a fixed heartbeat over its own low-bandwidth interconnect.  A
component that misses ``SUSPICION_PROBES`` consecutive probes is declared
dead and the matching failover is dispatched:

* a dead **query processor**'s in-flight transaction aborts through the
  machine's normal undo path and restarts on the survivors;
* a dead **log processor**'s stream is taken over by the surviving log
  processors (its buffered fragments were already re-shipped; the
  takeover forces the survivors so the re-homed fragments become durable
  promptly);
* a dead **data-disk side** needs no dispatch — a mirrored disk already
  serves off its twin — but the detection instant is what operations
  (and the survivetest harness) key the repair on.

Detection is *deterministic and bounded*: probe jitter draws from the
machine's own ``RandomStreams`` under the independent ``health.jitter``
name (so attaching a monitor never perturbs any pre-existing stream),
and a failure at any instant is declared within
:attr:`HealthMonitor.detection_bound_ms`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.hardware.interconnect import Interconnect
from repro.sim.monitor import CounterStat

__all__ = ["HealthMonitor"]

#: Probe period, in ms.
HEARTBEAT_MS = 5.0
#: Consecutive missed probes before a component is declared dead.
SUSPICION_PROBES = 2
#: Size of one probe message on the monitor's interconnect.
PROBE_BYTES = 64
#: Upper bound of the per-round start jitter, in ms (drawn from the
#: ``health.jitter`` stream; keeps probe rounds from phase-locking with
#: periodic workload events).
JITTER_MS = 0.5
#: Bandwidth of the monitor's dedicated probe link.
LINK_BANDWIDTH_MB_S = 1.0


class HealthMonitor:
    """Deterministic failure detector attached to one ``DatabaseMachine``.

    Constructing the monitor registers it as ``machine.health``; from
    then on component failures are *detected* (within the bounded
    window) rather than reacted to instantaneously, and the monitor
    dispatches the architecture-appropriate failover at the detection
    instant.
    """

    def __init__(self, machine):
        self.machine = machine
        #: The BEC's own probe link: probes never contend with the
        #: QP-LP fragment traffic or the data disks.
        self.link = Interconnect(
            machine.env,
            bandwidth_mb_per_s=LINK_BANDWIDTH_MB_S,
            channels=1,
            name="health",
        )
        self._rng = machine.streams.stream("health.jitter")
        #: (kind, index) -> consecutive missed probes.
        self._suspicion: Dict[Tuple[str, int], int] = {}
        #: (kind, index) -> time of the first missed probe of the
        #: current suspicion run (detection latency is measured from it).
        self._suspect_since: Dict[Tuple[str, int], float] = {}
        self._declared: Set[Tuple[str, int]] = set()
        self.probes_sent = CounterStat("health.probes")
        #: One record per declaration: time, component, measured latency.
        self.detections: List[Dict[str, Any]] = []
        machine.health = self
        machine.env.process(self._probe_loop(), name="health")

    # -- membership ----------------------------------------------------------
    def components(self) -> List[Tuple[str, int]]:
        """Every component the monitor probes, in probe order."""
        machine = self.machine
        comps: List[Tuple[str, int]] = [
            ("qp", i) for i in range(machine.qps.capacity)
        ]
        if getattr(machine.arch, "alive_mask", None) is not None:
            comps.extend(
                ("lp", i) for i in range(len(machine.arch.log_processors))
            )
        comps.extend(("disk", i) for i in range(len(machine.data_disks)))
        return comps

    def _healthy(self, kind: str, index: int) -> bool:
        machine = self.machine
        if kind == "qp":
            return machine.qps.is_alive(index)
        if kind == "lp":
            return machine.arch.alive_mask()[index]
        disk = machine.data_disks[index]
        # A degraded mirror (one side lost) reports unhealthy: the
        # machine keeps serving, but the monitor must notice and raise
        # the repair signal.
        return not disk.failed and not getattr(disk, "degraded", False)

    @property
    def detection_bound_ms(self) -> float:
        """Worst-case failure-to-declaration window.

        A failure lands just after its probe in the worst case, so
        declaration takes ``SUSPICION_PROBES`` further full rounds plus
        the round in flight; each round costs the heartbeat, the maximum
        jitter, and the serialized probe transfers.
        """
        per_round = (
            HEARTBEAT_MS
            + JITTER_MS
            + len(self.components()) * self.link.transfer_ms(PROBE_BYTES)
        )
        return (SUSPICION_PROBES + 1) * per_round

    # -- the probe process ----------------------------------------------------
    def _probe_loop(self):
        env = self.machine.env
        while not self.machine.crashed:
            yield env.timeout(HEARTBEAT_MS + JITTER_MS * self._rng.random())
            for key in self.components():
                yield self.link.transfer(PROBE_BYTES)
                self.probes_sent.increment()
                if self._healthy(*key):
                    # A repaired (or replaced) component rejoins cleanly:
                    # a later failure of the same slot re-detects.
                    self._suspicion.pop(key, None)
                    self._suspect_since.pop(key, None)
                    self._declared.discard(key)
                    continue
                if key in self._declared:
                    continue
                missed = self._suspicion.get(key, 0) + 1
                self._suspicion[key] = missed
                if missed == 1:
                    self._suspect_since[key] = env.now
                if missed >= SUSPICION_PROBES:
                    self._declared.add(key)
                    self._declare(*key)

    def _declare(self, kind: str, index: int) -> None:
        machine = self.machine
        now = machine.env.now
        latency = now - self._suspect_since.get((kind, index), now)
        self.detections.append(
            {"time_ms": now, "kind": kind, "index": index, "latency_ms": latency}
        )
        machine._tinstant("health.detect", kind=kind, index=index)
        if kind == "qp":
            machine.failover_query_processor(index)
        elif kind == "lp":
            machine.arch.failover_log_processor(index)
        # kind == "disk": the mirror masks the loss by itself; the
        # detection record is the repair-dispatch signal.
