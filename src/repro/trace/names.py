"""The registered span-name catalogue.

Every span or instant recorded through :class:`repro.trace.Tracer` must
use a name from this catalogue (runtime-checked by the recorder and
statically checked by lint rule TRACE01), so traces from different
commits and architectures stay diffable: a phase rename is an API change
here, not a silent drift in the instrumentation.

Names are dotted lowercase: ``<subsystem>.<what>``.  Spans that belong
to a transaction carry a ``tid`` and take part in critical-path
attribution; device-lane spans (``disk.service``, ``link.transfer``)
carry a ``track`` instead and render as their own rows in exports.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

__all__ = [
    "ABORT",
    "ADMISSION_ENQUEUE",
    "ADMISSION_REJECT",
    "ADMISSION_SHED",
    "APPEND",
    "ARRIVAL_SPIKE",
    "BACKPRESSURE_OFF",
    "BACKPRESSURE_ON",
    "CACHE_WAIT",
    "CATALOGUE",
    "CHECKPOINT",
    "COMMIT",
    "COMPONENT_FAIL",
    "CORRUPT_INJECT",
    "DATA_READ",
    "AUX_READ",
    "DISK_SERVICE",
    "FAILOVER_LP",
    "FAILOVER_QP",
    "FAULT_POINT",
    "HEALTH_DETECT",
    "INDIRECTION",
    "LINK_TRANSFER",
    "LOCK_RELEASE",
    "LOCK_WAIT",
    "LOG_ANALYSIS",
    "LOG_SHIP",
    "MACHINE_CRASH",
    "MIRROR_REBUILD",
    "OTHER_PHASE",
    "OVERWRITE",
    "PAGE_DURABLE",
    "PHASE_CHARS",
    "PRIORITY",
    "PT_FLUSH",
    "PT_UPDATE",
    "QP_EXEC",
    "QP_WAIT",
    "RECOVERY_REDO",
    "RECOVERY_UNDO",
    "REPLAY_WAVE",
    "RESTART_WAIT",
    "SCRATCH_WRITE",
    "SCRUB_DETECT",
    "SCRUB_PASS",
    "SCRUB_REPAIR",
    "TXN",
    "WAL_WAIT",
    "WRITEBACK",
]

# -- transaction-tree spans ---------------------------------------------------
#: Whole execution attempt; parent of every other transaction span.
TXN = "txn"
#: Waiting for a page lock (BEC scheduling).
LOCK_WAIT = "lock.wait"
#: Architecture indirection before the data read (page-table lookup).
INDIRECTION = "indirection"
#: Waiting for cache frames.
CACHE_WAIT = "cache.wait"
#: Data-page read from a data disk.
DATA_READ = "io.data.read"
#: Auxiliary read (A/D differential pages).
AUX_READ = "io.aux.read"
#: Waiting for a free query processor.
QP_WAIT = "qp.wait"
#: Processing the page on a query processor (includes recovery CPU).
QP_EXEC = "qp.exec"
#: The architecture's durability path for one updated page.
WRITEBACK = "writeback"
#: WAL barrier: page blocked until its log fragment is durable.
WAL_WAIT = "wal.wait"
#: Log fragment in flight from query processor to log processor.
LOG_SHIP = "log.ship"
#: Updated page parked in the scratch ring (overwriting).
SCRATCH_WRITE = "scratch.write"
#: Commit-time scratch-read + home-overwrite pass (overwriting).
OVERWRITE = "overwrite"
#: Commit-time page-table entry updates and flushes (shadow).
PT_UPDATE = "pt.update"
#: Page-table flush outside commit (shadow checkpoint).
PT_FLUSH = "pt.flush"
#: Commit-time A/D-file append (differential).
APPEND = "append"
#: Commit processing (container for the architecture's commit work).
COMMIT = "commit"
#: Abort processing.
ABORT = "abort"
#: Deadlock-victim backoff before a restart attempt.
RESTART_WAIT = "restart.wait"
#: A checkpoint being taken (span in architectures that do work; instant
#: in the bare machine).
CHECKPOINT = "checkpoint"

# -- restart-phase spans (modern managers) ------------------------------------
#: Single-pass restart scan classifying log records (analysis phase).
LOG_ANALYSIS = "log.analysis"
#: One dependency wave of parallel command replay across log processors.
REPLAY_WAVE = "replay.wave"
#: Redo application at restart (re-installing committed-unreflected pages).
RECOVERY_REDO = "recovery.redo"
#: Undo application at restart.  Redo-only recovery never records these;
#: the resilience harness counts them to assert zero undo work.
RECOVERY_UNDO = "recovery.undo"

# -- device-lane spans --------------------------------------------------------
#: A disk serving one access (data, log, or page-table disk).
DISK_SERVICE = "disk.service"
#: A message occupying an interconnect channel.
LINK_TRANSFER = "link.transfer"
#: A mirrored disk's background rebuild copying the survivor onto the
#: replacement side (track = the logical mirror name).
MIRROR_REBUILD = "mirror.rebuild"
#: One throttled scrubber patrol over a disk's cylinders (track = the
#: logical disk name; args carry sectors read / detections / repairs).
SCRUB_PASS = "scrub.pass"

# -- instants -----------------------------------------------------------------
#: A simulation-layer fault point was crossed (``machine.*`` hooks).
FAULT_POINT = "fault.point"
#: An injected whole-machine crash halted the run.
MACHINE_CRASH = "machine.crash"
#: An updated page reached stable storage.
PAGE_DURABLE = "page.durable"
#: A permanent single-component failure fired (args: kind = qp/lp/disk).
COMPONENT_FAIL = "component.fail"
#: The health monitor declared a component dead after its suspicion window.
HEALTH_DETECT = "health.detect"
#: QP failover: the transaction caught on the dead processor aborts via
#: normal undo and restarts on the survivors.
FAILOVER_QP = "failover.qp"
#: LP failover: surviving log processors take ownership of the dead one's
#: stream (orphans re-shipped, survivors forced).
FAILOVER_LP = "failover.lp"
#: An offered transaction entered the bounded admission queue.
ADMISSION_ENQUEUE = "admission.enqueue"
#: The admission controller turned an offered transaction away for good
#: (queue full / no token / backpressure, retries exhausted).
ADMISSION_REJECT = "admission.reject"
#: The client gave up before admission (deadline-based shedding).
ADMISSION_SHED = "admission.shed"
#: The lock table or buffer cache crossed its high watermark; arrivals
#: are turned away until the pressure drains below the low watermark.
BACKPRESSURE_ON = "backpressure.on"
#: Pressure drained below the low watermark; admission reopened.
BACKPRESSURE_OFF = "backpressure.off"
#: A scripted load spike began (the arrival process multiplies its rate).
ARRIVAL_SPIKE = "arrival.spike"
#: Early lock release: a transaction's page locks freed at commit-record
#: append, before the force completes (redo-only WAL).
LOCK_RELEASE = "lock.release"
#: A stored sector rotted in place (silent corruption injected by a
#: BIT_ROT fault; args: track, sector).
CORRUPT_INJECT = "corrupt.inject"
#: The scrubber found a rotted sector (args: track, sector, latency_ms —
#: the detection latency since the rot was injected).
SCRUB_DETECT = "scrub.detect"
#: The scrubber healed a rotted sector (twin copy rewrite, or an
#: escalation to archive media recovery when no clean copy survives).
SCRUB_REPAIR = "scrub.repair"

#: Every name the recorder accepts.
CATALOGUE: FrozenSet[str] = frozenset(
    {
        TXN,
        LOCK_WAIT,
        INDIRECTION,
        CACHE_WAIT,
        DATA_READ,
        AUX_READ,
        QP_WAIT,
        QP_EXEC,
        WRITEBACK,
        WAL_WAIT,
        LOG_SHIP,
        SCRATCH_WRITE,
        OVERWRITE,
        PT_UPDATE,
        PT_FLUSH,
        APPEND,
        COMMIT,
        ABORT,
        RESTART_WAIT,
        CHECKPOINT,
        LOG_ANALYSIS,
        REPLAY_WAVE,
        RECOVERY_REDO,
        RECOVERY_UNDO,
        DISK_SERVICE,
        LINK_TRANSFER,
        MIRROR_REBUILD,
        FAULT_POINT,
        MACHINE_CRASH,
        PAGE_DURABLE,
        COMPONENT_FAIL,
        HEALTH_DETECT,
        FAILOVER_QP,
        FAILOVER_LP,
        ADMISSION_ENQUEUE,
        ADMISSION_REJECT,
        ADMISSION_SHED,
        BACKPRESSURE_ON,
        BACKPRESSURE_OFF,
        ARRIVAL_SPIKE,
        LOCK_RELEASE,
        SCRUB_PASS,
        CORRUPT_INJECT,
        SCRUB_DETECT,
        SCRUB_REPAIR,
    }
)

#: Bucket for window time no span covers.
OTHER_PHASE = "other"

#: Attribution priority for the critical-path sweep: at any instant the
#: transaction's time is charged to its highest-priority active span.
#: Productive work outranks recovery-data movement, which outranks pure
#: waits, which outrank the commit/abort containers — so waits only claim
#: the intervals where nothing is actually progressing, which is exactly
#: "what was the completion time waiting on".  ``TXN`` is the tree root
#: and never claims time; device-lane spans carry no ``tid`` and are
#: excluded by construction.  Values must stay distinct: the attribution
#: sweep picks the live phase *name* of highest priority, which is the
#: rule's "first span of highest priority" only without ties
#: (``tests/test_trace_analysis.py::TestSweepMatchesRule::test_priorities_are_distinct``).
PRIORITY: Dict[str, int] = {
    QP_EXEC: 100,
    DATA_READ: 90,
    AUX_READ: 85,
    WAL_WAIT: 82,
    WRITEBACK: 80,
    OVERWRITE: 78,
    SCRATCH_WRITE: 76,
    APPEND: 74,
    PT_UPDATE: 72,
    PT_FLUSH: 70,
    LOG_SHIP: 60,
    CHECKPOINT: 55,
    INDIRECTION: 50,
    QP_WAIT: 24,
    CACHE_WAIT: 22,
    LOCK_WAIT: 20,
    COMMIT: 15,
    ABORT: 14,
    RESTART_WAIT: 10,
}

#: One character per phase for the terminal timeline strips.
PHASE_CHARS: Dict[str, str] = {
    QP_EXEC: "x",
    DATA_READ: "r",
    AUX_READ: "a",
    WAL_WAIT: "W",
    WRITEBACK: "w",
    OVERWRITE: "o",
    SCRATCH_WRITE: "S",
    APPEND: "+",
    PT_UPDATE: "p",
    PT_FLUSH: "P",
    LOG_SHIP: "s",
    CHECKPOINT: "k",
    INDIRECTION: "i",
    QP_WAIT: "q",
    CACHE_WAIT: "c",
    LOCK_WAIT: "l",
    COMMIT: "C",
    ABORT: "A",
    RESTART_WAIT: "b",
    OTHER_PHASE: ".",
}
