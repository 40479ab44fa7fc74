"""Run one open-system load against one recovery architecture.

Bridges the arrival schedules of :mod:`repro.loadgen.arrivals` to
:meth:`repro.machine.machine.DatabaseMachine.run_open`: builds the seeded
workload, the machine (optionally with a PR-5 style degraded state armed:
a dead log processor, or a mirrored data disk lost mid-run), offers the
transactions on schedule, and folds the dispositions into an
:class:`OpenRunResult` with the open-system metrics the loadtest sweeps:
goodput (committed *within the SLO* per second) and sojourn percentiles
(arrival to durable commit).

Two oracles are checked on every run and carried on the result:

* **accounting** — ``admitted + rejected + shed == offered`` (nothing
  double-counted, nothing missing);
* **no lost admissions** — every admitted transaction committed (the
  machine never silently drops work it accepted).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultKind, FaultSpec
from repro.loadgen.arrivals import ArrivalConfig, ArrivalSchedule, generate_arrivals
from repro.machine.machine import DatabaseMachine
from repro.machine.testbed import build_survive_machine
from repro.metrics.collectors import RunResult
from repro.registry import entry_for
from repro.sim.rng import RandomStreams
from repro.workload.transaction import Transaction, TransactionStatus

__all__ = [
    "DEGRADED_STATES",
    "OpenRunResult",
    "build_open_machine",
    "run_open_load",
    "score_open_run",
]

#: Degraded machine states (PR 5) an open sweep can be re-run under.
#: ``dead-lp`` only applies to the multi-log-processor architectures.
DEGRADED_STATES = ("healthy", "dead-lp", "mirrored-degraded")


@dataclass
class OpenRunResult:
    """One open-system run: dispositions, goodput, sojourn percentiles."""

    architecture: str
    state: str
    schedule: ArrivalSchedule
    result: RunResult
    #: Dispositions (from the admission counters).
    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    committed: int = 0
    #: Committed within the SLO (arrival -> durable commit <= slo_ms).
    within_slo: int = 0
    slo_ms: float = 0.0
    #: Committed-within-SLO per second of run time: the loadtest y-axis.
    goodput_tps: float = 0.0
    #: Raw committed per second, SLO-blind (shows the plateau the SLO cuts).
    throughput_tps: float = 0.0
    #: Arrival-to-durable-commit percentiles over committed transactions.
    sojourn_ms: Dict[str, float] = field(default_factory=dict)
    oracle_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.oracle_violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "architecture": self.architecture,
            "state": self.state,
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "committed": self.committed,
            "within_slo": self.within_slo,
            "slo_ms": self.slo_ms,
            "goodput_tps": self.goodput_tps,
            "throughput_tps": self.throughput_tps,
            "sojourn_ms": self.sojourn_ms,
            "makespan_ms": self.result.makespan_ms,
            "admission_retries": self.result.counter("admission_retries"),
            "backpressure_transitions": self.result.counter(
                "backpressure_transitions"
            ),
            "ok": self.ok,
            "oracle_violations": self.oracle_violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    if not samples:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(samples)))
    return samples[rank - 1]


def _degraded_specs(
    arch: str, state: str, schedule: ArrivalSchedule, seed: int
) -> Tuple[FaultSpec, ...]:
    """The fault injections realising a degraded state for ``arch``."""
    if state == "healthy":
        return ()
    span = max(schedule.times_ms[-1], 1.0)
    at = 0.25 * span
    if state == "dead-lp":
        if not entry_for(arch).lp_failover:
            raise ValueError(
                "dead-lp state only applies to multi-log-processor "
                "architectures"
            )
        return (FaultSpec(FaultKind.LP_FAIL, at_time=at, target=0),)
    if state == "mirrored-degraded":
        return (
            FaultSpec(FaultKind.DISK_FAIL, at_time=at, target=0, repair_after=100.0),
        )
    raise ValueError(f"unknown degraded state {state!r}; pick one of {DEGRADED_STATES}")


def build_open_machine(
    arch: str,
    seed: int,
    n_transactions: int,
    state: str = "healthy",
    schedule: Optional[ArrivalSchedule] = None,
) -> Tuple[DatabaseMachine, List[Transaction]]:
    """Build the machine + seeded workload for one open-system run:
    the shared harness testbed, with ``state``'s faults armed when a
    ``schedule`` places them."""
    overrides: Dict[str, Any] = {}
    if state == "mirrored-degraded":
        overrides["mirrored_data_disks"] = True
    specs = (
        _degraded_specs(arch, state, schedule, seed)
        if schedule is not None
        else ()
    )
    return build_survive_machine(arch, seed, n_transactions, specs, **overrides)


def run_open_load(
    arch: str,
    arrival_config: ArrivalConfig,
    seed: int = 1985,
    slo_ms: float = 0.0,
    state: str = "healthy",
) -> OpenRunResult:
    """Offer one arrival schedule to one architecture and score the run.

    ``slo_ms == 0`` disables the SLO cut (``within_slo == committed``);
    an unknown ``state`` is rejected by :func:`build_open_machine`.
    """
    schedule = generate_arrivals(
        arrival_config, RandomStreams(seed).fork("arrivals")
    )
    machine, transactions = build_open_machine(
        arch,
        seed,
        schedule.offered,
        state=state,
        schedule=schedule,
    )
    result = machine.run_open(
        transactions, schedule.times_ms, spike_times_ms=schedule.spike_starts_ms
    )
    return score_open_run(arch, state, schedule, transactions, result, slo_ms)


def score_open_run(
    arch: str,
    state: str,
    schedule: ArrivalSchedule,
    transactions: List[Transaction],
    result: RunResult,
    slo_ms: float,
) -> OpenRunResult:
    """Fold machine output into open-system metrics and check the oracles."""
    open_result = OpenRunResult(
        architecture=arch,
        state=state,
        schedule=schedule,
        result=result,
        offered=result.counter("admission_offered"),
        admitted=result.counter("admission_admitted"),
        rejected=result.counter("admission_rejected"),
        shed=result.counter("admission_shed"),
        slo_ms=slo_ms,
    )
    sojourns: List[float] = []
    lost: List[int] = []
    for txn, arrival in zip(transactions, schedule.times_ms):
        if txn.status is TransactionStatus.COMMITTED:
            open_result.committed += 1
            sojourn = (txn.finish_time or arrival) - arrival
            sojourns.append(sojourn)
            if slo_ms <= 0 or sojourn <= slo_ms:
                open_result.within_slo += 1
        elif txn.status is TransactionStatus.ACTIVE:
            lost.append(txn.tid)
    sojourns.sort()
    open_result.sojourn_ms = {
        "p50": _percentile(sojourns, 50.0),
        "p95": _percentile(sojourns, 95.0),
        "p99": _percentile(sojourns, 99.0),
    }
    if result.makespan_ms > 0:
        open_result.goodput_tps = 1000.0 * open_result.within_slo / result.makespan_ms
        open_result.throughput_tps = (
            1000.0 * open_result.committed / result.makespan_ms
        )
    # -- the oracles ------------------------------------------------------
    if open_result.offered != schedule.offered:
        open_result.oracle_violations.append(
            f"offered counter {open_result.offered} != "
            f"{schedule.offered} scheduled arrivals"
        )
    disposed = open_result.admitted + open_result.rejected + open_result.shed
    if disposed != open_result.offered:
        open_result.oracle_violations.append(
            f"dispositions do not conserve: admitted {open_result.admitted} "
            f"+ rejected {open_result.rejected} + shed {open_result.shed} "
            f"= {disposed} != offered {open_result.offered}"
        )
    if open_result.committed != open_result.admitted:
        open_result.oracle_violations.append(
            f"admitted-transaction loss: {open_result.admitted} admitted but "
            f"{open_result.committed} committed"
        )
    if lost:
        open_result.oracle_violations.append(
            f"{len(lost)} transactions left ACTIVE at end of run: {lost[:5]}"
        )
    return open_result
