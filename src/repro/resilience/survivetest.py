"""The survival harness: permanent single-component failures, online.

Sibling of the crashtest (:mod:`repro.faults.harness`): where the
crashtest kills the *whole machine* and verifies the restart algorithm,
the survivetest kills *one component* of a running machine at a sampled
point of a seeded workload and verifies degraded-mode survival:

* **query processor** — the victim transaction aborts via normal undo and
  restarts on the survivors; every transaction still commits;
* **log processor** (logging architecture) — surviving log processors
  take over the dead one's stream; no committed transaction is lost and
  the no-merge restart property is preserved;
* **mirrored data disk** — one physical side dies; the mirror serves off
  its twin (zero lost requests) and a replacement rebuilds in the
  background at a bounded I/O share;
* **unmirrored data disk** — the sim machine cannot mask it, so survival
  is the *functional* layer's archive story: :func:`run_media_scenario`
  drives each recovery manager through dump / media-failure / restore
  and checks the database rolls back exactly to the archive point
  (for WAL: loses nothing, thanks to the archive log), in-flight work
  re-runs, and the workload completes.

Every sim scenario also reports an **availability figure**: the fault-free
makespan over the degraded makespan for the same seed and workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.harness import (
    apply_op,
    generate_ops,
    make_manager,
    recover_with_recrash,
)
from repro.faults.plan import FaultKind, FaultSpec
from repro.machine.config import MachineConfig
from repro.machine.testbed import build_survive_machine
from repro.registry import entry_for
from repro.resilience.health import HealthMonitor
from repro.sim.rng import RandomStreams
from repro.storage.wal import DistributedWalManager
from repro.workload.transaction import TransactionStatus

__all__ = [
    "Outcome",
    "SCENARIO_KINDS",
    "SurviveReport",
    "run_media_scenario",
    "run_survivetest",
]

#: The failure kinds the harness injects per architecture.
SCENARIO_KINDS = ("qp-fail", "lp-fail", "disk-fail-mirrored", "media-restore")

#: Workload small enough for CI yet long enough that a mid-run failure
#: leaves real work on both sides of it.
DEFAULT_TRANSACTIONS = 12

#: Ops/pages of the functional media workload (crashtest conventions).
MEDIA_TRANSACTIONS = 8
MEDIA_PAGES = 6
#: Archive-dump cadence of the media scenario, in ops.
MEDIA_DUMP_EVERY = 6


@dataclass
class Outcome:
    """One injected fault scenario against one architecture: a
    :data:`SCENARIO_KINDS` entry, or a scrubtest corruption target."""

    architecture: str
    scenario: str
    violations: List[str] = field(default_factory=list)
    #: Availability, detection latency, repair and degraded-mode counters.
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self, name_key: str = "scenario") -> Dict[str, Any]:
        """The report entry, the scenario name under ``name_key``."""
        return {
            name_key: self.scenario,
            "ok": self.ok,
            "violations": self.violations,
            "details": self.details,
        }


@dataclass
class SurviveReport:
    """Survival of one architecture across every failure kind."""

    architecture: str
    seed: int
    n_transactions: int
    baseline_makespan_ms: float
    scenarios: List[Outcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.scenarios)

    @property
    def availability(self) -> Dict[str, float]:
        """Scenario -> fault-free makespan over degraded makespan."""
        out = {}
        for s in self.scenarios:
            if "availability" in s.details:
                out[s.scenario] = s.details["availability"]
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "architecture": self.architecture,
                "seed": self.seed,
                "n_transactions": self.n_transactions,
                "baseline_makespan_ms": self.baseline_makespan_ms,
                "ok": self.ok,
                "scenarios": [s.to_dict() for s in self.scenarios],
            },
            sort_keys=True,
            indent=2,
        )

    def summary(self) -> str:
        """The CLI line: availability per scenario, then any violations."""
        availability = ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(self.availability.items())
        )
        status = "ok" if self.ok else "VIOLATIONS"
        lines = [
            f"{self.architecture:>12}: {len(self.scenarios)} scenarios "
            f"[{availability}] {status}"
        ]
        for scenario in self.scenarios:
            for violation in scenario.violations[:5]:
                lines.append(f"    {scenario.scenario}: {violation}")
        return "\n".join(lines)


# -- simulated machine scenarios ----------------------------------------------
def _build_and_run(
    arch: str,
    seed: int,
    n_transactions: int,
    specs: Tuple[FaultSpec, ...] = (),
    monitor: bool = True,
    **overrides: Any,
):
    """One sim run; returns ``(machine, health, result, transactions)``."""
    machine, transactions = build_survive_machine(
        arch, seed, n_transactions, specs, **overrides
    )
    health = HealthMonitor(machine) if monitor else None
    result = machine.run(transactions)
    return machine, health, result, transactions


def _survival_checks(
    outcome: Outcome,
    machine,
    health: Optional[HealthMonitor],
    result,
    transactions,
    baseline_makespan: float,
    detect_kind: Optional[str],
) -> None:
    """The shared oracle: everything commits, nothing restarted wholesale."""
    lost = [
        t.tid for t in transactions if t.status is not TransactionStatus.COMMITTED
    ]
    if lost:
        outcome.violations.append(
            f"{len(lost)} transactions failed to commit: {lost[:5]}"
        )
    if machine.crashed:
        outcome.violations.append(
            f"machine crashed ({machine.crash_reason}) instead of degrading"
        )
    if detect_kind is not None and health is not None:
        hits = [d for d in health.detections if d["kind"] == detect_kind]
        if not hits:
            outcome.violations.append(
                f"health monitor never detected the {detect_kind} failure"
            )
        else:
            bound = health.detection_bound_ms
            worst = max(d["latency_ms"] for d in hits)
            outcome.details["detection_latency_ms"] = worst
            outcome.details["detection_bound_ms"] = bound
            if worst > bound:
                outcome.violations.append(
                    f"detection took {worst:.2f} ms, over the "
                    f"{bound:.2f} ms bound"
                )
    outcome.details["makespan_ms"] = result.makespan_ms
    if result.makespan_ms > 0:
        outcome.details["availability"] = baseline_makespan / result.makespan_ms
    outcome.details["restarts"] = result.n_restarts


def _qp_scenario(
    arch: str, seed: int, n: int, baseline_makespan: float, rng
) -> Outcome:
    outcome = Outcome(arch, "qp-fail")
    at = (0.2 + 0.4 * rng.random()) * baseline_makespan
    target = rng.randrange(MachineConfig().n_query_processors)
    spec = FaultSpec(FaultKind.QP_FAIL, at_time=at, target=target)
    machine, health, result, txns = _build_and_run(arch, seed, n, specs=(spec,))
    if machine.qps.alive_count != machine.qps.capacity - 1:
        outcome.violations.append(
            f"expected exactly one dead processor, pool reports "
            f"{machine.qps.alive_count}/{machine.qps.capacity} alive"
        )
    outcome.details["failed_at_ms"] = at
    outcome.details["target"] = target
    _survival_checks(
        outcome, machine, health, result, txns, baseline_makespan, "qp"
    )
    return outcome


def _lp_scenario(
    arch: str, seed: int, n: int, baseline_makespan: float, rng
) -> Outcome:
    outcome = Outcome(arch, "lp-fail")
    at = (0.2 + 0.4 * rng.random()) * baseline_makespan
    target = rng.randrange(3)
    spec = FaultSpec(FaultKind.LP_FAIL, at_time=at, target=target)
    machine, health, result, txns = _build_and_run(arch, seed, n, specs=(spec,))
    alive = machine.arch.alive_mask()
    if alive.count(True) != len(alive) - 1:
        outcome.violations.append(f"expected one dead log processor, got {alive}")
    outcome.details["failed_at_ms"] = at
    outcome.details["target"] = target
    outcome.details["fragments_reshipped"] = machine.arch.fragments_reshipped.count
    _survival_checks(
        outcome, machine, health, result, txns, baseline_makespan, "lp"
    )
    return outcome


def _mirrored_disk_scenario(
    arch: str, seed: int, n: int, rng
) -> Outcome:
    outcome = Outcome(arch, "disk-fail-mirrored")
    # Mirrored baseline: mirroring changes service-time draws, so the
    # availability figure compares against the fault-free *mirrored* run.
    _m, _h, base, _t = _build_and_run(
        arch, seed, n, monitor=False, mirrored_data_disks=True
    )
    at = (0.2 + 0.4 * rng.random()) * base.makespan_ms
    target = rng.randrange(MachineConfig().n_data_disks)
    spec = FaultSpec(
        FaultKind.DISK_FAIL, at_time=at, target=target, repair_after=100.0
    )
    machine, health, result, txns = _build_and_run(
        arch, seed, n, specs=(spec,), mirrored_data_disks=True
    )
    lost = result.counters.get("mirror_lost_requests", 0)
    if lost:
        outcome.violations.append(f"{lost} requests lost behind the mirror")
    disk = machine.data_disks[target]
    outcome.details["failed_at_ms"] = at
    outcome.details["target"] = target
    outcome.details["fallback_reads"] = result.counters.get(
        "mirror_fallback_reads", 0
    )
    outcome.details["rebuilt_pages"] = result.counters.get(
        "mirror_rebuilt_pages", 0
    )
    outcome.details["rebuild_completed"] = bool(disk.rebuilds_completed.count)
    _survival_checks(
        outcome, machine, health, result, txns, base.makespan_ms, "disk"
    )
    return outcome


# -- functional media scenarios -----------------------------------------------
def run_media_scenario(
    arch: str,
    seed: int,
    fail_index: Optional[int] = None,
    n_transactions: int = MEDIA_TRANSACTIONS,
    n_pages: int = MEDIA_PAGES,
    dump_every: int = MEDIA_DUMP_EVERY,
    crash_during_restore: bool = False,
) -> Outcome:
    """Dump / media-failure / restore against one recovery manager.

    Drives the crashtest's seeded op script with archive dumps woven in
    every ``dump_every`` ops, loses the data disks before op
    ``fail_index`` (sampled from the seed when None), restores from the
    archive, re-begins the in-flight transactions, and completes the
    workload.  Oracle: the final database equals the committed state the
    architecture *can* guarantee — everything, for WAL (dump + archive
    log roll forward); the archived prefix plus post-restore commits for
    the no-log managers — and a final dump/restore round-trip is exact.

    With ``crash_during_restore`` the restore is additionally crashed at
    its first ``media.*`` fault point and re-run; convergence to the
    same state is part of the oracle.
    """
    ops = generate_ops(seed, n_transactions, n_pages, checkpoint_every=None)
    rng = RandomStreams(seed).stream("survivetest.media")
    if fail_index is None:
        fail_index = rng.randrange(dump_every + 1, len(ops))
    if not dump_every < fail_index <= len(ops):
        raise ValueError(
            f"fail_index {fail_index} outside ({dump_every}, {len(ops)}]"
        )
    outcome = Outcome(arch, "media-restore")
    outcome.details["fail_index"] = fail_index
    outcome.details["crash_during_restore"] = crash_during_restore
    manager = make_manager(arch)
    is_wal = isinstance(manager, DistributedWalManager)
    tids: Dict[int, int] = {}
    pending: Dict[int, Dict[int, bytes]] = {}
    committed: Dict[int, bytes] = {}
    archived: Optional[Dict[int, bytes]] = None
    dumps = 0

    for index, op in enumerate(ops):
        if index and index % dump_every == 0:
            manager.dump()
            dumps += 1
            archived = dict(committed)
        if is_wal and dumps:
            # Continuous archiving: the archive log keeps up with the
            # online logs, so restore loses nothing (the WAL advantage).
            manager.archive_append()
        if index == fail_index:
            if not crash_during_restore:
                manager.recover_from_media_failure()
            elif not recover_with_recrash(
                manager, "media.*", manager.recover_from_media_failure
            ):
                outcome.violations.append(
                    "restore crossed no media.* fault point to crash at"
                )
            # The no-log managers roll back to the archive point; WAL
            # rolls forward through the archive log.
            if not is_wal:
                committed = dict(archived or {})
            # In-flight transactions were erased by the restart
            # discipline; the BEC re-submits them (fresh tids, same
            # writes) and the workload continues.
            for slot in sorted(tids):
                tids[slot] = manager.begin()
                for page in sorted(pending[slot]):
                    manager.write(tids[slot], page, pending[slot][page])
        apply_op(manager, op, tids, committed, pending)
    if tids:
        outcome.violations.append(
            f"workload did not complete: slots {sorted(tids)} left active"
        )
    expected = {page: committed.get(page, b"") for page in range(n_pages)}
    actual = {page: manager.read_committed(page) for page in range(n_pages)}
    if actual != expected:
        for page in range(n_pages):
            if actual[page] != expected[page]:
                outcome.violations.append(
                    f"page {page}: expected {expected[page]!r}, "
                    f"found {actual[page]!r}"
                )
    # Round-trip: a fresh dump followed by a restore must be exact for
    # every manager (nothing is in flight now).
    manager.dump()
    manager.recover_from_media_failure()
    after = {page: manager.read_committed(page) for page in range(n_pages)}
    if after != expected:
        outcome.violations.append("final dump/restore round-trip diverged")
    outcome.details["dumps"] = dumps
    outcome.details["rolled_back_to_archive"] = not is_wal
    return outcome


# -- the full sweep -----------------------------------------------------------
def run_survivetest(
    arch: str,
    seed: int = 1985,
    n_transactions: int = DEFAULT_TRANSACTIONS,
) -> SurviveReport:
    """Inject every permanent-failure kind against one architecture.

    ``arch`` is a registered crashtest architecture name (``wal``,
    ``shadow``, ..., ``command``, ``redo``); the sim scenarios run
    its simulated counterpart, the media scenarios its functional
    recovery manager.
    """
    make_manager(arch)  # rejects an unknown name before any sim work
    rng = RandomStreams(seed).stream("survivetest.points")
    _m, _h, baseline, base_txns = _build_and_run(
        arch, seed, n_transactions, monitor=False
    )
    report = SurviveReport(
        architecture=arch,
        seed=seed,
        n_transactions=n_transactions,
        baseline_makespan_ms=baseline.makespan_ms,
    )
    not_committed = [
        t.tid for t in base_txns if t.status is not TransactionStatus.COMMITTED
    ]
    if not_committed:
        report.scenarios.append(
            Outcome(
                arch,
                "baseline",
                [f"fault-free baseline left {not_committed} uncommitted"],
            )
        )
        return report
    report.scenarios.append(
        _qp_scenario(arch, seed, n_transactions, baseline.makespan_ms, rng)
    )
    if entry_for(arch).lp_failover:
        report.scenarios.append(
            _lp_scenario(arch, seed, n_transactions, baseline.makespan_ms, rng)
        )
    report.scenarios.append(
        _mirrored_disk_scenario(arch, seed, n_transactions, rng)
    )
    report.scenarios.append(run_media_scenario(arch, seed))
    report.scenarios.append(
        run_media_scenario(arch, seed, crash_during_restore=True)
    )
    return report
