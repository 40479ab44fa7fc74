"""The loadtest harness: sweep offered load, locate the collapse knee.

For one architecture the harness first **calibrates** capacity with a
closed-batch run (the paper's own drive mode): ``capacity_tps =
1000 * n / makespan`` and the SLO is a multiple of the closed-batch mean
completion time.  It then sweeps *offered* load as multipliers of that
capacity, each cell an independent open-system run over the same seeded
arrival process and workload, and reports:

* **goodput** — committed *within the SLO* per second.  Below capacity
  this tracks offered load; past capacity the bounded admission queue
  fills, every admitted transaction queues behind it, sojourns blow
  through the SLO, and goodput collapses even though raw throughput
  plateaus.  That is the overload story the paper's closed batch cannot
  show.
* **the knee** — the first cell past the goodput peak at or below
  ``knee_fraction`` (default 0.8) of the peak.  If the sweep never bends,
  the harness extends it by doubling the top multiplier a few times.
* **latency vs SLO** — p50/p95/p99 sojourn per cell.

Each cell re-checks the admission-accounting and no-lost-admissions
oracles; a sweep with any violation is not ``ok``.  The same sweep can be
re-run under the PR-5 degraded states (``dead-lp``,
``mirrored-degraded``) to measure how failure moves the knee.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.loadgen.arrivals import ArrivalConfig, Spike
from repro.loadgen.runner import (
    DEGRADED_STATES,
    OpenRunResult,
    build_open_machine,
    run_open_load,
)
from repro.registry import entry_for

__all__ = [
    "Calibration",
    "DEFAULT_MULTIPLIERS",
    "LoadCell",
    "LoadTestReport",
    "calibrate",
    "demo_spike_config",
    "run_loadtest",
    "sweep_architectures",
]

#: Offered load as multiples of calibrated closed-batch capacity.
DEFAULT_MULTIPLIERS: Tuple[float, ...] = (0.4, 0.8, 1.2, 2.0, 3.5)

#: Extra doubling steps appended when the sweep ends without a knee.
_MAX_EXTENSIONS = 3


@dataclass(frozen=True)
class Calibration:
    """Closed-batch capacity estimate for one architecture."""

    architecture: str
    n_transactions: int
    makespan_ms: float
    capacity_tps: float
    mean_completion_ms: float


@dataclass
class LoadCell:
    """One sweep cell: offered-load multiplier -> open-system outcome."""

    multiplier: float
    offered_tps: float
    run: OpenRunResult

    def to_dict(self) -> Dict[str, Any]:
        out = self.run.to_dict()
        out["multiplier"] = self.multiplier
        out["offered_tps"] = self.offered_tps
        return out


@dataclass
class LoadTestReport:
    """One architecture, one machine state, one offered-load sweep."""

    architecture: str
    state: str
    seed: int
    arrival_process: str
    policy: str
    slo_ms: float
    calibration: Calibration
    cells: List[LoadCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.run.ok for cell in self.cells)

    @property
    def violations(self) -> List[str]:
        out = []
        for cell in self.cells:
            for violation in cell.run.oracle_violations:
                out.append(f"x{cell.multiplier:g}: {violation}")
        return out

    @property
    def peak(self) -> Optional[LoadCell]:
        """The cell with the highest goodput."""
        if not self.cells:
            return None
        return max(self.cells, key=lambda c: c.run.goodput_tps)

    def knee(self, fraction: float = 0.8) -> Optional[LoadCell]:
        """First cell past the peak with goodput <= fraction * peak."""
        peak = self.peak
        if peak is None or peak.run.goodput_tps <= 0:
            return None
        threshold = fraction * peak.run.goodput_tps
        past_peak = False
        for cell in self.cells:
            if cell is peak:
                past_peak = True
                continue
            if past_peak and cell.run.goodput_tps <= threshold:
                return cell
        return None

    def to_dict(self) -> Dict[str, Any]:
        knee = self.knee()
        peak = self.peak
        return {
            "architecture": self.architecture,
            "state": self.state,
            "seed": self.seed,
            "arrival_process": self.arrival_process,
            "policy": self.policy,
            "slo_ms": self.slo_ms,
            "capacity_tps": self.calibration.capacity_tps,
            "closed_makespan_ms": self.calibration.makespan_ms,
            "ok": self.ok,
            "violations": self.violations,
            "peak_goodput_tps": peak.run.goodput_tps if peak else 0.0,
            "peak_multiplier": peak.multiplier if peak else None,
            "knee_multiplier": knee.multiplier if knee else None,
            "knee_goodput_tps": knee.run.goodput_tps if knee else None,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        """A compact per-cell table plus the knee verdict."""
        lines = [
            f"loadtest {self.architecture} [{self.state}] "
            f"seed={self.seed} process={self.arrival_process} "
            f"policy={self.policy}",
            f"  capacity {self.calibration.capacity_tps:.2f} tps "
            f"(closed makespan {self.calibration.makespan_ms:.0f} ms), "
            f"SLO {self.slo_ms:.0f} ms",
            "  xload  offered  adm  rej  shed  good_tps  p95_ms",
        ]
        for cell in self.cells:
            run = cell.run
            lines.append(
                f"  x{cell.multiplier:<5g}{run.offered:>6}"
                f"{run.admitted:>6}{run.rejected:>5}{run.shed:>6}"
                f"{run.goodput_tps:>10.2f}{run.sojourn_ms.get('p95', 0.0):>9.0f}"
            )
        knee = self.knee()
        if knee is not None:
            peak = self.peak
            lines.append(
                f"  knee at x{knee.multiplier:g}: goodput "
                f"{knee.run.goodput_tps:.2f} tps vs peak "
                f"{peak.run.goodput_tps:.2f} tps at x{peak.multiplier:g}"
            )
        else:
            lines.append("  no knee found in the swept range")
        if not self.ok:
            lines.append(f"  ORACLE VIOLATIONS: {len(self.violations)}")
        return "\n".join(lines)


def calibrate(arch: str, seed: int, n_transactions: int) -> Calibration:
    """Closed-batch capacity of ``arch`` for the loadtest workload."""
    machine, transactions = build_open_machine(arch, seed, n_transactions)
    result = machine.run(transactions)
    capacity = (
        1000.0 * n_transactions / result.makespan_ms
        if result.makespan_ms > 0
        else 0.0
    )
    return Calibration(
        architecture=arch,
        n_transactions=n_transactions,
        makespan_ms=result.makespan_ms,
        capacity_tps=capacity,
        mean_completion_ms=result.mean_completion_ms,
    )


def run_loadtest(
    arch: str,
    seed: int = 1985,
    n_per_cell: int = 24,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    arrival: Optional[ArrivalConfig] = None,
    policy: str = "drop",
    slo_factor: float = 2.5,
    slo_ms: Optional[float] = None,
    state: str = "healthy",
    knee_fraction: float = 0.8,
    extend: bool = True,
    config_overrides: Optional[Dict[str, Any]] = None,
) -> LoadTestReport:
    """Sweep offered load against ``arch`` and locate the collapse knee.

    ``arrival`` provides the process shape (its ``rate_tps`` and
    ``n_arrivals`` are overridden per cell); ``slo_ms`` pins the SLO
    directly, otherwise it is ``slo_factor`` times the closed-batch mean
    completion.  ``state`` re-runs the whole sweep under a PR-5 degraded
    machine state.
    """
    if state not in DEGRADED_STATES:
        raise ValueError(
            f"unknown degraded state {state!r}; pick one of {DEGRADED_STATES}"
        )
    base_arrival = arrival if arrival is not None else ArrivalConfig()
    cal = calibrate(arch, seed, n_per_cell)
    if slo_ms is None:
        slo_ms = slo_factor * cal.mean_completion_ms
    overrides = dict(config_overrides or {})
    overrides.setdefault("admission_policy", policy)
    report = LoadTestReport(
        architecture=arch,
        state=state,
        seed=seed,
        arrival_process=base_arrival.process,
        policy=policy,
        slo_ms=slo_ms,
        calibration=cal,
    )

    def run_cell(multiplier: float) -> LoadCell:
        offered_tps = multiplier * cal.capacity_tps
        cell_arrival = replace(
            base_arrival, rate_tps=offered_tps, n_arrivals=n_per_cell
        )
        run = run_open_load(
            arch,
            cell_arrival,
            seed=seed,
            slo_ms=slo_ms,
            state=state,
            config_overrides=overrides,
        )
        return LoadCell(multiplier=multiplier, offered_tps=offered_tps, run=run)

    for multiplier in multipliers:
        report.cells.append(run_cell(multiplier))
    extensions = 0
    while (
        extend
        and report.knee(knee_fraction) is None
        and extensions < _MAX_EXTENSIONS
    ):
        report.cells.append(run_cell(report.cells[-1].multiplier * 2.0))
        extensions += 1
    return report


def sweep_architectures(
    archs: Sequence[str],
    states: Sequence[str] = ("healthy",),
    **kwargs,
) -> List[LoadTestReport]:
    """Loadtest every (architecture, state) pair; skip impossible pairs.

    ``dead-lp`` runs only for the architectures whose registry entry can
    lose a log processor and keep quorum (``lp_failover``).
    """
    reports = []
    for arch in archs:
        for state in states:
            if state == "dead-lp" and not entry_for(arch).lp_failover:
                continue
            reports.append(run_loadtest(arch, state=state, **kwargs))
    return reports


def demo_spike_config() -> ArrivalConfig:
    """A bursty schedule with a scripted mid-run spike (docs/CLI demo)."""
    return ArrivalConfig(
        process="bursty",
        spikes=(Spike(start_ms=2_000.0, duration_ms=1_000.0, multiplier=3.0),),
    )
