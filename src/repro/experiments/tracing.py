"""Traced experiment runs: ``repro trace`` and ``repro trace-diff``.

Glue between the pure recorder/analysis layer (:mod:`repro.trace`) and
the experiment runner: build a seeded workload on one of the registered
architectures, attach a tracer, and hand back both the usual
:class:`~repro.metrics.RunResult` and the span-level view — the mean
phase breakdown, the critical resource, and exporters' input.

``trace_diff`` runs the *same* configuration and workload under two
architectures and attributes their mean completion-time gap phase by
phase; because the breakdown partitions each completion window exactly,
the per-phase deltas sum to the gap (this is how a Table 12 comparison
is explained, not just measured).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import (
    CONFIGURATIONS,
    Configuration,
    ExperimentSettings,
    run_configuration,
)
from repro.metrics.collectors import RunResult
from repro.registry import SIM_ARCHITECTURES, machine_overrides
from repro.trace import (
    Tracer,
    aggregate_breakdown,
    completion_percentiles,
    critical_resource,
    diff_breakdowns,
)

__all__ = ["SIM_ARCHITECTURES", "TracedRun", "render_diff", "run_traced", "trace_diff"]


@dataclass
class TracedRun:
    """One traced run: the usual metrics plus the span-level view."""

    architecture: str
    configuration: str
    result: RunResult
    tracer: Tracer
    #: Mean phase breakdown over committed transactions; sums to the mean
    #: completion time.
    breakdown: Dict[str, float]
    #: The phase most of the completion time went to.
    critical: Optional[str]
    #: Exact completion percentiles recomputed from the trace windows
    #: (equal to ``result.completion_percentiles`` — asserted in tests).
    percentiles: Dict[str, float]


def run_traced(
    arch: str,
    configuration: str = "parallel-random",
    settings: Optional[ExperimentSettings] = None,
) -> TracedRun:
    """Run ``arch`` under ``configuration`` with a tracer attached."""
    if arch not in SIM_ARCHITECTURES:
        raise ValueError(
            f"unknown architecture {arch!r}; pick from {sorted(SIM_ARCHITECTURES)}"
        )
    config = _configuration(configuration)
    tracer = Tracer()
    result = run_configuration(
        config,
        SIM_ARCHITECTURES[arch],
        settings=settings,
        # Per-architecture conventions (version pairs halve the database to
        # fit the same drives, Section 4.2.5) live in the registry.
        machine_overrides=machine_overrides(arch),
        tracer=tracer,
    )
    breakdown = aggregate_breakdown(tracer)
    return TracedRun(
        architecture=arch,
        configuration=config.name,
        result=result,
        tracer=tracer,
        breakdown=breakdown,
        critical=critical_resource(breakdown),
        percentiles=completion_percentiles(tracer),
    )


def _configuration(name: str) -> Configuration:
    if name not in CONFIGURATIONS:
        raise ValueError(
            f"unknown configuration {name!r}; pick from {sorted(CONFIGURATIONS)}"
        )
    return CONFIGURATIONS[name]


def trace_diff(
    arch_a: str,
    arch_b: str,
    configuration: str = "parallel-random",
    settings: Optional[ExperimentSettings] = None,
) -> Tuple[TracedRun, TracedRun, List[Tuple[str, float, float, float]]]:
    """Attribute the completion-time gap between two architectures.

    Both runs share the workload and machine seed (the experiments'
    common-random-numbers discipline), so the phase deltas are a paired
    comparison, and they sum to the mean completion-time difference.
    """
    run_a = run_traced(arch_a, configuration, settings)
    run_b = run_traced(arch_b, configuration, settings)
    rows = diff_breakdowns(run_a.breakdown, run_b.breakdown)
    return run_a, run_b, rows


def render_diff(
    run_a: TracedRun, run_b: TracedRun, rows: List[Tuple[str, float, float, float]]
) -> str:
    """The trace-diff attribution as an aligned terminal table."""
    total_a = sum(run_a.breakdown.values())
    total_b = sum(run_b.breakdown.values())
    lines = [
        f"mean completion: {run_a.architecture}={total_a:.1f} ms, "
        f"{run_b.architecture}={total_b:.1f} ms, delta={total_b - total_a:+.1f} ms",
        f"{'phase':<14} {run_a.architecture:>12} {run_b.architecture:>12} {'delta':>10}",
    ]
    for phase, ms_a, ms_b, delta in rows:
        lines.append(f"{phase:<14} {ms_a:>9.1f} ms {ms_b:>9.1f} ms {delta:>+7.1f} ms")
    lines.append(
        f"{'total':<14} {total_a:>9.1f} ms {total_b:>9.1f} ms "
        f"{total_b - total_a:>+7.1f} ms"
    )
    return "\n".join(lines)
