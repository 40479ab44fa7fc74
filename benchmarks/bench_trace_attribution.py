"""Trace attribution: where a Table 12 pair's completion-time gap goes.

Runs the logging vs thru-page-table pair of the grand comparison with
tracers attached and records the phase-by-phase attribution of their mean
completion-time gap — the explanatory companion to Table 12's raw
numbers.  Also asserts the subsystem's accounting identities: each
architecture's breakdown sums to its mean completion time, and the phase
deltas sum to the gap exactly.
"""

from typing import Any, Dict, Tuple

from benchmarks._harness import BENCH_SEED
from repro.bench import Grid, GridResult
from repro.experiments import ExperimentSettings
from repro.experiments.tracing import render_diff, trace_diff


def trace_attribution_cell(
    params: Dict[str, Any], seed: int
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    run_a, run_b, rows = trace_diff(
        "logging",
        "shadow-pt",
        "parallel-random",
        ExperimentSettings(n_transactions=30, seed=seed),
    )
    mean_a = run_a.result.mean_completion_ms
    mean_b = run_b.result.mean_completion_ms
    metrics = {
        "mean_completion_a_ms": round(mean_a, 6),
        "mean_completion_b_ms": round(mean_b, 6),
        "gap_ms": round(mean_b - mean_a, 6),
        # Accounting identities, exposed as residuals so the trajectory
        # (and the check below) can check they stay at zero.
        "identity_residual_a_ms": round(
            sum(run_a.breakdown.values()) - mean_a, 6
        ),
        "identity_residual_b_ms": round(
            sum(run_b.breakdown.values()) - mean_b, 6
        ),
        "delta_sum_residual_ms": round(
            sum(delta for _, _, _, delta in rows) - (mean_b - mean_a), 6
        ),
    }
    detail = {
        "text": render_diff(run_a, run_b, rows),
        "phases": [list(row) for row in rows],
    }
    return metrics, detail


def trace_attribution_check(result: GridResult) -> None:
    """Both breakdowns and the phase deltas add up exactly."""
    assert abs(result.metric("identity_residual_a_ms")) < 1e-3
    assert abs(result.metric("identity_residual_b_ms")) < 1e-3
    assert abs(result.metric("delta_sum_residual_ms")) < 1e-3


GRID = Grid(
    name="trace_attribution",
    title="Trace attribution: logging vs shadow-pt completion-time gap",
    seed=BENCH_SEED,
    runner=trace_attribution_cell,
    check=trace_attribution_check,
    primary_metric="gap_ms",
)
