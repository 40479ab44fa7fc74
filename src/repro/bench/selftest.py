"""A tiny closed-form grid that exercises every subsystem feature.

Used by the test suite (run-ID stability, serial-vs-jobs byte identity,
importance ranking, diff round trips) and available as a cheap smoke
grid.  The "workload" is arithmetic over the cell seed — deterministic,
instant, and shaped so both toggles have a measurable, differently-sized
effect: ``batching`` saves 40 % of the page cost, ``cache`` saves 20 %
of the fixed cost, so the importance ranking is predictable (and its
check asserts it).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.bench.runner import GridResult
from repro.bench.spec import ComponentToggle, Grid

__all__ = ["SELFTEST_GRID", "selftest_check", "selftest_runner"]


def selftest_runner(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """Closed-form cost model: pages x mode, discounted by components."""
    per_page = 2.0 if params["mode"] == "fast" else 3.0
    if not params["batching"]:
        per_page *= 1.4
    fixed = 50.0 + (seed % 7)
    if not params["cache"]:
        fixed *= 1.2
    cost_ms = fixed + per_page * params["pages"]
    return {
        "cost_ms": round(cost_ms, 6),
        "throughput": round(1000.0 / cost_ms, 6),
        "pages": float(params["pages"]),
    }


def selftest_check(result: GridResult) -> None:
    """Batching outranks the cache: it discounts the larger cost term."""
    ranked = [entry["component"] for entry in result.importance]
    assert ranked == ["batching", "cache"], ranked


SELFTEST_GRID = Grid(
    name="selftest",
    title="Bench subsystem selftest (closed-form cost model)",
    seed=1985,
    runner=selftest_runner,
    check=selftest_check,
    parameters={"mode": ["fast", "slow"], "pages": [10, 50]},
    toggles=(
        ComponentToggle("batching", "batch page writes"),
        ComponentToggle("cache", "keep the fixed-cost cache warm"),
    ),
    toggle_mode="one-off",
    seed_mode="per-cell",
    primary_metric="cost_ms",
    higher_is_better=False,
    tolerance=0.10,
)
