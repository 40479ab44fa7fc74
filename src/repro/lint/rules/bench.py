"""Benchmark reproducibility: declarative grid specs with pinned seeds.

The paper's tables are paired comparisons; a benchmark whose seed floats
produces numbers that cannot be compared across commits.  BENCH02
requires every benchmark module to declare a :class:`repro.bench.Grid`
spec (directly, or a tuple of them through the ``benchmarks._harness``
catalogue factory) at module level, with an explicit ``seed=`` keyword —
that is what makes the benchmark discoverable by ``repro bench``, gives
its cells stable run IDs, and puts it under the ``bench-diff``
trajectory gate.  A benchmark outside the grid system is invisible to
the perf trajectory, which is exactly the regression BENCH02 exists to
prevent.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.astutil import ImportMap
from repro.lint.engine import ModuleContext, Project, Rule, register

__all__ = ["Bench02GridSpec"]

#: Dotted origins that construct a grid spec.  ``Grid`` is the canonical
#: constructor; the ``_harness`` catalogue factory wraps it for the paper
#: tables (it returns one ``Grid`` per catalogue entry and forwards
#: ``seed=``).
_GRID_FACTORIES = (
    "repro.bench.Grid",
    "repro.bench.spec.Grid",
    "benchmarks._harness.catalogue_grids",
)


def _is_benchmark(module: ModuleContext) -> bool:
    name = module.basename
    return name.startswith("bench_") and name.endswith(".py")


def _grid_calls(module: ModuleContext) -> List[Tuple[ast.Assign, ast.Call]]:
    """Module-level ``NAME = Grid(...)`` (or factory) assignments."""
    imports = ImportMap(module.tree)
    found: List[Tuple[ast.Assign, ast.Call]] = []
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        origin = imports.origin(value.func)
        if origin in _GRID_FACTORIES:
            found.append((node, value))
    return found


def _keyword(call: ast.Call, name: str) -> Optional[ast.keyword]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword
    return None


@register
class Bench02GridSpec(Rule):
    code = "BENCH02"
    summary = (
        "every benchmarks/bench_*.py declares a repro.bench grid spec "
        "with an explicit seed"
    )

    def check(self, module: ModuleContext, project: Project) -> Iterator:
        if not _is_benchmark(module):
            return
        calls = _grid_calls(module)
        if not calls:
            yield module.finding(
                self.code,
                module.tree,
                "benchmark declares no repro.bench grid spec (assign "
                "GRID = Grid(...) or a benchmarks._harness factory at module "
                "level); ungridded benchmarks are invisible to the "
                "BENCH_<name>.json perf trajectory and the bench-diff gate",
            )
            return
        for node, call in calls:
            if _keyword(call, "seed") is None:
                yield module.finding(
                    self.code,
                    node,
                    "grid spec must pin its randomness with an explicit "
                    "seed= keyword",
                )
