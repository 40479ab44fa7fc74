"""Grid discovery: find every ``bench_*.py`` grid in a benchmark tree.

The benchmark scripts live outside ``src`` (they are pytest files), so
the CLI imports them by path: the tree's parent lands on ``sys.path``
and each ``bench_*.py`` is imported as ``<package>.<stem>`` — the same
module identity pytest gives it, which keeps grid runners picklable for
the ``--jobs`` fan-out.  Every benchmark module must expose exactly one
module-level :class:`repro.bench.spec.Grid`, or one tuple of them (the
BENCH02 lint rule enforces the declaration statically; discovery
enforces it at run time).
"""

from __future__ import annotations

import glob
import importlib
import os
import sys
from typing import Dict, List, Optional

from repro.bench.spec import BenchSpecError, Grid

__all__ = ["load_grids"]


def _import_bench_module(bench_dir: str, stem: str):
    parent = os.path.dirname(os.path.abspath(bench_dir))
    package = os.path.basename(os.path.abspath(bench_dir))
    if parent not in sys.path:
        sys.path.insert(0, parent)
    return importlib.import_module(f"{package}.{stem}")


def _declares(value) -> bool:
    if isinstance(value, tuple):
        return bool(value) and all(isinstance(item, Grid) for item in value)
    return isinstance(value, Grid)


def load_grids(
    bench_dir: str, names: Optional[List[str]] = None
) -> Dict[str, Grid]:
    """Import every ``bench_*.py`` under ``bench_dir`` and collect grids.

    Returns ``{grid.name: grid}`` in module-name order.  ``names``
    filters to specific grid names (unknown names raise, so a typo in
    CI fails loudly instead of silently shrinking coverage).
    """
    pattern = os.path.join(bench_dir, "bench_*.py")
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise BenchSpecError(f"no bench_*.py modules under {bench_dir!r}")
    grids: Dict[str, Grid] = {}
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        module = _import_bench_module(bench_dir, stem)
        found = [value for value in vars(module).values() if _declares(value)]
        if len(found) != 1:
            raise BenchSpecError(
                f"{path}: expected exactly one repro.bench Grid (or tuple "
                f"of Grids) at module level, found {len(found)}"
            )
        declared = found[0]
        for grid in declared if isinstance(declared, tuple) else (declared,):
            if grid.name in grids:
                raise BenchSpecError(
                    f"{path}: duplicate grid name {grid.name!r}"
                )
            grids[grid.name] = grid
    if names:
        unknown = [name for name in names if name not in grids]
        if unknown:
            raise BenchSpecError(
                f"unknown grid names {unknown}; available: {sorted(grids)}"
            )
        grids = {name: grids[name] for name in names}
    return grids
