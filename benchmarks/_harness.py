"""Shared plumbing for the benchmark grids.

Every ``bench_*`` module declares a :class:`repro.bench.Grid` (or, in
``bench_tables``, one per entry of the table catalogue in
:mod:`repro.experiments.tables`, through :func:`catalogue_grids`) whose
``check`` asserts the conclusions its result must uphold.  One runner
prices them all::

    python -m repro bench               # every grid -> benchmarks/output/
    python -m repro bench table02       # one grid
    python -m repro bench --write-baselines   # refresh the root BENCH_*.json

Each grid runs, writes its schema-validated ``BENCH_<name>.json``, and
then runs its check; a failed check makes the command exit 1 and names
the grid (see ``docs/BENCH.md``).
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.bench import Grid, GridResult
from repro.experiments import PAPER, ExperimentSettings
from repro.experiments.tables import CATALOGUE, Table

#: Master seed for the benchmark harness: every table draws the same
#: transaction streams, so numbers are comparable across runs and machines.
BENCH_SEED = 1985

#: Load size for benchmark runs; large enough for stable shapes.
BENCH_SETTINGS = ExperimentSettings(n_transactions=30, seed=BENCH_SEED)

#: Repository root — the committed ``BENCH_<name>.json`` baselines live
#: here so ``repro bench-diff`` can read the perf trajectory out of git.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def flatten_rows(
    rows: Sequence[Dict[str, Any]], label_field: str
) -> Dict[str, float]:
    """Flatten table rows to ``{label}.{field}`` metrics plus means.

    Fields named ``paper*`` are reference numbers from the paper, not
    measurements — they are excluded so the trajectory gate only watches
    what the simulator actually produced.
    """
    metrics: Dict[str, float] = {}
    sums: Dict[str, List[float]] = {}
    for row in rows:
        label = str(row[label_field]).replace(" ", "_")
        for field, value in row.items():
            if field == label_field or field.startswith("paper"):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metrics[f"{label}.{field}"] = float(value)
            sums.setdefault(field, []).append(float(value))
    for field, values in sums.items():
        metrics[f"mean.{field}"] = round(sum(values) / len(values), 9)
    return metrics


def run_table_cell(
    table_func: Table,
    label_field: str,
    params: Dict[str, Any],
    seed: int,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Grid runner for a paper-table function (module-level: picklable)."""
    del params  # table grids have no axes; the table is the sweep
    result = table_func(BENCH_SETTINGS.with_overrides(seed=seed))
    metrics = flatten_rows(result["rows"], label_field)
    detail = {"title": result.get("title", ""), "rows": result["rows"]}
    return metrics, detail


def grid_name(table: Table) -> str:
    """A catalogued table's grid name: ``table1`` -> ``table01``,
    ``version-selection`` -> ``ablation_version_selection``."""
    if table.key in PAPER:
        return f"table{int(table.key[len('table'):]):02d}"
    return "ablation_" + table.key.replace("-", "_")


def check_rows(
    shape: Callable[[List[Dict[str, Any]]], None], result: GridResult
) -> None:
    """Grid check of a table grid: ``shape`` asserts on its single
    cell's rows."""
    shape(result.cells[0].detail["rows"])


def catalogue_grids(
    gates: Mapping[str, str],
    shapes: Mapping[str, Callable[[List[Dict[str, Any]]], None]],
    *,
    seed: int,
) -> Tuple[Grid, ...]:
    """One single-cell grid per :data:`CATALOGUE` entry, in catalogue order,
    gated on ``mean.<gates[key]>``, checked by ``shapes[key]`` on its rows
    and titled by the entry."""
    return tuple(
        Grid(
            name=grid_name(table),
            title=table.title,
            seed=seed,
            runner=functools.partial(run_table_cell, table, table.label_field),
            primary_metric=f"mean.{gates[key]}",
            check=functools.partial(check_rows, shapes[key]),
        )
        for key, table in CATALOGUE.items()
    )
