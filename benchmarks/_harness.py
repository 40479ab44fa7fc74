"""Shared plumbing for the benchmark harness.

Every ``bench_*`` module declares a :class:`repro.bench.Grid` (or, in
``bench_tables``, one per entry of the table catalogue in
:mod:`repro.experiments.tables`, through :func:`catalogue_grids`) and
runs it through :func:`run_grid_bench`: the grid executes exactly once
under pytest-benchmark (``pedantic`` with one round — the interesting
number is the *simulated* result, the wall-clock time is a bonus),
prints the measured rows next to the paper's, writes the text to
``benchmarks/output/<name>.txt`` so results survive pytest's capture,
and writes the schema-validated ``BENCH_<name>.json`` trajectory
artifact at the repo root and in ``benchmarks/output/``.

Run the whole harness with::

    pytest benchmarks/ --benchmark-only

or, without pytest, ``python -m repro bench`` (see ``docs/BENCH.md``).
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench import (
    Grid,
    GridResult,
    render_grid,
    run_grid,
    write_grid_artifacts,
)
from repro.experiments import PAPER, ExperimentSettings
from repro.experiments.tables import CATALOGUE, Table, render
from repro.metrics import format_table

#: Master seed for the benchmark harness: every table draws the same
#: transaction streams, so numbers are comparable across runs and machines.
BENCH_SEED = 1985

#: Load size for benchmark runs; large enough for stable shapes.
BENCH_SETTINGS = ExperimentSettings(n_transactions=30, seed=BENCH_SEED)

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")

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


def catalogue_grids(gates: Mapping[str, str], *, seed: int) -> Tuple[Grid, ...]:
    """One single-cell grid per :data:`CATALOGUE` entry, in catalogue order,
    gated on ``mean.<gates[key]>`` and titled by the entry."""
    return tuple(
        Grid(
            name=grid_name(table),
            title=table.title,
            seed=seed,
            runner=functools.partial(run_table_cell, table, table.label_field),
            primary_metric=f"mean.{gates[key]}",
        )
        for key, table in CATALOGUE.items()
    )


def table_text(result: GridResult) -> str:
    """Render a table grid's single cell with ``tables.render``."""
    return render(result.cells[0].detail)


def run_grid_bench(
    benchmark,
    grid: Grid,
    paper_text: Optional[str] = None,
    text_fn: Optional[Callable[[GridResult], str]] = None,
) -> GridResult:
    """Run ``grid`` once under the benchmark fixture and report it."""
    result = benchmark.pedantic(
        lambda: run_grid(grid), rounds=1, iterations=1
    )
    text = (text_fn or render_grid)(result)
    if paper_text:
        text += "\n\n" + paper_text
    print()
    print(text)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, f"{grid.name}.txt"), "w") as handle:
        handle.write(text + "\n")
    write_grid_artifacts(result, OUTPUT_DIR, baseline_dir=REPO_ROOT)
    return result


def paper_text(table: Table) -> str:
    """The paper's numbers for a catalogued table, laid out like its rows."""
    paper = PAPER[table.key]
    columns = list(dict.fromkeys(key for row in paper.values() for key in row))
    return format_table(
        [table.label_field] + columns,
        [[label] + [row.get(c, "") for c in columns] for label, row in paper.items()],
        title=f"Paper {table.title}",
    )


def paper_block(title: str, lines) -> str:
    """Format the paper's numbers as a reference block."""
    body = "\n".join(f"  {line}" for line in lines)
    return f"{title}\n{body}"
