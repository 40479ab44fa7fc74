"""Fidelity scoring: how close is the reproduction to the paper, overall?

``fidelity_summary`` runs the catalogued paper tables, pairs every
measured cell of a scored column with its published counterpart
(``PAPER[table][row][column]``), and reports per-table and overall mean
absolute relative error — a single number tracking whether model changes
move the reproduction toward or away from the paper.  Exposed as
``python -m repro fidelity``.

Each table declares the columns it scores in the catalogue
(:mod:`repro.experiments.tables`); at this writing that is 122 cells
across ten tables, from 54 distinct runs.  Tables 3 and 5 score none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.paper import PAPER
from repro.experiments.runner import ExperimentSettings, run_cells
from repro.experiments.tables import CATALOGUE, Column, Table

__all__ = ["CellComparison", "FidelityReport", "fidelity_summary"]


@dataclass(frozen=True)
class CellComparison:
    table: str
    cell: str
    measured: float
    paper: float

    @property
    def relative_error(self) -> float:
        if self.paper == 0:
            return 0.0 if self.measured == 0 else 1.0
        return abs(self.measured - self.paper) / abs(self.paper)


@dataclass
class FidelityReport:
    cells: List[CellComparison]

    @property
    def mean_relative_error(self) -> float:
        if not self.cells:
            return 0.0
        return sum(cell.relative_error for cell in self.cells) / len(self.cells)

    def by_table(self) -> Dict[str, float]:
        groups: Dict[str, List[float]] = {}
        for cell in self.cells:
            groups.setdefault(cell.table, []).append(cell.relative_error)
        return {
            table: sum(errors) / len(errors) for table, errors in sorted(groups.items())
        }

    def worst(self, n: int = 5) -> List[CellComparison]:
        return sorted(self.cells, key=lambda c: -c.relative_error)[:n]

    def render(self) -> str:
        lines = [
            f"fidelity over {len(self.cells)} paper cells: "
            f"mean |relative error| = {self.mean_relative_error:.1%}",
            "",
            "per table:",
        ]
        for table, error in self.by_table().items():
            lines.append(f"  {table:<8} {error:.1%}")
        lines.append("")
        lines.append("worst cells:")
        for cell in self.worst():
            lines.append(
                f"  {cell.table} {cell.cell}: measured {cell.measured:.2f} "
                f"vs paper {cell.paper:.2f} ({cell.relative_error:.0%})"
            )
        return "\n".join(lines)


def _paper_columns(table: Table) -> Tuple[Column, ...]:
    """The scored columns of ``table`` the paper gives a value in some row."""
    paper = PAPER[table.key]
    return tuple(
        column
        for column in table.columns
        if column[0] in table.scored
        and any(paper[label].get(column[0]) is not None for label in table.cells)
    )


def fidelity_summary(
    settings: Optional[ExperimentSettings] = None,
    tables: Optional[Tuple[str, ...]] = None,
) -> FidelityReport:
    """Run the catalogued tables that score columns; pair every scored cell
    that has a paper value, labelled ``{row}/{column}``.

    Only the cells behind those columns run, each distinct one once over
    all the tables: Table 12's ``command_logging`` and ``redo_wal`` have
    no paper value and never run, and the bare machine shared by nine
    tables runs once per configuration.
    """
    scored = [
        (key, table, _paper_columns(table))
        for key, table in CATALOGUE.items()
        if table.scored and (tables is None or key in tables)
    ]
    results = run_cells(
        [cell for _, table, columns in scored for cell in table.cells_behind(columns)],
        settings,
    )
    cells: List[CellComparison] = []
    for key, table, columns in scored:
        for row in table.rows(results, columns):
            label = row[table.label_field]
            for column, *_ in columns:
                paper = PAPER[key][label].get(column)
                if paper is not None:
                    cells.append(
                        CellComparison(key, f"{label}/{column}", row[column], paper)
                    )
    return FidelityReport(cells)
