"""Fidelity scoring: how close is the reproduction to the paper, overall?

``fidelity_summary`` runs the catalogued paper tables, pairs every
measured cell of a scored column with its published counterpart
(``PAPER[table][row][column]``), and reports per-table and overall mean
absolute relative error — a single number tracking whether model changes
move the reproduction toward or away from the paper.  Exposed as
``python -m repro fidelity``.

Each table declares the columns it scores in the catalogue
(:mod:`repro.experiments.tables`); at this writing that is 122 cells
across ten tables.  Tables 3 and 5 score none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.paper import PAPER
from repro.experiments.runner import ExperimentSettings
from repro.experiments.tables import CATALOGUE, Table

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


def _paper_columns(table: Table) -> Tuple[str, ...]:
    """The scored columns of ``table`` the paper gives a value in some row."""
    paper = PAPER[table.key]
    return tuple(
        column
        for column in table.scored_columns
        if any(paper[label].get(column) is not None for label in table.rows)
    )


def fidelity_summary(
    settings: Optional[ExperimentSettings] = None,
    tables: Optional[Tuple[str, ...]] = None,
) -> FidelityReport:
    """Run the catalogued tables that score columns; pair every scored cell
    that has a paper value, labelled ``{row}/{column}``.

    Only the architectures behind those columns run: Table 12's
    ``command_logging`` and ``redo_wal`` have no paper value and are
    skipped.  Cells run independently, so the rest measure the same.
    """
    settings = settings or ExperimentSettings()
    cells: List[CellComparison] = []
    for key, table in CATALOGUE.items():
        if not table.scored_columns or (tables is not None and key not in tables):
            continue
        columns = _paper_columns(table)
        kept = [spec for spec in table.columns if spec[0] in columns]
        archs = {spec[1] for spec in kept}
        table = replace(
            table,
            archs={name: arch for name, arch in table.archs.items() if name in archs},
            columns=tuple(kept),
        )
        for row in table(settings)["rows"]:
            label = row[table.label_field]
            for column in columns:
                paper = PAPER[key][label].get(column)
                if paper is not None:
                    cells.append(
                        CellComparison(key, f"{label}/{column}", row[column], paper)
                    )
    return FidelityReport(cells)
