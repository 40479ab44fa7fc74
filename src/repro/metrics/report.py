"""Plain-text table rendering for experiment output.

The benchmark harness prints tables in the same row/column layout the paper
uses so measured numbers can be compared against it cell by cell.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["format_table"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
) -> str:
    """Align ``rows`` under ``headers``; column widths fit the content."""
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(sep))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in text_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
