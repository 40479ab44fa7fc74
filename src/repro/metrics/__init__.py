"""Run-level metrics and report rendering."""

from repro.metrics.collectors import RunResult
from repro.metrics.report import format_table

__all__ = [
    "RunResult",
    "format_table",
]
