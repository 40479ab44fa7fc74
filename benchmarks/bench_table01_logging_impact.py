"""Table 1: impact of (logical) logging with one log disk.

Regenerates the paper's Table 1 — execution time per page and transaction
completion time, with and without logging, in all four configurations.
Expected shape: logging leaves throughput essentially unchanged (collection
of recovery data overlaps data processing) and nudges completion times.
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_text,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import table1_logging_impact

GRID = table_grid(
    "table01",
    table1_logging_impact,
    primary_metric="mean.exec_with_log",
    seed=BENCH_SEED,
)

PAPER_TEXT = paper_text(table1_logging_impact)


def test_table1_logging_impact(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    for row in result.cells[0].detail["rows"]:
        # Logging must not degrade throughput by more than ~10 %.
        assert row["exec_with_log"] <= 1.10 * row["exec_without_log"], row
