"""Table 12: the grand comparison of all recovery architectures.

Expected shape (the paper's conclusion): parallel logging tracks the bare
machine in every configuration; thru-page-table shadow matches it only
when clustering can be maintained and the PT bottleneck is bought off
(buffer or second processor); scrambled shadow and differential files
collapse on sequential loads; overwriting hurts everywhere except
parallel-access + sequential.
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_text,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import table12_comparison

GRID = table_grid(
    "table12",
    table12_comparison,
    primary_metric="mean.logging",
    seed=BENCH_SEED,
)

PAPER_TEXT = paper_text(table12_comparison)


def test_table12_comparison(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    rows = {
        row["configuration"]: row for row in result.cells[0].detail["rows"]
    }
    for name, row in rows.items():
        # The headline: logging within 15 % of bare everywhere.
        assert row["logging"] <= 1.15 * row["bare"], name
    # Each rival collapses somewhere.
    assert rows["parallel-sequential"]["scrambled"] > 4 * rows["parallel-sequential"]["bare"]
    assert rows["conventional-random"]["overwriting"] > 1.25 * rows["conventional-random"]["bare"]
    assert rows["parallel-sequential"]["differential"] > 3 * rows["parallel-sequential"]["bare"]
