"""Table 8: random transactions — thru page-table vs overwriting.

Expected shape: overwriting is the worst option for random loads (three
I/Os per update, arm bouncing between scratch and data areas), worse than
the thru-page-table shadow whose PT accesses pipeline with data-page
processing.
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_text,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import table8_random_overwriting

GRID = table_grid(
    "table08",
    table8_random_overwriting,
    primary_metric="mean.thru_pt",
    seed=BENCH_SEED,
)

PAPER_TEXT = paper_text(table8_random_overwriting)


def test_table8_random_overwriting(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    rows = result.cells[0].detail["rows"]
    for row in rows:
        assert row["overwriting"] > row["bare"]
    conv = next(
        r for r in rows if r["configuration"] == "conventional-random"
    )
    assert conv["overwriting"] > 1.1 * conv["thru_pt"]
