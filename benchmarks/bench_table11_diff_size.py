"""Table 11: effect of the size of the differential files.

Expected shape: performance degrades *nonlinearly* as the A/D files grow
from 10 % to 20 % of the base — extra I/O and the quadratic-ish growth in
set-difference work saturate the query processors (paper: 19.2 -> 24.8 ->
37.0 for conventional-random).
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_text,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import table11_differential_size

GRID = table_grid(
    "table11",
    table11_differential_size,
    primary_metric="mean.size_15pct",
    seed=BENCH_SEED,
)

PAPER_TEXT = paper_text(table11_differential_size)


def test_table11_differential_size(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    for row in result.cells[0].detail["rows"]:
        e10, e15, e20 = row["size_10pct"], row["size_15pct"], row["size_20pct"]
        assert e10 < e15 < e20, row
        assert (e20 - e15) > (e15 - e10), f"growth not accelerating: {row}"
