"""Table 9: impact of the differential-file mechanism.

Expected shape: the *basic* strategy (set-difference on every B/A page)
saturates the 25 query processors and flattens all four configurations to
roughly the same cost; the *optimal* strategy (diff only qualifying pages)
recovers the random configurations to near disk-bound but still hurts
sequential loads badly.
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_text,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import table9_differential_impact

GRID = table_grid(
    "table09",
    table9_differential_impact,
    primary_metric="mean.exec_optimal",
    seed=BENCH_SEED,
)

PAPER_TEXT = paper_text(table9_differential_impact)


def test_table9_differential_impact(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    rows = result.cells[0].detail["rows"]
    basics = [row["exec_basic"] for row in rows]
    # CPU-bound flattening: all four basic numbers within 25 % of each other.
    assert max(basics) < 1.25 * min(basics)
    for row in rows:
        assert row["exec_optimal"] < 0.65 * row["exec_basic"]
    parseq = next(
        r for r in rows if r["configuration"] == "parallel-sequential"
    )
    assert parseq["exec_optimal"] > 3 * parseq["exec_bare"]
