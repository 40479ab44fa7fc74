"""Ablation (paper Section 4.2.5): version selection vs thru page-table.

The paper dismisses version selection analytically: fetching both versions
of every page lengthens each read on an I/O-bandwidth-bound machine, while
the page-table indirection it avoids can be fully overlapped anyway (big
buffer or second PT processor), and it doubles disk space.  Expected
shape: version selection strictly worse than bare on random loads, with
thru-PT preferable overall.

Disk space doubling is honoured: the database is halved so both versions
of every page fit the same two drives.
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_block,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import ablation_version_selection

GRID = table_grid(
    "ablation_version_selection",
    ablation_version_selection,
    primary_metric="mean.version_selection",
    seed=BENCH_SEED,
)

PAPER_TEXT = paper_block(
    "Paper (Section 4.2.5, no table given):",
    [
        "'the average time to access a data page will increase'",
        "'the version selection algorithm will have poor performance'",
        "'requires substantial redundant storage to hold versions'",
    ],
)


def test_ablation_version_selection(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    for row in result.cells[0].detail["rows"]:
        if "random" in row["configuration"]:
            assert row["version_selection"] > row["bare"], row
