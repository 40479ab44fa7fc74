"""Ablation (paper Section 4.1.3): the QP<->LP interconnect barely matters.

The paper evaluates dedicated links of 1.0, 0.1, and 0.01 MB/s and routing
fragments through the disk cache, and finds the database machine
insensitive to all of them: fragment delays are absorbed in the
inter-arrival gaps at the log processor, and neither QP cycles nor cache
frames are the binding constraint.  Expected shape: all columns within a
few percent of each other.
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_block,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import ablation_interconnect

GRID = table_grid(
    "ablation_interconnect",
    ablation_interconnect,
    primary_metric="mean.through_cache",
    seed=BENCH_SEED,
)

PAPER_TEXT = paper_block(
    "Paper (Section 4.1.3, no table given):",
    [
        "performance 'quite insensitive' to 1.0 / 0.1 / 0.01 MB/s links",
        "performance 'not affected' by routing fragments through the cache",
    ],
)


def test_ablation_interconnect(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    for row in result.cells[0].detail["rows"]:
        values = [v for k, v in row.items() if k != "configuration"]
        assert max(values) <= 1.12 * min(values), row
