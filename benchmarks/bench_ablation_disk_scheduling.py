"""Ablation (extension): FCFS vs SSTF data-disk scheduling.

The paper's era of controllers served requests in arrival order.  This
extension asks what shortest-seek-time-first queues would have bought the
conventional-disk configurations.  Expected shape: SSTF helps random loads
(shorter average seeks under a mixed queue) and cannot hurt sequential
ones — but the gain is modest because the multiprogramming level keeps
queues short.
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_block,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import ablation_disk_scheduling

GRID = table_grid(
    "ablation_disk_scheduling",
    ablation_disk_scheduling,
    primary_metric="mean.sstf",
    seed=BENCH_SEED,
)

PAPER_TEXT = paper_block(
    "Paper:",
    ["(not studied — 1985 controllers were FCFS; extension ablation)"],
)


def test_ablation_disk_scheduling(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    for row in result.cells[0].detail["rows"]:
        assert row["sstf"] <= 1.03 * row["fcfs"], row
