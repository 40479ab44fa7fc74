"""Ablation (extension): hotspot-skewed reference strings.

The paper's workload references pages uniformly; real workloads skew.
This extension adds b/c-rule hotspots under the parallel-logging
architecture.  Expected shape: moderate skew leaves throughput essentially
unchanged (the machine is I/O-pattern-bound, not contention-bound); only a
pathologically small hot set drives up lock conflicts and restarts.
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_block,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import ablation_hotspot

GRID = table_grid(
    "ablation_hotspot",
    ablation_hotspot,
    primary_metric="mean.exec_ms_per_page",
    seed=BENCH_SEED,
)

PAPER_TEXT = paper_block(
    "Paper:",
    ["(uniform workload only; hotspot skew is an extension ablation)"],
)


def test_ablation_hotspot(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    rows = {row["workload"]: row for row in result.cells[0].detail["rows"]}
    # A pathologically small hot set (0.5 % of the database) drives up
    # conflicts and restarts...
    assert rows["hot_0.005"]["lock_blocks"] > rows["uniform"]["lock_blocks"]
    assert rows["hot_0.005"]["restarts"] >= rows["uniform"]["restarts"]
    # ...while a conventional 80/20-style skew stays near uniform cost.
    assert (
        rows["hot_0.1"]["exec_ms_per_page"]
        <= 1.15 * rows["uniform"]["exec_ms_per_page"]
    )
