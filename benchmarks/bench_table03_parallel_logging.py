"""Table 3: parallel logging under physical logging on the fast machine.

75 query processors, 2 parallel-access data disks, 150 cache frames,
sequential transactions, physical logging (before + after image per
update).  Expected shape: one log disk saturates and multiplies execution
time; adding log disks restores performance toward the no-logging floor;
cyclic / random / qp-mod selection are comparable, txn-mod is the loser.
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_text,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import table3_parallel_logging

GRID = table_grid(
    "table03",
    table3_parallel_logging,
    primary_metric="mean.exec_cyclic",
    seed=BENCH_SEED,
    title="Table 3. Parallel Logging and Selection Algorithms",
)

PAPER_TEXT = paper_text(table3_parallel_logging)


def test_table3_parallel_logging(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    rows = {
        row["n_log_disks"]: row for row in result.cells[0].detail["rows"]
    }
    # One log disk is the bottleneck; three make it much better.
    assert rows[1]["exec_cyclic"] > 1.8 * rows["w/o logging"]["exec_cyclic"]
    assert rows[3]["exec_cyclic"] < 0.75 * rows[1]["exec_cyclic"]
    # txn-mod never recovers fully (few concurrent transactions).
    assert rows[5]["exec_txn_mod"] > rows[5]["exec_random"]
