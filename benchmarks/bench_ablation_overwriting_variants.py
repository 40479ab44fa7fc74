"""Ablation (paper Section 3.2.2.2): no-undo vs no-redo overwriting.

The paper describes both variants but evaluates only no-undo.  This
ablation runs both: no-redo writes each update home immediately (after
saving the shadow to the scratch ring) and so needs no commit-time data
movement, while no-undo defers home writes to after commit.  Expected
shape: both cost noticeably more than the bare machine; their ordering
depends on configuration (no-redo does 2 I/Os per update spread over the
transaction's lifetime, no-undo 3 concentrated at commit but batchable on
parallel-access drives).
"""

from benchmarks._harness import (
    BENCH_SEED,
    paper_block,
    run_grid_bench,
    table_grid,
    table_text,
)
from repro.experiments import ablation_overwriting_variants

GRID = table_grid(
    "ablation_overwriting_variants",
    ablation_overwriting_variants,
    primary_metric="mean.no_undo",
    seed=BENCH_SEED,
)

PAPER_TEXT = paper_block(
    "Paper (Section 3.2.2.2 describes both; Tables 7-8 evaluate no-undo):",
    [
        "no-redo: shadows saved to scratch, homes overwritten eagerly",
        "no-undo: currents parked in scratch, shadows overwritten at commit",
    ],
)


def test_ablation_overwriting_variants(benchmark):
    result = run_grid_bench(benchmark, GRID, PAPER_TEXT, text_fn=table_text)
    for row in result.cells[0].detail["rows"]:
        assert row["no_undo"] > 0 and row["no_redo"] > 0
