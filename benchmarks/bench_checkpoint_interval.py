"""Restart time and normal-case overhead vs checkpoint interval.

The paper's Section 6 trade in one table: the same seeded workload runs
against each of the seven recovery managers at several checkpoint
cadences (including the never-checkpoint baseline), crashes at the end,
and both sides of the trade are measured — the recovery-data records and
page writes the running system paid (overhead) and the records and pages
the restart had to reprocess, priced on the simulated hardware
(:func:`repro.analysis.estimate_functional_restart`).  Expected shape:
measured restart time never grows as the interval shrinks, stays under
the cadence-only analytic envelope, and the overhead bill moves the
other way.
"""

from typing import Any, Dict

from benchmarks._harness import BENCH_SEED
from repro.analysis import run_with_checkpoints
from repro.bench import Grid, GridResult
from repro.faults import ARCHITECTURES

#: Widest cadence first; "never" is the never-checkpoint baseline.
INTERVALS = ["never", 16, 8, 4]
N_TRANSACTIONS = 40
#: Noise slack on the monotonicity check: one extra recovery-data page
#: read (the sweep is deterministic, but residue sizes quantize).
SLACK_MS = 30.0


def checkpoint_cell(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    arch = params["architecture"]
    interval = None if params["interval"] == "never" else params["interval"]
    row = run_with_checkpoints(arch, seed, interval, n_transactions=N_TRANSACTIONS)
    return {
        "checkpoints_taken": row.checkpoints_taken,
        "overhead_records": row.overhead_records,
        "overhead_page_writes": row.overhead_page_writes,
        "restart_records": row.restart_records,
        "restart_pages_touched": row.restart_pages_touched,
        "restart_ms": round(row.measured.total_ms, 6),
        "bound_ms": round(row.analytic.total_ms, 6),
    }


def checkpoint_check(result: GridResult) -> None:
    """Tighter cadences buy cheaper restarts, under the envelope, for
    more normal-case overhead.

    Paper (Section 6):
      'the frequency of checkpointing bounds the amount of log
       data which must be processed at restart, at the cost of
       additional work during normal operation'
    """
    for arch in sorted(ARCHITECTURES):
        costs = [
            result.metric("restart_ms", architecture=arch, interval=interval)
            for interval in INTERVALS
        ]
        # Restart never grows (within noise) as the interval shrinks...
        for wider, tighter in zip(costs, costs[1:]):
            assert tighter <= wider + SLACK_MS, (arch, costs)
        # ...checkpointing buys a real reduction against the baseline...
        assert costs[-1] <= costs[0] + 1e-9, (arch, costs)
        for interval in INTERVALS:
            cell = result.cell(architecture=arch, interval=interval)
            # ...stays under the cadence-only analytic envelope...
            assert cell.metric("restart_ms") <= cell.metric("bound_ms") + 1e-9, arch
        # ...and the normal-case overhead moves the other way.
        assert result.metric(
            "overhead_records", architecture=arch, interval=INTERVALS[-1]
        ) > result.metric(
            "overhead_records", architecture=arch, interval=INTERVALS[0]
        ), arch


GRID = Grid(
    name="checkpoint_interval",
    title=f"Restart cost vs checkpoint interval "
    f"(seed {BENCH_SEED}, {N_TRANSACTIONS} txns)",
    seed=BENCH_SEED,
    runner=checkpoint_cell,
    check=checkpoint_check,
    parameters={
        "architecture": sorted(ARCHITECTURES),
        "interval": INTERVALS,
    },
    primary_metric="restart_ms",
)
