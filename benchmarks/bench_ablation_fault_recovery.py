"""Ablation: post-crash recovery work by fault type, per architecture.

Prices the restart side of the paper's Section 3 trade-off in the
functional engine: the same seeded workload runs against each of the five
recovery managers, a fault is injected (a clean crash between operations,
a crash in the middle of commit processing, or a re-crash during the
recovery pass itself), and the stable-storage counters are snapshotted
around ``recover()`` to count the pages and records recovery touches.
Expected shape: the WAL manager pays the largest restart bill (log scan +
truncation across three logs); shadow paging and version selection restart
almost for free; a re-crash never costs more than double a single pass.
"""

from typing import Any, Dict

from benchmarks._harness import BENCH_SEED
from repro.bench import Grid, GridResult
from repro.faults import (
    ARCHITECTURES,
    FaultKind,
    FaultPlan,
    FaultSpec,
    generate_ops,
    recover_with_recrash,
    run_prefix,
)

#: fault label -> plan factory (the harness's hook grammar; docs/FAULTS.md).
FAULT_TYPES = ("clean-crash", "mid-commit", "recrash")

#: Each manager's commit hooks.  A trailing ``*`` is a plain prefix match,
#: so the family must be spelled out: ``"*.commit.*"`` matches no hook.
COMMIT_HOOKS = {
    "command": "cmd.commit.*",
    "differential": "diff.commit.*",
    "overwrite": "overwrite.commit.*",
    "redo": "redo.commit.*",
    "shadow": "shadow.commit.*",
    "versions": "versions.commit.*",
    "wal": "wal.commit.*",
}


def _fault_plan(arch: str, fault: str, seed: int) -> FaultPlan:
    if fault == "mid-commit":
        return FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook=COMMIT_HOOKS[arch], occurrence=3), seed=seed
        )
    return FaultPlan.of(
        FaultSpec(FaultKind.CRASH, hook="op-boundary", occurrence=20), seed=seed
    )


def fault_recovery_cell(params: Dict[str, Any], seed: int) -> Dict[str, int]:
    """Run the seeded workload to the fault, recover, count the work."""
    arch, fault = params["architecture"], params["fault"]
    ops = generate_ops(seed, n_transactions=12)
    manager, *_, crashed_at, _ = run_prefix(arch, ops, _fault_plan(arch, fault, seed))
    if crashed_at is None:
        raise AssertionError(f"{arch}/{fault}: the planned crash never fired")
    stable = manager.stable
    before = (stable.page_writes, stable.page_reads, stable.records_appended)
    if fault == "recrash":
        recover_with_recrash(manager)
    else:
        manager.recover()
    return {
        "page_writes": stable.page_writes - before[0],
        "page_reads": stable.page_reads - before[1],
        "records": stable.records_appended - before[2],
    }


def fault_recovery_check(result: GridResult) -> None:
    """WAL pays the larger restart bill; a re-crash at most doubles it.

    Paper (Section 3):
      'a recovery mechanism may make collection of recovery data
       relatively less expensive at the price of making recovery
       from failures costly'
    """

    def work(arch, fault):
        return result.cell(architecture=arch, fault=fault).metrics

    # The WAL restart (scan + two-phase truncation of three logs) touches
    # more stable records than the shadow restart, which only drops the
    # alternate table.
    wal = work("wal", "clean-crash")
    shadow = work("shadow", "clean-crash")
    assert wal["records"] + wal["page_writes"] >= shadow["records"] + shadow["page_writes"]
    # A crash during recovery at most doubles the single-pass bill.
    for arch in sorted(ARCHITECTURES):
        single = work(arch, "clean-crash")
        double = work(arch, "recrash")
        assert double["page_writes"] <= 2 * max(single["page_writes"], 1) + 2, arch


GRID = Grid(
    name="ablation_fault_recovery",
    title="Ablation: stable-storage work during recovery, by fault type",
    seed=BENCH_SEED,
    runner=fault_recovery_cell,
    check=fault_recovery_check,
    parameters={
        "architecture": sorted(ARCHITECTURES),
        "fault": list(FAULT_TYPES),
    },
    primary_metric="page_writes",
)
