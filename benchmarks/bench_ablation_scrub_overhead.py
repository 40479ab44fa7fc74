"""Ablation: what the online integrity scrubber costs and buys.

The scrubber (docs/INTEGRITY.md) patrols every data-disk cylinder on a
bounded I/O share, detecting silently rotted sectors before foreground
reads can trust them.  This ablation sweeps the patrol on/off, the I/O
share, and the rot rate on scrubtest's mirrored small-drive testbed:

* **clean overhead** — with no rot, the patrol's reads compete with
  foreground I/O; the makespan penalty must stay small (the throttle
  argument — asserted below);
* **coverage** — under ``BIT_ROT`` faults, every rotted sector the
  patrol reaches is detected and repaired; with the patrol off the rot
  just accumulates (detections stay zero).
"""

from typing import Any, Dict

from benchmarks._harness import BENCH_SEED
from repro.bench import Grid, GridResult
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.machine import MachineConfig
from repro.registry import survive_factory
from repro.resilience import Scrubber
from repro.resilience.scrubtest import (
    SIM_DB_PAGES,
    SIM_DISK,
    SIM_RESERVED_CYLINDERS,
)
from repro.sim import RandomStreams
from repro.machine.machine import DatabaseMachine
from repro.workload.generator import WorkloadConfig, generate_transactions


def scrub_cell(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    scrub_on = params["scrub"] == "on"
    config = MachineConfig().with_overrides(
        seed=seed,
        parallel_data_disks=True,
        mirrored_data_disks=True,
        scrub_enabled=scrub_on,
        scrub_io_share=params["io_share"],
        scrub_interval_ms=5.0,
        disk=SIM_DISK,
        reserved_cylinders=SIM_RESERVED_CYLINDERS,
        db_pages=SIM_DB_PAGES,
    )
    transactions = generate_transactions(
        WorkloadConfig(n_transactions=10, max_pages=60),
        config.db_pages,
        RandomStreams(seed).stream("workload"),
    )
    faults = None
    if params["rot"] > 0.0:
        faults = FaultInjector(
            FaultPlan.of(
                FaultSpec(FaultKind.BIT_ROT, probability=params["rot"]),
                seed=seed,
            )
        )
    machine = DatabaseMachine(config, survive_factory("wal")(), faults=faults)
    if faults is not None:
        faults.arm(machine)
    if scrub_on:
        Scrubber(machine)
    result = machine.run(transactions)
    counters = result.counters
    return {
        "makespan_ms": result.makespan_ms,
        "scrub_detections": float(counters.get("scrub_detections", 0)),
        "scrub_repairs": float(counters.get("scrub_repairs", 0)),
    }


def scrub_check(result: GridResult) -> None:
    """The throttled patrol costs little and repairs all it detects.

    Model (docs/INTEGRITY.md):
      the scrubber patrols at a bounded I/O share, so a corruption-
      free run pays only a small makespan overhead, while under bit
      rot every sector the patrol reaches is detected and repaired.
    """

    def makespan(**kw):
        return result.metric("makespan_ms", **kw)

    # The scrub-off cells ignore the io_share axis: identical machines.
    for rot in (0.0, 0.05):
        assert makespan(scrub="off", io_share=0.1, rot=rot) == makespan(
            scrub="off", io_share=0.5, rot=rot
        )
    # Clean-run overhead bound: the throttled patrol costs < 10% makespan.
    for share in (0.1, 0.5):
        off = makespan(scrub="off", io_share=share, rot=0.0)
        on = makespan(scrub="on", io_share=share, rot=0.0)
        assert on < 1.10 * off, f"scrub overhead at share {share}: {on / off:.3f}x"
    # No rot, no detections — the zero-false-positive half.
    for share in (0.1, 0.5):
        assert result.metric(
            "scrub_detections", scrub="on", io_share=share, rot=0.0
        ) == 0.0
    # Under rot the patrol detects and repairs what it finds, in equal
    # measure; with the patrol off nothing is even detected.
    detected = result.metric(
        "scrub_detections", scrub="on", io_share=0.5, rot=0.05
    )
    assert detected == result.metric(
        "scrub_repairs", scrub="on", io_share=0.5, rot=0.05
    )
    assert (
        result.metric("scrub_detections", scrub="off", io_share=0.5, rot=0.05)
        == 0.0
    )


GRID = Grid(
    name="ablation_scrub_overhead",
    title="Ablation: scrubber overhead and coverage (on/off x share x rot)",
    seed=BENCH_SEED,
    runner=scrub_cell,
    check=scrub_check,
    parameters={
        "scrub": ["off", "on"],
        "io_share": [0.1, 0.5],
        "rot": [0.0, 0.05],
    },
    primary_metric="makespan_ms",
)
