"""Open-system traffic generation and overload sweeps.

The paper evaluates its recovery architectures under a *closed batch*:
every transaction exists at time zero and the multiprogramming level
paces the run.  This package supplies the open-system complement —
seeded arrival processes (Poisson and diurnal, with scripted spikes), a
runner that offers them to the machine's admission-controlled
:meth:`~repro.machine.machine.DatabaseMachine.run_open` mode, and the
``repro loadtest`` sweep harness that plots goodput against offered load
and locates the overload collapse knee per architecture, healthy or
degraded.
"""

from repro.loadgen.arrivals import (
    ArrivalConfig,
    ArrivalSchedule,
    Spike,
    generate_arrivals,
)
from repro.loadgen.loadtest import (
    LoadCell,
    LoadTestReport,
    calibrate,
    run_loadtest,
    sweep_architectures,
)
from repro.loadgen.runner import OpenRunResult, run_open_load

__all__ = [
    "ArrivalConfig",
    "ArrivalSchedule",
    "LoadCell",
    "LoadTestReport",
    "OpenRunResult",
    "Spike",
    "calibrate",
    "generate_arrivals",
    "run_loadtest",
    "run_open_load",
    "sweep_architectures",
]
