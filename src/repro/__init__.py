"""repro — a reproduction of Agrawal & DeWitt's *Recovery Architectures for
Multiprocessor Database Machines* (SIGMOD 1985).

The package contains:

* :mod:`repro.sim` — a generator-based discrete-event simulation kernel;
* :mod:`repro.hardware` — 1985-era disk / CPU / interconnect models;
* :mod:`repro.machine` — the multiprocessor-cache database machine;
* :mod:`repro.workload` — the paper's transaction model;
* :mod:`repro.core` — the recovery architectures (the paper's contribution);
* :mod:`repro.storage` — a functional crash-recovery engine implementing
  the actual algorithms (WAL without log merging, shadow page tables,
  overwriting rings, version selection, differential files);
* :mod:`repro.experiments` — one catalogue declaring every paper table.

Quickstart::

    from repro import DatabaseMachine, MachineConfig
    from repro.core import ParallelLoggingArchitecture
    from repro.workload import WorkloadConfig, generate_transactions
    from repro.sim import RandomStreams

    config = MachineConfig()
    machine = DatabaseMachine(config, ParallelLoggingArchitecture())
    txns = generate_transactions(
        WorkloadConfig(n_transactions=20),
        config.db_pages,
        RandomStreams(7).stream("workload"),
    )
    result = machine.run(txns)
    print(result.summary())
"""

from repro.machine.config import MachineConfig
from repro.machine.machine import DatabaseMachine
from repro.metrics.collectors import RunResult
from repro.workload.generator import WorkloadConfig, generate_transactions

__version__ = "1.0.0"

__all__ = [
    "DatabaseMachine",
    "MachineConfig",
    "RunResult",
    "WorkloadConfig",
    "generate_transactions",
    "__version__",
]
