"""The simulated testbed the survive, scrub and load harnesses share:
one architecture's degraded-mode variant on a parallel-disk machine,
one fixed seeded workload, and the scenario's faults armed."""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.machine.config import MachineConfig
from repro.machine.machine import DatabaseMachine
from repro.registry import machine_overrides, survive_factory
from repro.sim.rng import RandomStreams
from repro.workload.generator import WorkloadConfig, generate_transactions
from repro.workload.transaction import Transaction

__all__ = ["build_survive_machine"]

#: The workload stream's seed, fixed apart from the machine seed so every
#: architecture, scenario and sweep cell is offered the same transactions.
_WORKLOAD_SEED = 7
#: Transaction-size cap that keeps harness runs CI-sized.
_MAX_PAGES = 60


def build_survive_machine(
    arch: str,
    seed: int,
    n_transactions: int,
    specs: Sequence[FaultSpec] = (),
    **overrides: Any,
) -> Tuple[DatabaseMachine, List[Transaction]]:
    """A harness machine for crashtest name ``arch`` plus its workload.

    Config overrides apply in order: parallel data disks and ``seed``,
    then the registry's per-architecture overrides, then ``overrides``.
    With ``specs``, a :class:`FaultInjector` for them is built and armed.
    """
    config = MachineConfig().with_overrides(
        **{"seed": seed, "parallel_data_disks": True,
           **machine_overrides(arch), **overrides}
    )
    transactions = generate_transactions(
        WorkloadConfig(n_transactions=n_transactions, max_pages=_MAX_PAGES),
        config.db_pages,
        RandomStreams(_WORKLOAD_SEED).stream("workload"),
    )
    injector = FaultInjector(FaultPlan.of(*specs, seed=seed)) if specs else None
    machine = DatabaseMachine(config, survive_factory(arch)(), faults=injector)
    if injector is not None:
        injector.arm(machine)
    return machine, transactions
