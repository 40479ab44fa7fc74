"""Shared machinery for running the paper's experiment configurations."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro.core.base import RecoveryArchitecture
from repro.machine.config import MachineConfig
from repro.machine.machine import DatabaseMachine
from repro.metrics.collectors import RunResult
from repro.sim.rng import RandomStreams
from repro.workload.generator import WorkloadConfig, generate_transactions

__all__ = [
    "CONFIGURATIONS",
    "Configuration",
    "ExperimentSettings",
    "run_configuration",
]


@dataclass(frozen=True)
class Configuration:
    """One of the paper's four named machine/workload configurations."""

    name: str
    parallel_disks: bool
    sequential: bool


#: The four configurations of Section 4.
CONFIGURATIONS: Dict[str, Configuration] = {
    "conventional-random": Configuration("conventional-random", False, False),
    "parallel-random": Configuration("parallel-random", True, False),
    "conventional-sequential": Configuration("conventional-sequential", False, True),
    "parallel-sequential": Configuration("parallel-sequential", True, True),
}


@dataclass(frozen=True)
class ExperimentSettings:
    """Run-size and seed shared by the table experiments.

    ``n_transactions=30`` keeps a full table under a minute while leaving
    the paper's shapes intact; raise it for tighter confidence intervals.
    """

    n_transactions: int = 30
    seed: int = 1985
    workload_seed: int = 7
    machine: MachineConfig = MachineConfig()

    def with_overrides(self, **kwargs) -> "ExperimentSettings":
        return replace(self, **kwargs)


def run_configuration(
    configuration: Configuration,
    architecture: Optional[Callable[[], RecoveryArchitecture]] = None,
    settings: Optional[ExperimentSettings] = None,
    machine_overrides: Optional[dict] = None,
    workload_overrides: Optional[dict] = None,
    tracer=None,
) -> RunResult:
    """Run one (configuration, architecture) cell and return its metrics.

    ``architecture`` is a zero-argument factory (architectures are stateful
    and bind to one machine); ``None`` runs the bare machine.  The workload
    is generated from a stream independent of the machine's, so every
    architecture sees the *same* transactions — the common-random-numbers
    discipline that makes cells comparable.

    ``tracer`` is an optional :class:`repro.trace.Tracer`; tracing records
    synchronously and perturbs nothing, so the returned metrics are
    identical with or without it.
    """
    settings = settings or ExperimentSettings()
    machine_config = settings.machine.with_overrides(
        parallel_data_disks=configuration.parallel_disks,
        seed=settings.seed,
        **(machine_overrides or {}),
    )
    workload_config = WorkloadConfig(
        n_transactions=settings.n_transactions,
        sequential=configuration.sequential,
        **(workload_overrides or {}),
    )
    transactions = generate_transactions(
        workload_config,
        machine_config.db_pages,
        RandomStreams(settings.workload_seed).stream("workload"),
    )
    machine = DatabaseMachine(
        machine_config,
        architecture() if architecture is not None else None,
        tracer=tracer,
    )
    return machine.run(transactions)
