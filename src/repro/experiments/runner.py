"""Shared machinery for running the paper's experiment configurations."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from repro.core.base import RecoveryArchitecture
from repro.machine.config import MachineConfig
from repro.machine.machine import DatabaseMachine
from repro.metrics.collectors import RunResult
from repro.sim.rng import RandomStreams
from repro.workload.generator import WorkloadConfig, generate_transactions

__all__ = [
    "BARE",
    "CONFIGURATIONS",
    "Arch",
    "Cell",
    "Configuration",
    "ExperimentSettings",
    "run_cells",
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


@dataclass(frozen=True)
class Arch:
    """An architecture as a value: its class (``None``: the bare machine),
    the config its constructor takes (``None``: none), and the machine and
    workload overrides its runs use, kept as sorted item tuples so equal
    declarations compare and hash equal."""

    cls: Optional[Callable[..., RecoveryArchitecture]] = None
    config: Any = None
    machine: Tuple[Tuple[str, Any], ...] = ()
    workload: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        for name in ("machine", "workload"):
            items = sorted(dict(getattr(self, name)).items())
            object.__setattr__(self, name, tuple(items))


BARE = Arch()


class Cell(NamedTuple):
    """One simulation: a configuration name and an architecture."""

    configuration: str
    arch: Arch = BARE


def run_cells(
    cells: Iterable[Cell], settings: Optional[ExperimentSettings] = None
) -> Dict[Cell, RunResult]:
    """Run each distinct cell once, in first-seen order: ``{cell: result}``.
    Each run seeds its own machine and workload, so a cell shared by
    several tables gives each the result a run of its own would."""
    results: Dict[Cell, RunResult] = {}
    for cell in cells:
        if cell not in results:
            arch = cell.arch
            results[cell] = run_configuration(
                CONFIGURATIONS[cell.configuration],
                arch.cls if arch.config is None else partial(arch.cls, arch.config),
                settings,
                machine_overrides=dict(arch.machine),
                workload_overrides=dict(arch.workload),
            )
    return results
