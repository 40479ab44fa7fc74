"""A finished run frees itself by reference counting alone.

Processes still suspended when a run ends (idle disk servers, patrol and
probe timers) keep the simulation environment alive in a small cycle.
``DatabaseMachine`` therefore binds every back-reference the environment
can reach — ``env.tracer`` and each helper's ``machine`` — only while a
run lasts, so dropping the machine and its tracer frees both at once,
with the cyclic collector switched off.  An armed fault injector is
such a helper too, so a timed fault still pending when the run ends
keeps nothing of the run alive.  A run halted by a crash is not covered
here.
"""

import gc
import weakref

import pytest

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.registry import REGISTRY, machine_overrides
from repro.resilience import HealthMonitor, Scrubber
from repro.sim import RandomStreams
from repro.trace import Tracer
from repro.workload import TransactionStatus


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _machine(name: str, tracer: Tracer, **overrides) -> DatabaseMachine:
    config = MachineConfig(
        seed=1985, parallel_data_disks=True, **machine_overrides(name), **overrides
    )
    return DatabaseMachine(config, REGISTRY[name].sim(), tracer=tracer)


def _transactions(machine: DatabaseMachine, seed: int = 7):
    return generate_transactions(
        WorkloadConfig(n_transactions=6, max_pages=20),
        machine.config.db_pages,
        RandomStreams(seed).stream("workload"),
    )


def _run_and_watch(machine: DatabaseMachine, tracer: Tracer, mode: str, seed: int = 7):
    """Run traced in ``mode``; weak references to the machine and tracer."""
    transactions = _transactions(machine, seed)
    if mode == "run":
        result = machine.run(transactions)
    else:
        result = machine.run_open(transactions, [5.0 * i for i in range(6)])
    assert result.n_transactions == 6
    assert machine.tracer is tracer and tracer.spans
    return weakref.ref(machine), weakref.ref(tracer)


@pytest.mark.parametrize("mode", ["run", "run_open"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_finished_traced_run_is_freed_without_a_collection(name, mode, no_cyclic_gc):
    tracer = Tracer()
    machine = _machine(name, tracer)
    refs = _run_and_watch(machine, tracer, mode)
    del machine, tracer
    assert [ref() is None for ref in refs] == [True, True]


@pytest.mark.parametrize("mode", ["run", "run_open"])
def test_mirrored_scrubbed_monitored_run_is_freed(mode, no_cyclic_gc):
    """The scrub patrol and the health probes outlive the run; with this
    workload both runs end mid-pass and mid-probe-transfer, and neither
    suspended frame may keep the run alive."""
    tracer = Tracer()
    machine = _machine("wal", tracer, mirrored_data_disks=True, scrub_enabled=True)
    Scrubber(machine)
    HealthMonitor(machine)
    refs = _run_and_watch(machine, tracer, mode, seed=16)
    open_names = {span.name for span in tracer.open_spans()}
    assert {"scrub.pass", "link.transfer"} <= open_names
    del machine, tracer
    assert [ref() is None for ref in refs] == [True, True]


@pytest.mark.parametrize("mode", ["run", "run_open"])
def test_run_with_an_unfired_timed_fault_is_freed(mode, no_cyclic_gc):
    """A timed crash due long after the load finishes is still pending
    when the run ends; its process may not keep the run alive."""
    injector = FaultInjector(FaultPlan.of(FaultSpec(FaultKind.CRASH, at_time=1e9)))
    tracer = Tracer()
    config = MachineConfig(seed=1985, parallel_data_disks=True, **machine_overrides("wal"))
    machine = DatabaseMachine(config, REGISTRY["wal"].sim(), tracer=tracer, faults=injector)
    injector.arm(machine)
    refs = _run_and_watch(machine, tracer, mode)
    assert not machine.crashed and injector.fired == []
    assert injector.machine is None
    del machine, tracer
    assert [ref() is None for ref in refs] == [True, True]


def test_back_references_are_bound_only_while_running():
    machine = _machine("wal", Tracer())
    machine.run(_transactions(machine))
    assert machine.arch.machine is None and machine.env.tracer is None
    second = _transactions(machine, seed=8)
    machine.run(second)
    assert all(t.status is TransactionStatus.COMMITTED for t in second)
    assert machine.arch.machine is None and machine.env.tracer is None
