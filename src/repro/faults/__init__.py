"""Deterministic fault injection and the crash-recovery harness.

``plan`` declares *what* fails and *when* (:class:`FaultPlan`), ``injector``
fires the faults at runtime (:class:`FaultInjector`), and ``harness``
sweeps whole-machine crashes across every hook crossing of a seeded
workload, verifying atomicity and durability against a committed-prefix
oracle.  See docs/FAULTS.md for the taxonomy and hook-point catalogue.
"""

from repro.faults.harness import (
    ARCHITECTURES,
    CrashTestReport,
    DEFAULT_CHECKPOINT_EVERY,
    ScenarioResult,
    apply_op,
    generate_ops,
    make_manager,
    recover_with_recrash,
    run_crashtest,
    run_prefix,
    run_scenario,
    state_dump,
)
from repro.faults.injector import FaultInjector, InjectedCrash
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

__all__ = [
    "ARCHITECTURES",
    "CrashTestReport",
    "DEFAULT_CHECKPOINT_EVERY",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "ScenarioResult",
    "apply_op",
    "generate_ops",
    "make_manager",
    "recover_with_recrash",
    "run_crashtest",
    "run_prefix",
    "run_scenario",
    "state_dump",
]
