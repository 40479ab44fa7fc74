"""The three host-speed workloads: ``paper-batch``, ``crash-sweep``, ``traced-open``.

A workload turns the benchmark seed into an endless sequence of *passes*.
``inputs(seed, index, recorder)`` generates everything pass ``index``
needs (transactions, arrival schedules, op scripts); ``units(inputs)`` then
yields the pass's units — one table cell, one crash scenario, one traced
open run — which a single caller runs back to back (a closed loop).

Every unit calls public entry points only and returns a
:class:`UnitResult`.  Its ``output`` holds the unit's simulated results;
they are deterministic, so the pass digest built from them must not move
when only host speed changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Tuple

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.checkpoint import CheckpointUnsupported
from repro.faults import (
    ARCHITECTURES,
    DEFAULT_CHECKPOINT_EVERY,
    FaultKind,
    FaultPlan,
    FaultSpec,
    generate_ops,
    make_manager,
    run_scenario,
    state_dump,
)
from repro.loadgen.arrivals import ArrivalConfig, generate_arrivals
from repro.loadgen.runner import score_open_run
from repro.registry import REGISTRY, machine_overrides
from repro.sim.rng import RandomStreams
from repro.trace import Tracer, aggregate_breakdown, to_chrome_trace, validate_chrome_trace
from repro.workload.transaction import TransactionStatus

__all__ = ["WORKLOADS", "Unit", "UnitResult", "Workload", "pass_digest"]


@dataclasses.dataclass
class UnitResult:
    """What one unit produced, in simulated terms."""

    #: Committed transactions this unit contributes to ``txn_per_s``.
    txns: int = 0
    #: One line per correctness failure.
    failures: List[str] = dataclasses.field(default_factory=list)
    #: The deterministic simulated results the pass digest folds in.
    output: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Public result counters the traced run reports per layer.
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)


class Unit(NamedTuple):
    """One timed call sequence.

    ``scenario`` units feed ``scenarios_per_s`` and ``scenario_ms_*``;
    ``txn`` units feed ``txn_per_s``.  ``run`` takes the span recorder.
    """

    uid: str
    run: Callable[[Any], UnitResult]
    scenario: bool = True
    txn: bool = True


class Workload(NamedTuple):
    name: str
    #: ``inputs(seed, index, recorder)`` -> pass ``index``'s generated inputs.
    inputs: Callable[[int, int, Any], Any]
    #: ``units(inputs)`` -> the pass's units, in run order.
    units: Callable[[Any], Iterator[Unit]]


def pass_digest(outputs: List[Tuple[str, Dict[str, Any]]]) -> str:
    """sha256 over the units' simulated outputs, in pass order."""
    hasher = hashlib.sha256()
    for uid, output in outputs:
        hasher.update(uid.encode())
        hasher.update(json.dumps(output, sort_keys=True).encode())
    return hasher.hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sub_seed(seed: int, name: str) -> int:
    """A per-pass, per-architecture seed derived from the benchmark seed."""
    return RandomStreams(seed).stream(name).getrandbits(31)


# -- paper-batch --------------------------------------------------------------
#: The paper's Section-4 configurations the batch covers: (name, parallel
#: data disks, sequential reference strings).
PAPER_CONFIGS = (
    ("conventional-random", False, False),
    ("parallel-sequential", True, True),
)
#: Transactions per table cell; U(1, 250) pages each, 20% written.
CELL_TRANSACTIONS = 5


def _paper_inputs(seed: int, index: int, rec) -> list:
    cells = []
    for config, parallel, sequential in PAPER_CONFIGS:
        for arch in REGISTRY:
            machine_config = MachineConfig().with_overrides(
                parallel_data_disks=parallel, seed=seed, **machine_overrides(arch)
            )
            with rec.span("workload.generate"):
                transactions = generate_transactions(
                    WorkloadConfig(n_transactions=CELL_TRANSACTIONS, sequential=sequential),
                    machine_config.db_pages,
                    RandomStreams(seed).stream(f"paper-batch.p{index}.{config}.{arch}"),
                )
            cells.append((f"p{index}/{config}/{arch}", arch, machine_config, transactions))
    return cells


def _run_cell(arch, machine_config, transactions, rec) -> UnitResult:
    with rec.span("machine.build"):
        machine = DatabaseMachine(machine_config, REGISTRY[arch].sim())
    with rec.span("machine.run"):
        result = machine.run(transactions)
    out = UnitResult(output=dataclasses.asdict(result))
    out.counters["machine.restarts"] = result.n_restarts
    out.txns = sum(t.status is TransactionStatus.COMMITTED for t in transactions)
    if out.txns != len(transactions):
        out.failures.append(f"{len(transactions) - out.txns} transactions left uncommitted")
    if machine.completions.n != result.n_transactions:
        out.failures.append(
            f"{machine.completions.n} completion samples for {result.n_transactions} transactions"
        )
    return out


def _paper_units(cells) -> Iterator[Unit]:
    for uid, arch, machine_config, transactions in cells:
        yield Unit(uid, lambda rec, a=(arch, machine_config, transactions): _run_cell(*a, rec))


# -- crash-sweep --------------------------------------------------------------
#: Transactions in each crash scenario's op script (the crashtest default).
SCENARIO_TRANSACTIONS = 10
#: Transactions in the fault-free script replayed call by call through
#: each manager's public API (the functional ``txn_per_s`` and the
#: ``storage.*`` per-call latencies).
REPLAY_TRANSACTIONS = 100
#: Pages the op scripts write (the crashtest default).
SCRIPT_PAGES = 6


def _crash_inputs(seed: int, index: int, rec) -> list:
    scripts = []
    for arch in sorted(ARCHITECTURES):
        script_seed = _sub_seed(seed, f"crash-sweep.p{index}.{arch}")
        with rec.span("workload.generate"):
            ops = generate_ops(
                script_seed,
                REPLAY_TRANSACTIONS,
                SCRIPT_PAGES,
                checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
            )
        scripts.append((f"p{index}/{arch}", arch, script_seed, ops))
    return scripts


def _replay(arch: str, ops: List[Tuple], rec) -> UnitResult:
    """Drive one op script through ``make_manager(arch)``, call by call,
    then crash, recover and check the committed state survived."""
    manager = make_manager(arch)
    tids: Dict[int, int] = {}
    pending: Dict[int, Dict[int, bytes]] = {}
    committed: Dict[int, bytes] = {}
    out = UnitResult()
    for op in ops:
        kind = op[0]
        with rec.span("storage." + kind):
            if kind == "begin":
                tids[op[1]] = manager.begin()
                pending[op[1]] = {}
            elif kind == "write":
                manager.write(tids[op[1]], op[2], op[3])
                pending[op[1]][op[2]] = op[3]
            elif kind == "commit":
                manager.commit(tids.pop(op[1]))
                committed.update(pending.pop(op[1]))
                out.txns += 1
            elif kind == "abort":
                manager.abort(tids.pop(op[1]))
                pending.pop(op[1])
            elif kind == "flush":
                flush = getattr(manager, "flush_page", None)
                if flush is not None:
                    flush(op[1])
            elif kind == "checkpoint":
                try:
                    manager.take_checkpoint()
                except CheckpointUnsupported:
                    pass
            else:
                raise ValueError(f"unknown op {op!r}")
    with rec.span("storage.crash"):
        manager.crash()
    with rec.span("storage.recover"):
        manager.recover()
    for page in range(SCRIPT_PAGES):
        got = manager.read_committed(page)
        if got != committed.get(page, b""):
            out.failures.append(f"page {page} recovered as {got!r}")
    out.output = {"commits": out.txns, "state": _sha(state_dump(manager))}
    return out


def _run_crash(arch: str, seed: int, plan: FaultPlan, crossings: Dict[str, int]) -> UnitResult:
    result = run_scenario(arch, seed, plan, n_transactions=SCENARIO_TRANSACTIONS,
                          n_pages=SCRIPT_PAGES)
    if not plan.specs:
        crossings[arch] = result.crossings
    return UnitResult(
        failures=[f"{v['kind']}: {v['detail']}" for v in result.violations],
        output={
            "outcome": result.outcome,
            "crashed_at": list(result.crashed_at) if result.crashed_at else None,
            "crossings": result.crossings,
            "state": _sha(result.dump),
        },
    )


def _crash_units(scripts) -> Iterator[Unit]:
    for uid, arch, _seed, ops in scripts:
        yield Unit(uid + "/replay", lambda rec, a=arch, o=ops: _replay(a, o, rec),
                   scenario=False)
    # The fault-free scenario counts each script's hook crossings; then every
    # crossing becomes one crash scenario, round-robin over the managers so a
    # run cut mid-pass still samples all of them.
    crossings: Dict[str, int] = {}
    for uid, arch, seed, _ops in scripts:
        plan = FaultPlan.of(seed=seed)
        yield Unit(uid + "/0", lambda rec, a=(arch, seed, plan): _run_crash(*a, crossings),
                   txn=False)
    point = 1
    while any(point <= n for n in crossings.values()):
        for uid, arch, seed, _ops in scripts:
            if point <= crossings[arch]:
                plan = FaultPlan.of(
                    FaultSpec(FaultKind.CRASH, hook="*", occurrence=point), seed=seed
                )
                yield Unit(f"{uid}/{point}",
                           lambda rec, a=(arch, seed, plan): _run_crash(*a, crossings),
                           txn=False)
        point += 1


# -- traced-open --------------------------------------------------------------
#: Arrivals per open run; each a transaction of U(1, 60) pages, half written.
OPEN_ARRIVALS = 20
OPEN_WORKLOAD = dict(max_pages=60, write_fraction=0.5)
#: Poisson offered load per architecture, about 0.9x its closed-batch
#: capacity on this load (parallel-access data disks), in simulated tps.
OPEN_RATE_TPS = {
    "bare": 1.1,
    "wal": 1.2,
    "shadow": 0.75,
    "versions": 1.05,
    "overwrite": 1.1,
    "differential": 1.5,
    "command": 1.3,
    "redo": 1.0,
}


def _open_inputs(seed: int, index: int, rec) -> list:
    runs = []
    for arch in REGISTRY:
        machine_config = MachineConfig().with_overrides(
            parallel_data_disks=True, seed=seed, **machine_overrides(arch)
        )
        with rec.span("workload.generate"):
            transactions = generate_transactions(
                WorkloadConfig(n_transactions=OPEN_ARRIVALS, **OPEN_WORKLOAD),
                machine_config.db_pages,
                RandomStreams(seed).stream(f"traced-open.p{index}.{arch}"),
            )
            with rec.span("loadgen.arrivals"):
                schedule = generate_arrivals(
                    ArrivalConfig(rate_tps=OPEN_RATE_TPS[arch], n_arrivals=OPEN_ARRIVALS),
                    RandomStreams(seed).fork(f"traced-open.p{index}.{arch}"),
                )
        runs.append((f"p{index}/{arch}", arch, machine_config, transactions, schedule))
    return runs


def _run_traced_open(arch, machine_config, transactions, schedule, rec) -> UnitResult:
    tracer = Tracer()
    with rec.span("machine.build"):
        machine = DatabaseMachine(machine_config, REGISTRY[arch].sim(), tracer=tracer)
    with rec.span("machine.run_open"):
        result = machine.run_open(
            transactions, schedule.times_ms, spike_times_ms=schedule.spike_starts_ms
        )
    with rec.span("loadgen.score"):
        scored = score_open_run(arch, "healthy", schedule, transactions, result, 0.0)
    with rec.span("trace.analysis"):
        breakdown = aggregate_breakdown(tracer)
    with rec.span("trace.export"):
        events = to_chrome_trace(tracer)
        validate_chrome_trace(events)
        exported = json.dumps(events)
    out = UnitResult(
        txns=scored.committed,
        failures=list(scored.oracle_violations),
        output={
            "result": dataclasses.asdict(result),
            "open": scored.to_dict(),
            "breakdown": breakdown,
            "chrome": _sha(exported),
        },
    )
    out.counters["machine.restarts"] = result.n_restarts
    out.counters["machine.admission_rejected"] = scored.rejected
    out.counters["trace.spans"] = len(tracer.spans)
    return out


def untraced_mismatches(seed: int, outputs: Dict[str, Dict[str, Any]], rec) -> List[str]:
    """Re-run pass 0 of ``traced-open`` untraced; the ``RunResult`` must
    equal the traced run's (tracing perturbs nothing)."""
    failures = []
    for uid, arch, machine_config, transactions, schedule in _open_inputs(seed, 0, rec):
        machine = DatabaseMachine(machine_config, REGISTRY[arch].sim())
        result = machine.run_open(
            transactions, schedule.times_ms, spike_times_ms=schedule.spike_starts_ms
        )
        if dataclasses.asdict(result) != outputs[uid]["result"]:
            failures.append(f"{uid}: untraced RunResult differs from the traced one")
    return failures


def _open_units(runs) -> Iterator[Unit]:
    for uid, arch, machine_config, transactions, schedule in runs:
        args = (arch, machine_config, transactions, schedule)
        yield Unit(uid, lambda rec, a=args: _run_traced_open(*a, rec))


WORKLOADS: Dict[str, Workload] = {
    "paper-batch": Workload("paper-batch", _paper_inputs, _paper_units),
    "crash-sweep": Workload("crash-sweep", _crash_inputs, _crash_units),
    "traced-open": Workload("traced-open", _open_inputs, _open_units),
}
