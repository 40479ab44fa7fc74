"""Crash-recovery correctness harness: crash everywhere, verify recovery.

The harness drives each functional recovery manager through a seeded
workload and injects a whole-machine crash at **every** hook crossing the
run reaches (or a seeded sample under a budget), then runs recovery and
diffs the post-recovery database against a committed-prefix oracle:

* **atomicity** — no effect of an uncommitted transaction survives;
* **durability** — every effect of a committed transaction survives;
* **in-flight commits** — a crash *inside* ``commit`` may land on either
  side of the commit point, so both outcomes are accepted (but nothing in
  between: the transaction's writes appear all-or-nothing);
* **idempotence** — ``crash(); recover()`` again changes nothing;
* **re-crash during recovery** — a second crash at the first recovery
  hook crossing followed by a clean restart converges to the same state.

Every failure is reported with the ``(seed, plan)`` pair that reproduces
it: replay with :func:`run_scenario` or ``repro crashtest --plan``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.checkpoint import CHECKPOINT_FILE, CheckpointUnsupported
from repro.registry import ARCHITECTURES
from repro.sim.rng import RandomStreams
from repro.faults.injector import FaultInjector, InjectedCrash
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.storage.interface import RecoveryManager

__all__ = [
    "ARCHITECTURES",
    "CrashTestReport",
    "DEFAULT_CHECKPOINT_EVERY",
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

DEFAULT_TRANSACTIONS = 10
DEFAULT_PAGES = 6
MAX_CONCURRENT = 3
#: Checkpoint cadence the sweep uses (ops between ("checkpoint",) ops),
#: so crash-during-checkpoint and recover-from-checkpoint are always in
#: the sampled hook population.
DEFAULT_CHECKPOINT_EVERY = 9


def make_manager(arch: str) -> RecoveryManager:
    try:
        return ARCHITECTURES[arch]()
    except KeyError:
        raise ValueError(
            f"unknown architecture {arch!r}; pick one of {sorted(ARCHITECTURES)}"
        ) from None


# -- workload generation ------------------------------------------------------
def generate_ops(
    seed: int,
    n_transactions: int = DEFAULT_TRANSACTIONS,
    n_pages: int = DEFAULT_PAGES,
    max_concurrent: int = MAX_CONCURRENT,
    checkpoint_every: Optional[int] = None,
) -> List[Tuple]:
    """A deterministic operation script (same seed -> same script).

    Ops are ``("begin", slot)``, ``("write", slot, page, value)``,
    ``("flush", page)`` (steal; no-op for managers without a buffer pool),
    ``("commit", slot)`` and ``("abort", slot)``.  Lock discipline is
    respected: no page is written by two concurrently active slots.

    With ``checkpoint_every``, a ``("checkpoint",)`` op is woven in after
    every that-many transaction ops, plus one final op once every
    transaction is resolved (guaranteed quiescent, so even the quiescent
    policy gets real coverage).  Weaving is a post-pass: the transaction
    script for a seed is identical with and without checkpoints.
    """
    rng = RandomStreams(seed).stream("crashtest.workload")
    ops: List[Tuple] = []
    locked: Dict[int, List[int]] = {}  # active slot -> pages it locked
    next_slot = 0
    started = 0
    value = 0
    while started < n_transactions or locked:
        choices = []
        if started < n_transactions and len(locked) < max_concurrent:
            choices.extend(["begin", "begin"])
        if locked:
            choices.extend(["write", "write", "write", "commit", "commit",
                            "abort", "flush"])
        action = rng.choice(choices)
        if action == "begin":
            locked[next_slot] = []
            ops.append(("begin", next_slot))
            started += 1
            next_slot += 1
        elif action == "write":
            slot = rng.choice(sorted(locked))
            held_elsewhere = [
                p for s in sorted(locked) if s != slot for p in locked[s]
            ]
            free = [p for p in range(n_pages) if p not in held_elsewhere]
            if not free:
                continue
            page = rng.choice(free)
            value += 1
            ops.append(("write", slot, page, b"v%d" % value))
            if page not in locked[slot]:
                locked[slot].append(page)
        elif action == "flush":
            slot = rng.choice(sorted(locked))
            if not locked[slot]:
                continue
            ops.append(("flush", rng.choice(sorted(locked[slot]))))
        else:  # commit / abort
            slot = rng.choice(sorted(locked))
            ops.append((action, slot))
            del locked[slot]
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        woven: List[Tuple] = []
        for index, op in enumerate(ops, start=1):
            woven.append(op)
            if index % checkpoint_every == 0:
                woven.append(("checkpoint",))
        woven.append(("checkpoint",))
        return woven
    return ops


@functools.lru_cache(maxsize=64)
def _script(
    seed: int, n_transactions: int, n_pages: int, checkpoint_every: Optional[int]
) -> Tuple[Tuple, ...]:
    """:func:`generate_ops`, built once per distinct script: a crash sweep
    replays the same seeded script for every crash point.  A tuple, so no
    caller can edit the shared copy."""
    return tuple(generate_ops(seed, n_transactions, n_pages,
                              checkpoint_every=checkpoint_every))


# -- state inspection ---------------------------------------------------------
def state_dump(manager: RecoveryManager) -> str:
    """A canonical text rendering of everything on stable storage.

    Byte-identical across runs with the same seed and plan (the
    determinism acceptance check hashes these).
    """
    stable = manager.stable
    lines = []
    for page, data in sorted(stable.pages.items()):
        lines.append(f"page {page} seq={stable.page_seq(page)} data={data!r}")
    for file in stable.files():
        lines.append(f"file {file}: {stable.read_file(file)!r}")
    return "\n".join(lines)


# -- one scenario -------------------------------------------------------------
@dataclass
class ScenarioResult:
    """Outcome of one (seed, plan) crash scenario against one manager."""

    architecture: str
    plan: FaultPlan
    crashed_at: Optional[Tuple[str, int]]  # (hook, crossing) or None
    outcome: str  # "no-crash" | "rolled-back" | "committed" | "violation"
    violations: List[Dict[str, Any]] = field(default_factory=list)
    dump: str = ""
    crossings: int = 0
    #: Completed (non-skipped) checkpoints before the crash.
    checkpoints_completed: int = 0
    #: Distinct hook names crossed before the crash (coverage map).
    hooks: List[str] = field(default_factory=list)
    #: Ordered recovery-phase hook crossings of the (plain) recovery pass
    #: — the restart timeline the crash report surfaces.
    recovery_timeline: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def apply_op(manager, op, tids, committed, pending, checkpoints=None) -> None:
    """Apply one :func:`generate_ops` op to ``manager``, tracking the oracle.

    ``tids`` maps script slots to live transaction ids, ``pending`` each
    active slot's uncommitted writes and ``committed`` the committed
    prefix; a commit moves the slot's writes from one to the other.
    Completed (non-skipped) checkpoints are appended to ``checkpoints``.
    """
    kind = op[0]
    if kind == "checkpoint":
        try:
            stats = manager.take_checkpoint()
        except CheckpointUnsupported:
            return  # manager opted out; the script op is a no-op
        if checkpoints is not None and not stats.skipped:
            checkpoints.append(stats)
        return
    if kind == "begin":
        slot = op[1]
        tids[slot] = manager.begin()
        pending[slot] = {}
    elif kind == "write":
        _kind, slot, page, data = op
        manager.write(tids[slot], page, data)
        pending[slot][page] = data
    elif kind == "flush":
        flush = getattr(manager, "flush_page", None)
        if flush is not None:
            flush(op[1])
    elif kind == "commit":
        slot = op[1]
        manager.commit(tids[slot])
        committed.update(pending.pop(slot))
        del tids[slot]
    elif kind == "abort":
        slot = op[1]
        manager.abort(tids[slot])
        pending.pop(slot)
        del tids[slot]
    else:
        raise ValueError(f"unknown op {op!r}")


def _violation(
    kind: str,
    arch: str,
    plan: FaultPlan,
    crashed_at: Optional[Tuple[str, int]],
    detail: str,
) -> Dict[str, Any]:
    """One violation record: what broke, and the (seed, plan) replaying it."""
    return {
        "kind": kind,
        "architecture": arch,
        "seed": plan.seed,
        "hook": crashed_at[0] if crashed_at else None,
        "crossing": crashed_at[1] if crashed_at else None,
        "detail": detail,
        "plan": plan.to_json(),
    }


def _verify(
    arch: str,
    plan: FaultPlan,
    actual: Dict[int, bytes],
    committed: Dict[int, bytes],
    in_flight: Optional[Dict[int, bytes]],
    pending: Dict[int, Dict[int, bytes]],
    crashed_at: Optional[Tuple[str, int]],
) -> Tuple[str, List[Dict[str, Any]]]:
    """Diff the recovered ``{page: value}`` state against the committed-
    prefix oracle."""
    base = {page: committed.get(page, b"") for page in actual}
    if actual == base:
        return ("rolled-back" if in_flight is not None else
                ("no-crash" if crashed_at is None else "rolled-back")), []
    if in_flight is not None:
        with_txn = dict(base)
        with_txn.update(in_flight)
        if actual == with_txn:
            return "committed", []
    violations = []
    uncommitted_values = [
        v for slot in sorted(pending) for v in pending[slot].values()
    ]
    for page in actual:
        want = base[page]
        got = actual[page]
        if got == want:
            continue
        if in_flight is not None and actual.get(page) == in_flight.get(page):
            # Page-level match with the in-flight transaction is only OK if
            # the *whole* state matched (atomicity); reaching here means the
            # transaction's effects were torn apart.
            kind = "atomicity"
            detail = f"in-flight commit applied partially on page {page}"
        elif got in uncommitted_values:
            kind = "atomicity"
            detail = f"uncommitted value {got!r} survived on page {page}"
        else:
            kind = "durability"
            detail = f"page {page}: expected {want!r}, found {got!r}"
        violations.append(_violation(kind, arch, plan, crashed_at, detail))
    return "violation", violations


class _Snapshot(NamedTuple):
    """A :func:`run_prefix` run between two ops, ready to resume from."""

    #: The op script and ``ARCHITECTURES[arch]``, compared by identity.
    ops: Tuple[Tuple, ...]
    factory: Callable[[], RecoveryManager]
    #: Ops applied so far.
    index: int
    #: The run's hook crossings so far, in order.
    trail: Tuple[str, ...]
    #: Pickle of ``(manager, tids, committed, pending, checkpoints)``.
    state: bytes


#: The latest op-boundary snapshot per architecture name: one each, a few
#: KB apiece.
_SNAPSHOTS: Dict[str, _Snapshot] = {}


def run_prefix(arch: str, ops: Sequence[Tuple], plan: FaultPlan) -> Tuple:
    """Run ``ops`` on an ``arch`` manager until ``plan``'s crash; crash it.

    Returns ``(manager, injector, committed, pending, checkpoints,
    crashed_at, in_flight)``: the crashed manager, what its run crossed,
    and the committed-prefix oracle's state at the crash.  A pure
    function of ``(arch, ops, plan)``: managers draw only from seeded
    streams.

    A crash-only plan on a tuple script resumes from the architecture's
    latest op-boundary snapshot when that snapshot was taken on the same
    script and factory and no spec would have fired within its trail;
    the run then holds exactly what a replay from op 0 would.  A sweep
    that crashes at ascending points thus applies each op about once.
    """
    factory = ARCHITECTURES.get(arch)
    injector = FaultInjector(plan)
    snapshots = isinstance(ops, tuple) and all(
        spec.kind is FaultKind.CRASH for spec in plan.specs
    )
    snapshot = _SNAPSHOTS.get(arch) if snapshots else None
    resumed = (snapshot is not None and snapshot.ops is ops
               and snapshot.factory is factory and injector.resume(snapshot.trail))
    if resumed:
        start = snapshot.index
        manager, tids, committed, pending, checkpoints = pickle.loads(snapshot.state)
    else:
        start = 0
        manager = make_manager(arch)
        tids: Dict[int, int] = {}
        committed: Dict[int, bytes] = {}
        pending: Dict[int, Dict[int, bytes]] = {}
        checkpoints: List[Any] = []
    crashed_at = None
    in_flight: Optional[Dict[int, bytes]] = None
    try:
        for index in range(start, len(ops)):
            # Snapshot between ops, callback detached; a resumed run's
            # first op boundary is the stored snapshot already.
            if snapshots and (index > start or not resumed):
                _SNAPSHOTS[arch] = _Snapshot(
                    ops, factory, index, tuple(injector.trail),
                    pickle.dumps((manager, tids, committed, pending, checkpoints),
                                 pickle.HIGHEST_PROTOCOL),
                )
            op = ops[index]
            manager.set_fault_callback(injector.reached)
            injector.reached("op-boundary")
            apply_op(manager, op, tids, committed, pending, checkpoints)
            manager.set_fault_callback(None)
    except InjectedCrash as crash:
        crashed_at = (crash.hook, crash.crossing)
        if op[0] == "commit" and crash.hook != "op-boundary":
            # The crash landed inside commit(): either side of the commit
            # point is legal, so record the transaction's writes.
            in_flight = dict(pending[op[1]])
    manager.set_fault_callback(None)
    manager.crash()
    return manager, injector, committed, pending, checkpoints, crashed_at, in_flight


def recover_with_recrash(
    manager: RecoveryManager,
    seed: int,
    hook: str = "*",
    recover: Optional[Callable[[], Any]] = None,
) -> bool:
    """Run ``recover`` (default ``manager.recover``), crashing it once.

    A crash is armed at the first crossing of ``hook``; when it fires the
    manager crashes and ``recover`` runs again from the top, uninjected.
    Recovery must be re-runnable from any prefix of itself.  Returns
    whether the armed crash fired.
    """
    if recover is None:
        recover = manager.recover
    injector = FaultInjector(
        FaultPlan.of(FaultSpec(FaultKind.CRASH, hook=hook), seed=seed)
    )
    manager.set_fault_callback(injector.reached)
    try:
        recover()
    except InjectedCrash:
        manager.set_fault_callback(None)
        manager.crash()
        recover()
        return True
    manager.set_fault_callback(None)
    return False


class _Observed(NamedTuple):
    """What one recovery pass leaves for the oracle to judge."""

    #: ``read_committed`` of every page.
    pages: Dict[int, bytes]
    #: Checkpoints durable after recovery.
    checkpoints: int
    dump: str
    #: Whether another crash/recover round left the dump unchanged.
    idempotent: bool
    #: The plain pass's ordered recovery-phase hook crossings.
    timeline: Tuple[str, ...]


def _recover(
    manager: RecoveryManager, seed: int, n_pages: int, recrash: bool
) -> _Observed:
    """Recover a crashed ``manager`` (re-crashing it once when ``recrash``)
    and observe the result: a pure function of its crashed state, ``seed``
    and ``n_pages``."""
    timeline: List[str] = []
    if recrash:
        recover_with_recrash(manager, seed)
    else:
        # Record the recovery pass's own hook crossings, in order: the
        # restart timeline (which phases ran, and how many times).
        manager.set_fault_callback(timeline.append)
        manager.recover()
        manager.set_fault_callback(None)
    pages = {page: manager.read_committed(page) for page in range(n_pages)}
    checkpoints = manager.stable.file_length(CHECKPOINT_FILE)
    dump = state_dump(manager)
    manager.crash()
    manager.recover()
    return _Observed(pages, checkpoints, dump, state_dump(manager) == dump,
                     tuple(timeline))


def _judge(
    arch: str,
    plan: FaultPlan,
    observed: _Observed,
    injector: FaultInjector,
    committed: Dict[int, bytes],
    pending: Dict[int, Dict[int, bytes]],
    checkpoints: List[Any],
    crashed_at: Optional[Tuple[str, int]],
    in_flight: Optional[Dict[int, bytes]],
) -> ScenarioResult:
    """Judge one recovery pass against this scenario's own oracle: the rest
    of a :func:`run_prefix` result, which is never mutated."""
    outcome, violations = _verify(
        arch, plan, observed.pages, committed, in_flight, pending, crashed_at
    )
    # Recover-from-checkpoint oracle: every checkpoint that *completed*
    # before the crash must still be durable after recovery (recovery and
    # compaction must never truncate the checkpoint file).
    if observed.checkpoints < len(checkpoints):
        violations.append(_violation(
            "checkpoint-lost", arch, plan, crashed_at,
            f"{len(checkpoints)} checkpoints completed before the "
            f"crash but only {observed.checkpoints} survived recovery",
        ))
        outcome = "violation"
    # Idempotence: another crash/recover round must be a no-op.
    if not observed.idempotent:
        violations.append(_violation(
            "recovery-not-idempotent", arch, plan, crashed_at,
            "second crash/recover round changed stable state",
        ))
        outcome = "violation"
    return ScenarioResult(
        architecture=arch,
        plan=plan,
        crashed_at=crashed_at,
        outcome=outcome,
        violations=violations,
        dump=observed.dump,
        crossings=injector.crossings,
        checkpoints_completed=len(checkpoints),
        hooks=sorted(injector.hooks_seen),
        recovery_timeline=list(observed.timeline),
    )


#: The latest recovered crashed state per architecture name: ``(pickle of
#: the crashed manager, seed, n_pages, plain pass, re-crash pass)``.  A
#: crash point that leaves the same state as the one before it (about 2
#: in 5 in a sweep) reuses both passes' observations.
_RECOVERED: Dict[str, Tuple[bytes, int, int, _Observed, _Observed]] = {}


def run_scenario(
    arch: str,
    seed: int,
    plan: FaultPlan,
    n_transactions: int = DEFAULT_TRANSACTIONS,
    n_pages: int = DEFAULT_PAGES,
    checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
) -> ScenarioResult:
    """Run one (seed, plan) scenario: plain recovery, then a re-crash pass.

    The re-crash pass injects a second crash at the first recovery hook
    crossing; both passes must converge to the same stable state.  The
    prefix up to the crash is deterministic, so it runs once: the re-crash
    pass recovers a copy of the crashed manager, which holds exactly what
    a second replay would rebuild.  Recovery observes only the crashed
    state, so a state byte-equal to the architecture's last recovered one
    is judged from that one's observations without recovering again.
    """
    ops = _script(seed, n_transactions, n_pages, checkpoint_every)
    manager, *shared = run_prefix(arch, ops, plan)
    # The crashed state's pickle keys the memo and is the re-crash pass's
    # copy: every manager pickles once crashed, with no fault callback.
    state = pickle.dumps(manager, pickle.HIGHEST_PROTOCOL)
    memo = _RECOVERED.get(arch)
    if memo is None or memo[:3] != (state, plan.seed, n_pages):
        clone = pickle.loads(state)
        memo = _RECOVERED[arch] = (
            state, plan.seed, n_pages,
            _recover(manager, plan.seed, n_pages, False),
            _recover(clone, plan.seed, n_pages, True),
        )
    plain = _judge(arch, plan, memo[3], *shared)
    recrash = _judge(arch, plan, memo[4], *shared)
    if recrash.dump != plain.dump:
        plain.violations.append(_violation(
            "recrash-divergence", arch, plan, plain.crashed_at,
            "re-crash during recovery converged to a different state",
        ))
        plain.outcome = "violation"
    plain.violations.extend(recrash.violations)
    return plain


# -- the full sweep -----------------------------------------------------------
@dataclass
class CrashTestReport:
    """Result of crashing one architecture at every sampled hook crossing."""

    architecture: str
    seed: int
    n_transactions: int
    total_crossings: int
    points_tested: List[int]
    outcomes: Dict[str, int]
    violations: List[Dict[str, Any]]
    state_hash: str
    #: Checkpoint hook names the fault-free baseline crossed — proof the
    #: sweep's crash population includes crash-during-checkpoint points.
    checkpoint_hooks: List[str] = field(default_factory=list)
    #: Ordered recovery-phase crossings of the fault-free baseline's
    #: restart (the representative recovery timeline).
    recovery_timeline: List[str] = field(default_factory=list)
    #: Recovery-phase hook -> total crossings summed over every crash
    #: scenario's restart.
    recovery_phase_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {
                "architecture": self.architecture,
                "seed": self.seed,
                "n_transactions": self.n_transactions,
                "total_crossings": self.total_crossings,
                "points_tested": self.points_tested,
                "outcomes": self.outcomes,
                "violations": self.violations,
                "state_hash": self.state_hash,
                "checkpoint_hooks": self.checkpoint_hooks,
                "recovery_timeline": self.recovery_timeline,
                "recovery_phase_counts": self.recovery_phase_counts,
            },
            sort_keys=True,
            indent=2,
        )

    def summary(self) -> str:
        """The CLI line: crash points, outcomes, restart timeline, faults."""
        outcomes = ", ".join(f"{k}={v}" for k, v in sorted(self.outcomes.items()))
        status = "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        lines = [
            f"{self.architecture:>12}: {len(self.points_tested)}/"
            f"{self.total_crossings} crash points [{outcomes}] "
            f"ckpt-hooks={len(self.checkpoint_hooks)} "
            f"hash={self.state_hash[:12]} {status}"
        ]
        if self.recovery_timeline:
            lines.append(f"              restart: {_squash(self.recovery_timeline)}")
        for violation in self.violations[:5]:
            lines.append(
                f"    {violation['kind']} at {violation['hook']} "
                f"(crossing {violation['crossing']}): {violation['detail']}"
            )
        return "\n".join(lines)


def _squash(timeline: List[str]) -> str:
    """Render an ordered hook timeline, folding consecutive repeats."""
    parts: List[str] = []
    i = 0
    while i < len(timeline):
        j = i
        while j < len(timeline) and timeline[j] == timeline[i]:
            j += 1
        parts.append(timeline[i] if j - i == 1 else f"{timeline[i]} x{j - i}")
        i = j
    return " -> ".join(parts)


def run_crashtest(
    arch: str,
    seed: int,
    n_transactions: int = DEFAULT_TRANSACTIONS,
    n_pages: int = DEFAULT_PAGES,
    budget: Optional[int] = None,
    checkpoint_every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
) -> CrashTestReport:
    """Crash ``arch`` at every hook crossing of a seeded workload.

    A first fault-free pass counts the hook crossings the workload
    reaches; then one scenario per crossing (all of them, or a seeded
    sample of ``budget``) injects a crash exactly there.  Checkpoint ops
    woven into the workload put every ``checkpoint.*`` and
    architecture-specific compaction hook in the crash population.
    """
    ops = _script(seed, n_transactions, n_pages, checkpoint_every)
    plan = FaultPlan.of(seed=seed)
    manager, *shared = run_prefix(arch, ops, plan)
    baseline = _judge(arch, plan, _recover(manager, seed, n_pages, False), *shared)
    total = baseline.crossings
    points = list(range(1, total + 1))
    if budget is not None and budget < len(points):
        sampler = RandomStreams(seed).stream("crashtest.points")
        points = sorted(sampler.sample(points, budget))
    outcomes: Dict[str, int] = {}
    violations: List[Dict[str, Any]] = list(baseline.violations)
    hasher = hashlib.sha256(baseline.dump.encode())
    phase_counts: Dict[str, int] = {}
    for hook in baseline.recovery_timeline:
        phase_counts[hook] = phase_counts.get(hook, 0) + 1
    for point in points:
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook="*", occurrence=point), seed=seed
        )
        result = run_scenario(arch, seed, plan, n_transactions, n_pages,
                              checkpoint_every=checkpoint_every)
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        violations.extend(result.violations)
        hasher.update(result.dump.encode())
        for hook in result.recovery_timeline:
            phase_counts[hook] = phase_counts.get(hook, 0) + 1
    return CrashTestReport(
        architecture=arch,
        seed=seed,
        n_transactions=n_transactions,
        total_crossings=total,
        points_tested=points,
        outcomes=outcomes,
        violations=violations,
        state_hash=hasher.hexdigest(),
        checkpoint_hooks=[h for h in baseline.hooks if "checkpoint" in h],
        recovery_timeline=baseline.recovery_timeline,
        recovery_phase_counts=phase_counts,
    )
