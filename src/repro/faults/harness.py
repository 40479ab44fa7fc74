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

import dataclasses
import functools
import hashlib
import itertools
import json
import pickle
from collections import Counter
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


class _Observed(NamedTuple):
    """What one uninterrupted recovery leaves for the oracle to judge."""

    #: ``read_committed`` of every page.
    pages: Dict[int, bytes]
    #: Checkpoints durable after recovery.
    checkpoints: int
    dump: str
    #: Whether another crash/recover round left the dump unchanged.
    idempotent: bool
    #: The recovery's ordered hook crossings.
    timeline: Tuple[str, ...]


class _Walk:
    """One live run of an op script, forked at hook crossings.

    It applies each op once, crossing hooks through an injector that never
    fires.  At each crossing from ``first`` on it forks: it pickles the
    manager and the oracle's books (``tids``, ``committed``, ``pending``,
    ``checkpoints``), callback detached.  It keeps only the forks of the
    last op applied, and the crossing where it first saw each hook name.
    A ``clock`` moves ``first`` to the crossing where its plan's crash
    falls due.  Loaded and crashed, a fork is the state a crash raised
    there leaves (docs/FAULTS.md).
    """

    def __init__(self, arch: str, ops: Sequence[Tuple],
                 clock: Optional[FaultInjector] = None) -> None:
        self.ops = ops
        self.manager = make_manager(arch)
        self.books: List[Any] = [{}, {}, {}, []]
        self.injector = FaultInjector(FaultPlan.of())
        self.applied = 0
        self.first = float("inf")
        self.clock = clock
        self.forks: Dict[int, bytes] = {}
        self.seen: Dict[str, int] = {}

    def _cross(self, name: str) -> None:
        self.injector.reached(name)
        if name not in self.seen:
            self.seen[name] = self.injector.crossings
        if self.clock is not None and self.clock.poll(name):
            self.first, self.clock = self.injector.crossings, None
        if self.injector.crossings >= self.first:
            self.fork()

    def fork(self) -> None:
        self.manager.set_fault_callback(None)
        self.forks[self.injector.crossings] = pickle.dumps(
            (self.manager, *self.books), pickle.HIGHEST_PROTOCOL)
        self.manager.set_fault_callback(self._cross)

    def advance(self) -> None:
        """Apply ops until the op holding crossing ``first`` has run, or
        the script ends."""
        while self.applied < len(self.ops) and self.injector.crossings < self.first:
            self.forks.clear()
            self.manager.set_fault_callback(self._cross)
            self._cross("op-boundary")
            apply_op(self.manager, self.ops[self.applied], *self.books)
            self.manager.set_fault_callback(None)
            self.applied += 1


class _Sweep:
    """One architecture's crash sweep over one op script.

    It holds the live walk of the script, the last fork
    :func:`run_scenario` keyed, and the visited set, keyed by a crashed
    state's crash-visible pickle and page count.  All are valid only for
    the script and ``ARCHITECTURES[arch]`` they were made with, compared
    by identity.
    """

    def __init__(self, ops: Tuple[Tuple, ...], factory: Optional[Callable]) -> None:
        self.ops = ops
        self.factory = factory
        self.walk: Optional[_Walk] = None
        #: ``(fork, key, books)``.
        self.last: Optional[Tuple] = None
        #: Crash-visible state -> observation of its uninterrupted recovery.
        self.visited: Dict[tuple, _Observed] = {}
        #: Root state -> the observation its re-crash edge leads to.
        self.recrashed: Dict[tuple, _Observed] = {}

    def visit(self, key: tuple, manager: Optional[RecoveryManager]) -> _Observed:
        """``key``'s observation; recovers ``manager``, crashed in that
        state, only on the first visit."""
        observed = self.visited.get(key)
        if observed is None:
            observed = self.visited[key] = _recover(manager, key[1])
        return observed

    def recrash(self, key: tuple) -> _Observed:
        """Follow the re-crash edge out of root ``key``: crash its recovery
        at the first hook crossing and visit the state that leaves.  A
        recovery that crosses no hook has nothing to crash, so the edge
        leads back to ``key`` itself."""
        observed = self.recrashed.get(key)
        if observed is None:
            observed = self.visited[key]
            if observed.timeline:
                state, n_pages = key
                clone = pickle.loads(state)
                _crash_recovery(clone, clone.recover)
                observed = self.visit((_crash_visible(clone), n_pages), clone)
            self.recrashed[key] = observed
        return observed


#: The sweep each architecture name ran last.
_SWEEPS: Dict[str, _Sweep] = {}


def _sweep(arch: str, ops: Tuple[Tuple, ...]) -> _Sweep:
    """``arch``'s sweep over ``ops``: a new one unless the last was made
    with this very script and factory."""
    factory = ARCHITECTURES.get(arch)
    sweep = _SWEEPS.get(arch)
    if sweep is None or sweep.ops is not ops or sweep.factory is not factory:
        sweep = _SWEEPS[arch] = _Sweep(ops, factory)
    return sweep


def _walk(arch: str, ops: Sequence[Tuple], plan: FaultPlan) -> Tuple[_Walk, Optional[int]]:
    """A walk of ``ops`` that kept the fork where ``plan``'s crash fires,
    and that crossing; None if the script ends first, the walk then being
    the caller's.

    Crash specs that all name ``*`` fire at their least occurrence, on
    the architecture's sweep when ``ops`` is a tuple script; a point
    before the sweep walk's kept forks restarts it at op 0.  Any other
    plan takes a walk of its own, forked where its clock fires.
    """
    specs = [spec for spec in plan.specs if spec.kind is FaultKind.CRASH]
    if isinstance(ops, tuple) and specs and all(
        spec.hook == "*" and spec.occurrence >= 1 for spec in specs
    ):
        point = min(spec.occurrence for spec in specs)
        sweep = _sweep(arch, ops)
        walk = sweep.walk
        if walk is None or (point <= walk.injector.crossings and point not in walk.forks):
            walk = sweep.walk = _Walk(arch, ops)
        if point not in walk.forks:
            walk.first = point
            walk.advance()
            if point not in walk.forks:
                sweep.walk = None
    else:
        walk = _Walk(arch, ops, FaultInjector(plan))
        walk.advance()
        point = walk.first
    return walk, point if point in walk.forks else None


def _load(walk: _Walk, point: Optional[int]) -> Tuple[RecoveryManager, List[Any]]:
    """The manager and books at ``point``'s fork (at the script's end if
    None), crashed."""
    if point is None:
        manager, *books = walk.manager, *walk.books
    else:
        manager, *books = pickle.loads(walk.forks[point])
    manager.crash()
    return manager, books


def _crash_site(walk: _Walk, point: Optional[int],
                pending: Dict[int, Dict[int, bytes]]) -> Tuple:
    """``(crashed_at, in_flight)`` of a crash at ``point``: ``in_flight``
    holds the writes of a commit the crash interrupted."""
    if point is None:
        return None, None
    crashed_at = (walk.injector.trail[point - 1], point)
    op = walk.ops[walk.applied - 1]
    # A crash inside commit() may land on either side of its commit point.
    inside = op[0] == "commit" and crashed_at[0] != "op-boundary"
    return crashed_at, dict(pending[op[1]]) if inside else None


def run_prefix(arch: str, ops: Sequence[Tuple], plan: FaultPlan) -> Tuple:
    """Run ``ops`` on an ``arch`` manager until ``plan``'s crash; crash it.

    Returns ``(manager, injector, committed, pending, checkpoints,
    crashed_at, in_flight)``: the crashed manager (the fork at the crash's
    crossing of a live walk of ``ops``), what its run crossed, and the
    committed-prefix oracle's state at the crash.  A pure function of
    ``(arch, ops, plan)``: managers draw only from seeded streams.
    """
    walk, point = _walk(arch, ops, plan)
    manager, (_tids, committed, pending, checkpoints) = _load(walk, point)
    crashed_at, in_flight = _crash_site(walk, point, pending)
    injector = FaultInjector(plan)
    injector.trail = walk.injector.trail[:point]
    if crashed_at is not None:
        injector.fired.append(("crash", *crashed_at))
    return manager, injector, committed, pending, checkpoints, crashed_at, in_flight


def _crash_recovery(manager: RecoveryManager, recover: Callable[[], Any],
                    hook: str = "*") -> bool:
    """Run ``recover`` with a crash armed at the first crossing of
    ``hook``; when it fires, crash ``manager`` there.  Returns whether it
    fired.  The plan needs no seed: a crash-only plan draws nothing."""
    plan = FaultPlan.of(FaultSpec(FaultKind.CRASH, hook=hook))
    manager.set_fault_callback(FaultInjector(plan).reached)
    try:
        recover()
    except InjectedCrash:
        manager.set_fault_callback(None)
        manager.crash()
        return True
    manager.set_fault_callback(None)
    return False


def recover_with_recrash(
    manager: RecoveryManager,
    hook: str = "*",
    recover: Optional[Callable[[], Any]] = None,
) -> bool:
    """Run ``recover`` (default ``manager.recover``), crashing it once.

    A crash is armed at the first crossing of ``hook``; when it fires the
    manager crashes and ``recover`` runs again from the top, uninjected.
    Recovery must be re-runnable from any prefix of itself.  Returns
    whether the armed crash fired.
    """
    recover = recover or manager.recover
    if _crash_recovery(manager, recover, hook):
        recover()
        return True
    return False


def _recover(manager: RecoveryManager, n_pages: int) -> _Observed:
    """Recover a crashed ``manager`` and observe the result: a pure
    function of its crash-visible state and ``n_pages``."""
    timeline: List[str] = []  # the restart: which phases ran, how often
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
    committed: Dict[int, bytes],
    pending: Dict[int, Dict[int, bytes]],
    checkpoints: List[Any],
    crashed_at: Optional[Tuple[str, int]],
    in_flight: Optional[Dict[int, bytes]],
) -> Tuple[str, List[Dict[str, Any]]]:
    """``(outcome, violations)`` of one recovery pass, judged against this
    scenario's own oracle: the rest of a :func:`run_prefix` result, which
    is never mutated."""
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
    return outcome, violations


@functools.lru_cache(maxsize=None)
def _crash_invisible(kind: type) -> Tuple[str, ...]:
    """Every ``crash_invisible`` field ``kind`` and its bases declare."""
    return tuple(
        name for klass in kind.__mro__
        for name in vars(klass).get("crash_invisible", ())
    )


def _crash_visible(manager: RecoveryManager) -> bytes:
    """The pickle of a crashed ``manager`` once its crash-invisible fields
    are set to 0 in place: every manager pickles once crashed, with no
    fault callback.  Nothing restores them, for they are write-only
    counters and the caller recovers this manager or drops it."""
    for owner in (manager, manager.stable):
        for name in _crash_invisible(type(owner)):
            setattr(owner, name, 0)
    return pickle.dumps(manager, pickle.HIGHEST_PROTOCOL)


def run_scenario(
    arch: str,
    seed: int,
    plan: FaultPlan,
    n_transactions: int = DEFAULT_TRANSACTIONS,
    n_pages: int = DEFAULT_PAGES,
) -> ScenarioResult:
    """Run one (seed, plan) scenario: plain recovery, then a re-crash pass.

    The re-crash pass injects a second crash at the first recovery hook
    crossing; both passes must converge to the same stable state.
    Recovery observes only the crashed state's crash-visible part (the
    declared ``crash_invisible`` fields are never read), so each
    architecture's sweep over a script recovers each such state once, the
    first time either pass reaches it, and judges every later scenario
    that reaches it from that observation.
    """
    ops = _script(seed, n_transactions, n_pages, DEFAULT_CHECKPOINT_EVERY)
    walk, point = _walk(arch, ops, plan)
    sweep = _sweep(arch, ops)
    fork = walk.forks.get(point)
    manager = None
    if fork is not None and sweep.last is not None and sweep.last[0] == fork:
        # The same fork as the last one keyed: the same crashed state.
        key, books = sweep.last[1:]
    else:
        manager, books = _load(walk, point)
        key = (_crash_visible(manager), n_pages)
    _tids, committed, pending, checkpoints = books
    crashed_at, in_flight = _crash_site(walk, point, pending)
    shared = (committed, pending, checkpoints, crashed_at, in_flight)
    observed = sweep.visit(key, manager)
    outcome, violations = _judge(arch, plan, observed, *shared)
    # Only a key already visited may serve the next byte-equal fork.
    sweep.last = (fork, key, books)
    recrashed = sweep.recrash(key)
    if recrashed.dump != observed.dump:
        violations.append(_violation(
            "recrash-divergence", arch, plan, crashed_at,
            "re-crash during recovery converged to a different state",
        ))
        outcome = "violation"
    violations.extend(_judge(arch, plan, recrashed, *shared)[1])
    crossings = walk.injector.crossings if point is None else point
    return ScenarioResult(
        architecture=arch,
        plan=plan,
        crashed_at=crashed_at,
        outcome=outcome,
        violations=violations,
        dump=observed.dump,
        crossings=crossings,
        checkpoints_completed=len(checkpoints),
        hooks=sorted(name for name, first in walk.seen.items() if first <= crossings),
        recovery_timeline=list(observed.timeline),
    )


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
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

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
    parts = []
    for hook, run in itertools.groupby(timeline):
        repeats = len(list(run))
        parts.append(hook if repeats == 1 else f"{hook} x{repeats}")
    return " -> ".join(parts)


def run_crashtest(
    arch: str,
    seed: int,
    n_transactions: int = DEFAULT_TRANSACTIONS,
    n_pages: int = DEFAULT_PAGES,
    budget: Optional[int] = None,
) -> CrashTestReport:
    """Crash ``arch`` at every hook crossing of a seeded workload.

    A first fault-free pass counts the hook crossings the workload
    reaches; then one scenario per crossing (all of them, or a seeded
    sample of ``budget``) injects a crash exactly there.  Checkpoint ops
    woven into the workload put every ``checkpoint.*`` and
    architecture-specific compaction hook in the crash population.
    """
    baseline = run_scenario(arch, seed, FaultPlan.of(seed=seed), n_transactions, n_pages)
    points = list(range(1, baseline.crossings + 1))
    if budget is not None and budget < len(points):
        sampler = RandomStreams(seed).stream("crashtest.points")
        points = sorted(sampler.sample(points, budget))
    outcomes: Counter = Counter()
    violations = list(baseline.violations)
    hasher = hashlib.sha256(baseline.dump.encode())
    phase_counts = Counter(baseline.recovery_timeline)
    for point in points:
        plan = FaultPlan.of(FaultSpec(FaultKind.CRASH, hook="*", occurrence=point), seed=seed)
        result = run_scenario(arch, seed, plan, n_transactions, n_pages)
        outcomes[result.outcome] += 1
        violations.extend(result.violations)
        hasher.update(result.dump.encode())
        phase_counts.update(result.recovery_timeline)
    return CrashTestReport(
        architecture=arch,
        seed=seed,
        n_transactions=n_transactions,
        total_crossings=baseline.crossings,
        points_tested=points,
        outcomes=dict(outcomes),
        violations=violations,
        state_hash=hasher.hexdigest(),
        checkpoint_hooks=[h for h in baseline.hooks if "checkpoint" in h],
        recovery_timeline=baseline.recovery_timeline,
        recovery_phase_counts=dict(phase_counts),
    )
