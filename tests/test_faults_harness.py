"""The crash-recovery harness: determinism, zero violations, and teeth."""

import contextlib
import functools
import itertools
import pickle
from typing import Dict, Iterator, Optional, Sequence, Tuple

import pytest

from benchmarks import bench_ablation_fault_recovery
from benchmarks._harness import BENCH_SEED
from repro.checkpoint import CHECKPOINT_FILE
from repro.faults import (
    ARCHITECTURES,
    DEFAULT_CHECKPOINT_EVERY,
    FaultKind,
    FaultPlan,
    FaultSpec,
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
from repro.faults import harness
from repro.faults.harness import _script, _verify
from repro.faults.injector import FaultInjector, InjectedCrash
from repro.sim.rng import RandomStreams
from repro.storage.interface import RecoveryManager, declared_fields

ARCH_NAMES = sorted(ARCHITECTURES)


class TestWorkloadGeneration:
    def test_same_seed_same_script(self):
        assert generate_ops(7) == generate_ops(7)

    def test_different_seed_different_script(self):
        assert generate_ops(7) != generate_ops(8)

    def test_every_begin_is_resolved(self):
        ops = generate_ops(3, n_transactions=8)
        begins = sum(1 for op in ops if op[0] == "begin")
        ends = sum(1 for op in ops if op[0] in ("commit", "abort"))
        assert begins == 8
        assert ends == 8

    def test_lock_discipline_respected(self):
        ops = generate_ops(5, n_transactions=12)
        locked = {}
        for op in ops:
            if op[0] == "begin":
                locked[op[1]] = set()
            elif op[0] == "write":
                _, slot, page, _ = op
                for other, pages in locked.items():
                    if other != slot:
                        assert page not in pages
                locked[slot].add(page)
            elif op[0] in ("commit", "abort"):
                del locked[op[1]]

    def test_script_replays_cleanly_on_every_manager(self):
        ops = generate_ops(11, n_transactions=6)
        for arch in ARCH_NAMES:
            manager = make_manager(arch)
            tids, committed, pending = {}, {}, {}
            for op in ops:
                apply_op(manager, op, tids, committed, pending)
            for page, data in committed.items():
                assert manager.read_committed(page) == data


class TestScenario:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_clean_run_has_no_violations(self, arch):
        result = run_scenario(arch, seed=5, plan=FaultPlan.of(seed=5))
        assert result.ok
        assert result.crashed_at is None
        assert result.outcome == "no-crash"

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_crash_mid_run_recovers(self, arch):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook="*", occurrence=15), seed=5
        )
        result = run_scenario(arch, seed=5, plan=plan)
        assert result.ok, result.violations
        assert result.crashed_at is not None
        assert result.outcome in ("rolled-back", "committed")


class TestScriptMemo:
    """Crash sweeps build each seeded op script once and share it."""

    PLAN = FaultPlan.of(FaultSpec(FaultKind.CRASH, hook="*", occurrence=9), seed=21)

    def test_repeated_scenario_is_identical(self):
        first = run_scenario("wal", seed=21, plan=self.PLAN)
        second = run_scenario("wal", seed=21, plan=self.PLAN)
        assert first == second
        assert first.crashed_at is not None

    def test_caller_edits_to_a_script_do_not_leak(self):
        before = run_scenario("redo", seed=21, plan=self.PLAN)
        ops = generate_ops(21, checkpoint_every=DEFAULT_CHECKPOINT_EVERY)
        ops.clear()
        ops.append(("begin", 0))
        assert generate_ops(21, checkpoint_every=DEFAULT_CHECKPOINT_EVERY) != ops
        assert run_scenario("redo", seed=21, plan=self.PLAN) == before

    def test_sweep_hash_is_pinned(self):
        # The full seed-1985 sweep of one manager, as recorded before the
        # op scripts were memoised: same scripts, same dumps, same hash.
        report = run_crashtest("wal", seed=1985)
        assert report.ok
        assert report.state_hash == (
            "439d1db1b93a83c42536284a037a3722e58cd3aecf0ed90108572e3812ab630e"
        )


class TestCrashSweep:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_sampled_sweep_is_clean_and_deterministic(self, arch):
        first = run_crashtest(arch, seed=13, n_transactions=6, budget=8)
        second = run_crashtest(arch, seed=13, n_transactions=6, budget=8)
        assert first.ok, first.violations
        assert first.to_json() == second.to_json()

    def test_budget_limits_points(self):
        report = run_crashtest("shadow", seed=3, n_transactions=5, budget=4)
        assert len(report.points_tested) == 4
        assert report.total_crossings > 4

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            make_manager("nonesuch")


class _InPlaceManager(RecoveryManager):
    """A deliberately broken manager: overwrites in place, no undo log.

    A crash with an active transaction leaves its writes on stable
    storage — the harness must flag that as an atomicity violation.
    """

    name = "in-place"

    def _do_read(self, tid, page):
        return self.stable.read_page(page)

    def _do_write(self, tid, page, data):
        self.stable.write_page(page, data)

    def _do_commit(self, tid):
        pass

    def _do_abort(self, tid):
        pass

    def _on_recover(self):
        pass

    def read_committed(self, page):
        return self.stable.read_page(page)


class _UnrestartableUndoManager(_InPlaceManager):
    """In-place writes behind a stable undo log, but recovery empties the
    log *before* it applies it.  Plain recovery is correct; a crash at the
    first recovery hook loses the undo records, so only the re-crash pass,
    which must start from the crashed state, can catch it."""

    name = "unrestartable-undo"
    checkpoint_unsupported = True

    def _do_write(self, tid, page, data):
        self.stable.append("undo", (tid, page, self.stable.read_page(page)))
        self.stable.write_page(page, data)

    def _do_commit(self, tid):
        log = self.stable.read_file("undo")
        self.stable.truncate("undo", [r for r in log if r[0] != tid])

    def _do_abort(self, tid):
        log = self.stable.read_file("undo")
        for owner, page, before in reversed(log):
            if owner == tid:
                self.stable.write_page(page, before)
        self._do_commit(tid)

    def _on_recover(self):
        log = self.stable.read_file("undo")
        self.stable.truncate("undo")
        self._fault_point("undo.recover.truncated")
        for _tid, page, before in reversed(log):
            self.stable.write_page(page, before)


class TestHarnessTeeth:
    def test_broken_manager_is_caught(self):
        ARCHITECTURES["in-place"] = _InPlaceManager
        try:
            report = run_crashtest("in-place", seed=13, n_transactions=6, budget=10)
        finally:
            del ARCHITECTURES["in-place"]
        assert not report.ok
        kinds = {v["kind"] for v in report.violations}
        assert "atomicity" in kinds
        # Every violation ships a replayable (seed, plan) pair.
        for violation in report.violations:
            replay = FaultPlan.from_json(violation["plan"])
            assert replay.seed == 13

    def test_unrestartable_recovery_is_caught(self):
        ARCHITECTURES["unrestartable-undo"] = _UnrestartableUndoManager
        try:
            report = run_crashtest("unrestartable-undo", seed=13, n_transactions=6)
            plan = FaultPlan.from_json(next(
                v["plan"] for v in report.violations if v["kind"] == "recrash-divergence"
            ))
            result = run_scenario("unrestartable-undo", 13, plan, n_transactions=6)
        finally:
            del ARCHITECTURES["unrestartable-undo"]
        # Only the re-crash pass fails: its crash lost the undo records.
        assert {v["kind"] for v in report.violations} == {"recrash-divergence", "atomicity"}
        assert result.outcome == "violation"
        assert result.violations[0]["kind"] == "recrash-divergence"


# -- the replay harnesses, kept as the oracles for the walk and the memo -----
def reference_run_prefix(arch: str, ops: Sequence[Tuple], plan: FaultPlan) -> Tuple:
    """:func:`run_prefix` as a raise-and-catch replay: a fresh manager
    runs ``ops`` from op 0 under ``plan``'s injector, and the crash
    unwinds the run where it fires."""
    manager = harness.make_manager(arch)
    injector = FaultInjector(plan)
    manager.set_fault_callback(injector.reached)
    tids: Dict[int, int] = {}
    committed: Dict[int, bytes] = {}
    pending: Dict[int, Dict[int, bytes]] = {}
    checkpoints = []
    crashed_at = None
    in_flight: Optional[Dict[int, bytes]] = None
    try:
        for op in ops:
            injector.reached("op-boundary")
            apply_op(manager, op, tids, committed, pending, checkpoints)
    except InjectedCrash as crash:
        crashed_at = (crash.hook, crash.crossing)
        if op[0] == "commit" and crash.hook != "op-boundary":
            in_flight = dict(pending[op[1]])
    manager.set_fault_callback(None)
    manager.crash()
    return manager, injector, committed, pending, checkpoints, crashed_at, in_flight


def _reference_run_once(
    arch: str,
    ops: Sequence[Tuple],
    plan: FaultPlan,
    n_pages: int,
    recrash_during_recovery: bool,
) -> ScenarioResult:
    manager, injector, committed, pending, checkpoints, crashed_at, in_flight = (
        reference_run_prefix(arch, ops, plan)
    )
    recovery_timeline = []
    if recrash_during_recovery:
        recrash = FaultInjector(
            FaultPlan.of(FaultSpec(FaultKind.CRASH, hook="*"), seed=plan.seed)
        )
        manager.set_fault_callback(recrash.reached)
        try:
            manager.recover()
        except InjectedCrash:
            manager.set_fault_callback(None)
            manager.crash()
            manager.recover()
        manager.set_fault_callback(None)
    else:
        manager.set_fault_callback(recovery_timeline.append)
        manager.recover()
        manager.set_fault_callback(None)
    actual = {page: manager.read_committed(page) for page in range(n_pages)}
    outcome, violations = _verify(
        arch, plan, actual, committed, in_flight, pending, crashed_at
    )
    durable_checkpoints = manager.stable.file_length(CHECKPOINT_FILE)
    if durable_checkpoints < len(checkpoints):
        violations.append(
            {
                "kind": "checkpoint-lost",
                "architecture": arch,
                "seed": plan.seed,
                "hook": crashed_at[0] if crashed_at else None,
                "crossing": crashed_at[1] if crashed_at else None,
                "detail": (
                    f"{len(checkpoints)} checkpoints completed before the "
                    f"crash but only {durable_checkpoints} survived recovery"
                ),
                "plan": plan.to_json(),
            }
        )
        outcome = "violation"
    dump = state_dump(manager)
    manager.crash()
    manager.recover()
    if state_dump(manager) != dump:
        violations.append(
            {
                "kind": "recovery-not-idempotent",
                "architecture": arch,
                "seed": plan.seed,
                "hook": crashed_at[0] if crashed_at else None,
                "crossing": crashed_at[1] if crashed_at else None,
                "detail": "second crash/recover round changed stable state",
                "plan": plan.to_json(),
            }
        )
        outcome = "violation"
    return ScenarioResult(
        architecture=arch,
        plan=plan,
        crashed_at=crashed_at,
        outcome=outcome,
        violations=violations,
        dump=dump,
        crossings=injector.crossings,
        checkpoints_completed=len(checkpoints),
        hooks=sorted(set(injector.trail)),
        recovery_timeline=recovery_timeline,
    )


def _ops(seed: int):
    """The op script :func:`run_scenario` replays with its default sizes."""
    return _script(seed, harness.DEFAULT_TRANSACTIONS, harness.DEFAULT_PAGES,
                   DEFAULT_CHECKPOINT_EVERY)


def reference_run_scenario(arch: str, seed: int, plan: FaultPlan) -> ScenarioResult:
    """:func:`run_scenario` as first written: the plain and the re-crash
    pass each replay the op-script prefix on a fresh manager."""
    ops, n_pages = _ops(seed), harness.DEFAULT_PAGES
    plain = _reference_run_once(arch, ops, plan, n_pages, recrash_during_recovery=False)
    recrash = _reference_run_once(arch, ops, plan, n_pages, recrash_during_recovery=True)
    if recrash.dump != plain.dump:
        plain.violations.append(
            {
                "kind": "recrash-divergence",
                "architecture": arch,
                "seed": seed,
                "hook": plain.crashed_at[0] if plain.crashed_at else None,
                "crossing": plain.crashed_at[1] if plain.crashed_at else None,
                "detail": "re-crash during recovery converged to a different state",
                "plan": plan.to_json(),
            }
        )
        plain.outcome = "violation"
    plain.violations.extend(recrash.violations)
    return plain


def _crash_at(point: int, seed: int) -> FaultPlan:
    return FaultPlan.of(FaultSpec(FaultKind.CRASH, hook="*", occurrence=point), seed=seed)


def _crossings(arch: str, seed: int) -> int:
    return run_scenario(arch, seed, FaultPlan.of(seed=seed)).crossings


def assert_same_prefix(run: Tuple, reference: Tuple) -> None:
    """Two :func:`run_prefix` results agree field by field: the books,
    the crash site, the interrupted commit's writes, the crossings, the
    crashed state and what its recovery leaves."""
    (manager, injector, *books), (ref_manager, ref_injector, *ref_books) = run, reference
    assert books == ref_books
    assert injector.trail == ref_injector.trail
    assert injector.crossings == ref_injector.crossings
    assert sorted(set(injector.trail)) == sorted(set(ref_injector.trail))
    assert injector.fired == ref_injector.fired
    assert _invisible_values(manager) == _invisible_values(ref_manager)
    assert state_dump(manager) == state_dump(ref_manager)
    pages = harness.DEFAULT_PAGES
    assert harness._recover(manager, pages) == harness._recover(ref_manager, pages)


def _invisible_values(manager: RecoveryManager) -> list:
    """Every declared crash-invisible field of ``manager`` and its stable
    storage, by name."""
    return [
        (name, getattr(owner, name)) for owner in (manager, manager.stable)
        for name in declared_fields(type(owner), "crash_invisible")
    ]


_ALL_MANAGERS = pytest.mark.parametrize(
    "arch", ARCH_NAMES + [_InPlaceManager, _UnrestartableUndoManager],
    ids=lambda arch: arch if isinstance(arch, str) else arch.name,
)


@contextlib.contextmanager
def _registered(arch) -> Iterator[str]:
    """The name ``arch`` runs under: a broken test manager is registered
    for the block, and its sweep dropped after it."""
    if isinstance(arch, str):
        yield arch
        return
    ARCHITECTURES[arch.name] = arch
    try:
        yield arch.name
    finally:
        del ARCHITECTURES[arch.name]
        harness._SWEEPS.pop(arch.name, None)


class TestWalkMatchesReplay:
    """Each fork of the walk, crashed, is the state a raise-and-catch
    replay to the same crossing leaves."""

    @pytest.mark.parametrize("seed", [5, 1985, 7])
    @_ALL_MANAGERS
    def test_every_crash_point(self, arch, seed):
        with _registered(arch) as name:
            ops, total = _ops(seed), _crossings(name, seed)
            for point in range(1, total + 2):  # total + 1 is never reached
                plan = _crash_at(point, seed)
                assert_same_prefix(
                    run_prefix(name, ops, plan), reference_run_prefix(name, ops, plan)
                )

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_fault_recovery_ablation_plans(self, arch):
        # bench_ablation_fault_recovery's list scripts and plans, which
        # take walks of their own.
        for fault in ("clean-crash", "mid-commit"):
            plan = bench_ablation_fault_recovery._fault_plan(arch, fault, BENCH_SEED)
            ops = generate_ops(BENCH_SEED, n_transactions=12)
            run = run_prefix(arch, ops, plan)
            assert run[5] is not None  # crashed_at
            assert_same_prefix(run, reference_run_prefix(arch, ops, plan))


def reference_view(manager: RecoveryManager) -> bytes:
    """The crashed view as keyed before :func:`harness._view`: pickle the
    live manager with its fault callback detached (a fork), load it,
    ``crash()`` it, set its crash-invisible fields to 0 and pickle it."""
    crashed = pickle.loads(_fork(manager))
    crashed.crash()
    for owner in (crashed, crashed.stable):
        for name in declared_fields(type(owner), "crash_invisible"):
            setattr(owner, name, 0)
    return pickle.dumps(crashed, pickle.HIGHEST_PROTOCOL)


def _fork(manager: RecoveryManager) -> bytes:
    """A pickle of the live ``manager``, its fault callback detached."""
    callback = manager._fault_callback
    manager.set_fault_callback(None)
    fork = pickle.dumps(manager, pickle.HIGHEST_PROTOCOL)
    manager.set_fault_callback(callback)
    return fork


class TestCrashedView:
    """The crashed view, one pickle of the live manager, is byte for byte
    the key a fork gave once loaded, crashed and pickled again, and it
    leaves the live manager as it was."""

    @pytest.mark.parametrize("seed", [5, 1985, 7])
    @_ALL_MANAGERS
    def test_every_crossing(self, arch, seed):
        with _registered(arch) as name:
            manager = make_manager(name)
            books = [{}, {}, {}, []]
            crossed = []

            def cross(hook):
                fork = _fork(manager)
                view = harness._view(manager)
                assert _fork(manager) == fork, (name, len(crossed))
                assert view == reference_view(manager), (name, len(crossed))
                crossed.append(hook)

            manager.set_fault_callback(cross)
            for op in _ops(seed):
                cross("op-boundary")
                apply_op(manager, op, *books)
            manager.set_fault_callback(None)
            assert len(crossed) == _crossings(name, seed)
            assert harness._view(manager) == reference_view(manager)


class TestSharedPrefixMatchesReference:
    """Both passes recover one crashed state instead of two replays of it."""

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_every_seed5_crossing(self, arch):
        total = _crossings(arch, 5)
        assert total > 0
        for point in range(total + 2):  # 0 = no crash; total + 1 is never reached
            plan = _crash_at(point, 5) if point else FaultPlan.of(seed=5)
            assert run_scenario(arch, 5, plan) == _cached_reference(arch, 5, plan)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_sampled_seed21_crossings(self, arch):
        total = _crossings(arch, 21)
        sampler = RandomStreams(21).stream("test.shared-prefix")
        for point in sorted(sampler.sample(range(1, total + 1), 12)):
            plan = _crash_at(point, 21)
            assert run_scenario(arch, 21, plan) == reference_run_scenario(arch, 21, plan)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_budget_sweep_report(self, arch, monkeypatch):
        new = run_crashtest(arch, 1985, budget=40).to_json()
        monkeypatch.setattr(
            harness, "run_scenario",
            lambda arch, seed, plan, *_args, **_kwargs: reference_run_scenario(arch, seed, plan),
        )
        assert new == run_crashtest(arch, 1985, budget=40).to_json()

    def test_ascending_sweep_does_linear_prefix_work(self, monkeypatch):
        # One walk per manager: each op applied once, each crossing forked
        # once, the fault-free baseline apart.
        built, applied, forked = [], [], []

        def counting_make_manager(arch):
            built.append(arch)
            return make_manager(arch)

        def counting_apply_op(manager, op, *books):
            applied.append(op)
            apply_op(manager, op, *books)

        def counting_fork(walk, point):
            forked.append(point)
            fork(walk, point)

        fork = harness._Walk.fork
        ops = _ops(5)
        totals = {arch: _crossings(arch, 5) for arch in ARCH_NAMES}
        harness._SWEEPS.clear()
        monkeypatch.setattr(harness, "make_manager", counting_make_manager)
        monkeypatch.setattr(harness, "apply_op", counting_apply_op)
        monkeypatch.setattr(harness._Walk, "fork", counting_fork)
        for arch in ARCH_NAMES:
            built.clear()
            applied.clear()
            forked.clear()
            for point in range(1, totals[arch] + 1):
                run_scenario(arch, 5, _crash_at(point, 5))
            assert built == [arch]
            assert applied == list(ops)
            assert forked == list(range(1, totals[arch] + 1))
            # A point before the kept forks restarts the walk at op 0.
            plan = _crash_at(totals[arch] // 2, 5)
            result = run_scenario(arch, 5, plan)
            assert built == [arch, arch]
            assert result == _cached_reference(arch, 5, plan)
        built.clear()
        reference_run_scenario("wal", 5, _crash_at(15, 5))
        assert built == ["wal", "wal"]

    def test_crash_points_build_no_injector(self, monkeypatch):
        # Injectors belong to walks (each walk's own, plus a clock for a
        # plan off the sweep walk) and to the re-crash edges followed;
        # a crash point itself builds none, however many a sweep has.
        made, clocked, edges = [], [], []

        def counting_init(injector, *args, **kwargs):
            made.append(injector)
            init(injector, *args, **kwargs)

        def counting_walk(walk, arch, ops, clock=None):
            clocked.append(clock is not None)
            walk_init(walk, arch, ops, clock)

        def counting_crash_recovery(*args):
            edges.append(args)
            return crash_recovery(*args)

        init, walk_init = FaultInjector.__init__, harness._Walk.__init__
        crash_recovery = harness._crash_recovery
        monkeypatch.setattr(FaultInjector, "__init__", counting_init)
        monkeypatch.setattr(harness._Walk, "__init__", counting_walk)
        monkeypatch.setattr(harness, "_crash_recovery", counting_crash_recovery)
        for arch in ARCH_NAMES:
            harness._SWEEPS.clear()
            for budget in (10, None):
                made.clear()
                clocked.clear()
                edges.clear()
                report = run_crashtest(arch, 5, budget=budget)
                # The baseline's own walk and its clock, and one sweep walk.
                assert clocked == [True, False]
                assert len(made) == len(clocked) + sum(clocked) + len(edges)
                assert len(edges) <= len(harness._SWEEPS[arch].recrashed)
            # Edges are followed once per distinct state, not per point.
            assert len(harness._SWEEPS[arch].recrashed) < len(report.points_tested)

    def test_a_sweep_encodes_each_crossing_once(self, monkeypatch):
        # One crashed view per crash point, one for the baseline and one
        # per re-crash edge followed; a decode only for a state the sweep
        # recovers, or for an edge's root.  Nothing else is pickled.
        encoded, decoded, edges, other = [], [], [], []

        def counting_view(manager):
            encoded.append(manager)
            return view(manager)

        def counting_loads(data, *args, **kwargs):
            decoded.append(data)
            return loads(data, *args, **kwargs)

        def counting_crash_recovery(*args):
            edges.append(args)
            return crash_recovery(*args)

        view, loads, crash_recovery = harness._view, pickle.loads, harness._crash_recovery
        monkeypatch.setattr(harness, "_view", counting_view)
        monkeypatch.setattr(pickle, "loads", counting_loads)
        monkeypatch.setattr(pickle, "dumps", lambda *args, **kwargs: other.append(args))
        monkeypatch.setattr(harness, "_crash_recovery", counting_crash_recovery)
        for arch in ARCH_NAMES:
            harness._SWEEPS.clear()
            for counts in (encoded, decoded, edges):
                counts.clear()
            report = run_crashtest(arch, 5)
            sweep = harness._SWEEPS[arch]
            assert len(encoded) == len(report.points_tested) + 1 + len(edges)
            assert set(decoded) <= set(sweep.visited)
            assert len(decoded) <= len(sweep.visited) + len(edges)
            assert len(edges) <= len(sweep.recrashed) < len(report.points_tested)
        assert other == []


#: The reference, memoised for the sweeps that revisit the same points.
_cached_reference = functools.lru_cache(maxsize=None)(reference_run_scenario)


def _commit_hooks(arch: str, seed: int) -> str:
    """``<family>.commit.*``: every commit hook of ``arch``'s manager."""
    hooks = run_scenario(arch, seed, FaultPlan.of(seed=seed)).hooks
    families = {h.split(".")[0] for h in hooks if h.split(".")[1:2] == ["commit"]}
    assert len(families) == 1, hooks
    return f"{families.pop()}.commit.*"


class TestSnapshotResume:
    """Scenarios are served from forks of the sweep's live walk, which
    resumes from where the last scenario left it; any order of points and
    any crash-only plan still matches the two-replay reference."""

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_descending_seed5_sweep(self, arch):
        for point in range(_crossings(arch, 5), 0, -1):
            plan = _crash_at(point, 5)
            assert run_scenario(arch, 5, plan) == _cached_reference(arch, 5, plan)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_shuffled_seed5_sweep(self, arch):
        points = list(range(1, _crossings(arch, 5) + 1))
        RandomStreams(5).stream("test.shuffled-sweep").shuffle(points)
        for point in points:
            plan = _crash_at(point, 5)
            assert run_scenario(arch, 5, plan) == _cached_reference(arch, 5, plan)

    def test_round_robin_over_every_manager(self):
        # perfbench's crash-sweep order: one script per manager, each
        # with its own seed, crash points interleaved across managers.
        seeds = {arch: 40 + index for index, arch in enumerate(ARCH_NAMES)}
        sampler = RandomStreams(40).stream("test.round-robin")
        points = {
            arch: sorted(sampler.sample(range(1, _crossings(arch, seed) + 1), 12))
            for arch, seed in seeds.items()
        }
        for step in range(12):
            for arch, seed in seeds.items():
                plan = _crash_at(points[arch][step], seed)
                assert run_scenario(arch, seed, plan) == reference_run_scenario(
                    arch, seed, plan
                )

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_hook_specific_and_two_spec_plans(self, arch):
        commit = _commit_hooks(arch, 5)  # e.g. "wal.commit.*"
        total = _crossings(arch, 5)
        for occurrence in range(1, 8):
            plans = [
                # A "*" crash first, so the sweep's walk holds forks.
                _crash_at(occurrence * total // 8, 5),
                FaultPlan.of(
                    FaultSpec(FaultKind.CRASH, hook=commit, occurrence=occurrence),
                    seed=5,
                ),
                FaultPlan.of(
                    FaultSpec(FaultKind.CRASH, hook="op-boundary", occurrence=occurrence * 4),
                    FaultSpec(FaultKind.CRASH, hook=commit, occurrence=occurrence + 1),
                    seed=5,
                ),
            ]
            for plan in plans:
                result = run_scenario(arch, 5, plan)
                assert result == reference_run_scenario(arch, 5, plan)
                assert result.crashed_at is not None

    def test_non_crash_spec_rides_the_sweep_walk(self, monkeypatch):
        # Managers cross hooks only, so a torn-write spec changes nothing
        # in the forward run: its "*" crash is served by the sweep's walk.
        built = []

        def counting_make_manager(arch):
            built.append(arch)
            return make_manager(arch)

        run_scenario("wal", 5, _crash_at(60, 5))
        walk = harness._SWEEPS["wal"].walk
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook="*", occurrence=70),
            FaultSpec(FaultKind.TORN_WRITE, probability=0.5),
            seed=5,
        )
        monkeypatch.setattr(harness, "make_manager", counting_make_manager)
        result = run_scenario("wal", 5, plan)
        assert built == []
        assert harness._SWEEPS["wal"].walk is walk
        assert result == reference_run_scenario("wal", 5, plan)

    def test_re_registered_name_does_not_resume(self):
        name = "re-registered"
        try:
            ARCHITECTURES[name] = ARCHITECTURES["shadow"]
            for point in (10, 30):
                plan = _crash_at(point, 5)
                assert run_scenario(name, 5, plan) == reference_run_scenario(name, 5, plan)
            walk = harness._SWEEPS[name].walk
            ARCHITECTURES[name] = ARCHITECTURES["versions"]
            for point in (40, 50):
                plan = _crash_at(point, 5)
                result = run_scenario(name, 5, plan)
                assert result == reference_run_scenario(name, 5, plan)
                assert all(h.split(".")[0] != "shadow" for h in result.hooks)
            assert harness._SWEEPS[name].walk is not walk
        finally:
            del ARCHITECTURES[name]
            harness._SWEEPS.pop(name, None)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_resumed_prefix_equals_a_fresh_replay(self, arch, monkeypatch):
        built = []

        def counting_make_manager(name):
            built.append(name)
            return make_manager(name)

        ops, total = _ops(5), _crossings(arch, 5)
        plan = _crash_at(2 * total // 3, 5)
        harness._SWEEPS.clear()
        run_prefix(arch, ops, _crash_at(total // 3, 5))
        monkeypatch.setattr(harness, "make_manager", counting_make_manager)
        resumed = run_prefix(arch, ops, plan)
        assert built == []  # the walk went on from the earlier point
        assert resumed[5] is not None  # crashed_at
        assert_same_prefix(resumed, reference_run_prefix(arch, ops, plan))


def _clone_crashed(manager: RecoveryManager) -> RecoveryManager:
    """The copy of a crashed manager :func:`run_scenario`'s re-crash pass
    recovers: a pickle round trip."""
    return pickle.loads(pickle.dumps(manager, pickle.HIGHEST_PROTOCOL))


class TestCrashedManagerClone:
    """A crashed manager deep-copies: the re-crash pass depends on it."""

    @staticmethod
    def _crashed(arch: str, where: str) -> RecoveryManager:
        total = _crossings(arch, 5)
        point = {"start": 1, "middle": total // 2, "end": total}[where]
        manager, *_shared = run_prefix(arch, _ops(5), _crash_at(point, 5))
        return manager

    @staticmethod
    def _committed(manager: RecoveryManager):
        return [manager.read_committed(page) for page in range(harness.DEFAULT_PAGES)]

    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_clone_is_equal_and_independent(self, arch, where):
        original = self._crashed(arch, where)
        crashed = state_dump(original)
        clone = _clone_crashed(original)
        assert clone is not original
        assert state_dump(clone) == crashed
        clone.recover()
        assert state_dump(original) == crashed
        original.recover()
        recovered = state_dump(original)
        assert state_dump(clone) == recovered
        assert self._committed(clone) == self._committed(original)
        committed = self._committed(original)
        tid = clone.begin()
        for page in range(harness.DEFAULT_PAGES):
            clone.write(tid, page, b"clone-%d" % page)
        clone.commit(tid)
        assert state_dump(original) == recovered
        assert self._committed(original) == committed
        assert self._committed(clone) != committed


def test_recover_with_recrash_reports_an_uncrossed_hook():
    manager, *_shared = run_prefix("wal", _ops(5), _crash_at(15, 5))
    clone = _clone_crashed(manager)
    manager.recover()
    assert recover_with_recrash(clone, hook="no.such.hook") is False
    assert state_dump(clone) == state_dump(manager)


def _count_recoveries(monkeypatch) -> list:
    """Record every crashed state :func:`run_scenario` recovers from now on."""
    calls = []

    def counting_recover(manager, n_pages):
        calls.append(n_pages)
        return recover(manager, n_pages)

    recover = harness._recover
    monkeypatch.setattr(harness, "_recover", counting_recover)
    return calls


def _key(manager: RecoveryManager) -> bytes:
    """The crashed view that keys ``manager``'s crashed state."""
    return harness._view(manager)


class TestRecoveryMemo:
    """Each architecture's sweep over a script recovers each crash-visible
    state once, wherever it recurs; every scenario is still judged on its
    own."""

    def test_ascending_sweep_recovers_each_distinct_state_once(self, monkeypatch):
        states, keys = [], []
        totals = {arch: _crossings(arch, 5) for arch in ARCH_NAMES}
        harness._SWEEPS.clear()
        calls = _count_recoveries(monkeypatch)
        for arch in ARCH_NAMES:
            states.clear()
            keys.clear()
            calls.clear()
            for point in range(1, totals[arch] + 1):
                plan = _crash_at(point, 5)
                run_scenario(arch, 5, plan)
                # The same fork again, from the walk's kept forks.
                manager = run_prefix(arch, _ops(5), plan)[0]
                states.append(pickle.dumps(manager, pickle.HIGHEST_PROTOCOL))
                keys.append(_key(manager))
            visited = harness._SWEEPS[arch].visited
            roots = set(keys)
            # One recovery per distinct state: every distinct root, plus
            # each new state a root's re-crash edge leads to.
            assert len(calls) == len(visited)
            assert roots <= set(visited)
            assert len(roots) <= len(calls) <= 2 * len(roots)
            assert len(roots) < len(keys)
            # Leaving the crash-invisible fields out merges states.
            assert len(roots) < len(set(states))
        assert sorted(harness._SWEEPS) == ARCH_NAMES

    def test_a_recurring_key_is_served_at_any_distance(self, monkeypatch):
        harness._SWEEPS.clear()
        calls = _count_recoveries(monkeypatch)
        recovered = []
        for point in (1, 40, 1):
            before = len(calls)
            run_scenario("wal", 5, _crash_at(point, 5))
            recovered.append(len(calls) - before)
        # Point 40 leaves another state between two visits of point 1's.
        assert recovered[0] > 0 and recovered[1] > 0
        assert recovered[2] == 0

    def test_seed5_sweep_observes_291_states(self, monkeypatch):
        # Baselines included; a one-entry memo with a cloned re-crash
        # pass observed 499 (1,629 over seeds 5, 1985 and 7), and states
        # resumed from op-boundary snapshots 298.  Forks of one live walk
        # share objects as the live run does, so fewer equal states miss
        # each other by pickle bytes.
        harness._SWEEPS.clear()
        calls = _count_recoveries(monkeypatch)
        for arch in ARCH_NAMES:
            assert run_crashtest(arch, 5).ok
        assert len(calls) == 291
        assert sum(len(harness._SWEEPS[arch].visited) for arch in ARCH_NAMES) == 291

    @pytest.mark.parametrize(
        "broken", [_InPlaceManager, _UnrestartableUndoManager], ids=lambda cls: cls.name
    )
    def test_broken_recovery_is_judged_at_every_crossing(self, broken, monkeypatch):
        name = broken.name
        ARCHITECTURES[name] = broken
        try:
            total = _crossings(name, 5)
            harness._SWEEPS.pop(name, None)
            calls = _count_recoveries(monkeypatch)
            flagged = 0
            for point in range(1, total + 1):
                plan = _crash_at(point, 5)
                result = run_scenario(name, 5, plan)
                assert result == reference_run_scenario(name, 5, plan)
                flagged += not result.ok
        finally:
            del ARCHITECTURES[name]
            harness._SWEEPS.pop(name, None)
        assert flagged
        assert len(calls) < 2 * total  # served states were judged too

    @_ALL_MANAGERS
    def test_served_recrash_judges_as_a_recrashed_clone(self, arch):
        # The re-crash edge against its reference: a copy of the crashed
        # manager recovered by recover_with_recrash, then observed.
        pages = harness.DEFAULT_PAGES
        with _registered(arch) as name:
            total = _crossings(name, 5)
            for point in range(1, total + 1):
                plan = _crash_at(point, 5)
                run_scenario(name, 5, plan)
                manager, _injector, *books = run_prefix(name, _ops(5), plan)
                clone = _clone_crashed(manager)
                served = harness._SWEEPS[name].recrashed[_key(manager)]
                recover_with_recrash(clone)
                dump = state_dump(clone)
                pages_read = {page: clone.read_committed(page) for page in range(pages)}
                checkpoints = clone.stable.file_length(CHECKPOINT_FILE)
                clone.crash()
                clone.recover()
                reference = harness._Observed(
                    pages_read, checkpoints, dump, state_dump(clone) == dump,
                    served.timeline,
                )
                assert served == reference, (name, point)
                assert harness._judge(name, plan, served, *books) == harness._judge(
                    name, plan, reference, *books
                ), (name, point)

    def test_an_entry_serves_only_its_own_key(self, monkeypatch):
        fresh, pages = _crash_at(1, 5), harness.DEFAULT_PAGES

        def bump(*names):
            def edit(manager):
                for name in names:
                    owner = manager.stable if hasattr(manager.stable, name) else manager
                    setattr(owner, name, getattr(owner, name) + 1)
            return edit

        # Each run differs from the one before in one part of the key, or
        # in its script, only; crashing before the first op leaves a
        # never-used manager.  An edit changes the live manager at the
        # crash's crossing, before the walk takes its crashed view.
        runs = [
            (5, fresh, pages, None),
            (7, fresh, pages, None),  # another script, the same key: a new sweep
            (5, fresh, 4, None),  # page count: a new script
            (5, fresh, pages, None),  # page count: a new sweep again
            (5, _crash_at(1, 6), pages, None),  # the plan's seed only, the same key
            (5, _crash_at(40, 6), pages, None),  # crashed state
            # declared crash-invisible fields only, the same key
            (5, _crash_at(40, 6), pages, bump("_next_tid", "page_reads", "records_read")),
            (5, _crash_at(40, 6), pages, bump("_round_robin")),  # undeclared field
        ]

        def editing_fork(walk, point):
            if edit is not None and point == walk.first:
                edit(walk.manager)
            fork(walk, point)

        fork = harness._Walk.fork
        monkeypatch.setattr(harness._Walk, "fork", editing_fork)
        harness._SWEEPS.clear()
        calls = _count_recoveries(monkeypatch)
        results, served = [], []
        for seed, plan, n_pages, edit in runs:
            # Each run forks its own edited walk, not the last one's forks.
            for sweep in harness._SWEEPS.values():
                sweep.walk = None
            before = len(calls)
            results.append(run_scenario("wal", seed, plan, n_pages=n_pages))
            served.append(len(calls) == before)
        assert served == [False, False, False, False, True, False, True, False]
        for (seed, plan, n_pages, edit), result in zip(runs, results):
            harness._SWEEPS.clear()
            assert run_scenario("wal", seed, plan, n_pages=n_pages) == result

    def test_a_failed_recovery_leaves_no_key_to_reuse(self, monkeypatch):
        # A crash point whose crashed view equals the point before it's.
        harness._SWEEPS.clear()
        keys = [_key(run_prefix("wal", _ops(5), _crash_at(p, 5))[0]) for p in range(1, 40)]
        point = next(p for p in range(2, 40) if keys[p - 1] == keys[p - 2])
        expected = reference_run_scenario("wal", 5, _crash_at(point, 5))

        def failing_recover(manager, n_pages):
            raise RuntimeError("recovery failed")

        harness._SWEEPS.clear()
        monkeypatch.setattr(harness, "_recover", failing_recover)
        with pytest.raises(RuntimeError, match="recovery failed"):
            run_scenario("wal", 5, _crash_at(point - 1, 5))
        monkeypatch.undo()
        # The failed point left nothing in the visited set, so this one
        # recovers its own state.
        calls = _count_recoveries(monkeypatch)
        assert run_scenario("wal", 5, _crash_at(point, 5)) == expected
        assert calls


def _perturb_invisible(manager: RecoveryManager) -> None:
    """Give every declared crash-invisible field a value it never held."""
    offsets = itertools.count()
    for owner in (manager, manager.stable):
        for name in declared_fields(type(owner), "crash_invisible"):
            setattr(owner, name, getattr(owner, name) + 7919 + next(offsets))
    assert next(offsets)


class TestCrashInvisibleFields:
    """Recovery never reads a declared ``crash_invisible`` field, so the
    visited set's key may leave them out: new values on a copy of the
    crashed manager leave its observation, and the state its re-crash edge
    leads to, unchanged."""

    @_ALL_MANAGERS
    def test_every_seed5_crash_point(self, arch):
        pages = harness.DEFAULT_PAGES
        with _registered(arch) as name:
            ops, total = _ops(5), _crossings(name, 5)
            assert total > 0
            for point in range(1, total + 1):
                manager, *_shared = run_prefix(name, ops, _crash_at(point, 5))
                state = pickle.dumps(manager, pickle.HIGHEST_PROTOCOL)
                for recrash in (False, True):
                    moved, kept = pickle.loads(state), pickle.loads(state)
                    _perturb_invisible(moved)
                    if recrash:
                        for copy in (moved, kept):
                            harness._crash_recovery(copy, copy.recover)
                        # Keyed on copies: a key leaves its fields at 0.
                        assert _key(_clone_crashed(moved)) == _key(
                            _clone_crashed(kept)
                        ), (name, point)
                    assert harness._recover(moved, pages) == harness._recover(
                        kept, pages
                    ), (name, point, recrash)
