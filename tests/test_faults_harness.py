"""The crash-recovery harness: determinism, zero violations, and teeth."""

import functools
import itertools
import pickle
from typing import Dict, Optional, Sequence, Tuple

import pytest

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
from repro.storage.interface import RecoveryManager

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

    def _on_crash(self):
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


# -- the two-replay harness, kept as the oracle for the shared prefix ---------
def _reference_run_once(
    arch: str,
    ops: Sequence[Tuple],
    plan: FaultPlan,
    n_pages: int,
    recrash_during_recovery: bool,
) -> ScenarioResult:
    manager = harness.make_manager(arch)
    injector = FaultInjector(plan)
    manager.set_fault_callback(injector.reached)
    tids: Dict[int, int] = {}
    committed: Dict[int, bytes] = {}
    pending: Dict[int, Dict[int, bytes]] = {}
    checkpoints = []
    recovery_timeline = []
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
        hooks=sorted(injector.hooks_seen),
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
        built, applied = [], []

        def counting_make_manager(arch):
            built.append(arch)
            return make_manager(arch)

        def counting_apply_op(manager, op, *books):
            applied.append(op)
            apply_op(manager, op, *books)

        ops = _ops(5)
        totals = {arch: _crossings(arch, 5) for arch in ARCH_NAMES}
        harness._SWEEPS.clear()
        monkeypatch.setattr(harness, "make_manager", counting_make_manager)
        monkeypatch.setattr(harness, "apply_op", counting_apply_op)
        for arch in ARCH_NAMES:
            built.clear()
            applied.clear()
            for point in range(1, totals[arch] + 1):
                run_scenario(arch, 5, _crash_at(point, 5))
            # Each scenario applies ops from the previous crash's op on.
            assert built == [arch]
            assert len(applied) <= len(ops) + totals[arch]
        built.clear()
        reference_run_scenario("wal", 5, _crash_at(15, 5))
        assert built == ["wal", "wal"]


#: The reference, memoised for the sweeps that revisit the same points.
_cached_reference = functools.lru_cache(maxsize=None)(reference_run_scenario)


def _commit_hooks(arch: str, seed: int) -> str:
    """``<family>.commit.*``: every commit hook of ``arch``'s manager."""
    hooks = run_scenario(arch, seed, FaultPlan.of(seed=seed)).hooks
    families = {h.split(".")[0] for h in hooks if h.split(".")[1:2] == ["commit"]}
    assert len(families) == 1, hooks
    return f"{families.pop()}.commit.*"


class TestSnapshotResume:
    """Scenarios resume from the latest op-boundary snapshot; any order of
    points and any crash-only plan still matches the two-replay reference."""

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
                # A "*" crash first, so the next plan finds a snapshot.
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

    def test_non_crash_spec_takes_the_fresh_path(self, monkeypatch):
        built = []

        def counting_make_manager(arch):
            built.append(arch)
            return make_manager(arch)

        run_scenario("wal", 5, _crash_at(60, 5))
        kept = harness._SWEEPS["wal"].snapshot
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook="*", occurrence=70),
            FaultSpec(FaultKind.TORN_WRITE, probability=0.5),
            seed=5,
        )
        monkeypatch.setattr(harness, "make_manager", counting_make_manager)
        result = run_scenario("wal", 5, plan)
        assert built == ["wal"]
        assert harness._SWEEPS["wal"].snapshot is kept
        assert result == reference_run_scenario("wal", 5, plan)

    def test_re_registered_name_does_not_resume(self):
        name = "re-registered"
        try:
            ARCHITECTURES[name] = ARCHITECTURES["shadow"]
            for point in (10, 30):
                plan = _crash_at(point, 5)
                assert run_scenario(name, 5, plan) == reference_run_scenario(name, 5, plan)
            ARCHITECTURES[name] = ARCHITECTURES["versions"]
            for point in (40, 50):
                plan = _crash_at(point, 5)
                result = run_scenario(name, 5, plan)
                assert result == reference_run_scenario(name, 5, plan)
                assert all(h.split(".")[0] != "shadow" for h in result.hooks)
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
        assert built == []
        harness._SWEEPS.clear()
        fresh = run_prefix(arch, ops, plan)
        assert built == [arch]
        for run in (resumed, fresh):
            assert run[5] is not None  # crashed_at
        (manager, injector, *books), (fresh_manager, fresh_injector, *fresh_books) = (
            resumed, fresh
        )
        assert state_dump(manager) == state_dump(fresh_manager)
        assert books == fresh_books
        assert injector.trail == fresh_injector.trail
        assert injector.crossings == fresh_injector.crossings
        assert injector.hooks_seen == fresh_injector.hooks_seen
        assert injector.fired == fresh_injector.fired


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
    assert recover_with_recrash(clone, 5, hook="no.such.hook") is False
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
    """The crash-visible pickle that keys ``manager``'s crashed state."""
    return harness._crash_visible(manager)[0]


class TestRecoveryMemo:
    """Each architecture's sweep over a script recovers each crash-visible
    state once, wherever it recurs; every scenario is still judged on its
    own."""

    def test_ascending_sweep_recovers_each_distinct_state_once(self, monkeypatch):
        states, keys = [], []

        def recording_run_prefix(arch, ops, plan):
            run = run_prefix(arch, ops, plan)
            states.append(pickle.dumps(run[0], pickle.HIGHEST_PROTOCOL))
            keys.append(_key(run[0]))
            return run

        totals = {arch: _crossings(arch, 5) for arch in ARCH_NAMES}
        harness._SWEEPS.clear()
        calls = _count_recoveries(monkeypatch)
        monkeypatch.setattr(harness, "run_prefix", recording_run_prefix)
        for arch in ARCH_NAMES:
            states.clear()
            keys.clear()
            calls.clear()
            for point in range(1, totals[arch] + 1):
                run_scenario(arch, 5, _crash_at(point, 5))
            visited = harness._SWEEPS[arch].visited
            roots = {(key, 5, harness.DEFAULT_PAGES) for key in keys}
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

    def test_seed5_sweep_observes_298_states(self, monkeypatch):
        # Baselines included; a one-entry memo with a cloned re-crash
        # pass observed 499 (1,629 over seeds 5, 1985 and 7, now 1,015).
        harness._SWEEPS.clear()
        calls = _count_recoveries(monkeypatch)
        for arch in ARCH_NAMES:
            assert run_crashtest(arch, 5).ok
        assert len(calls) == 298
        assert sum(len(harness._SWEEPS[arch].visited) for arch in ARCH_NAMES) == 298

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

    @pytest.mark.parametrize(
        "arch", ARCH_NAMES + [_InPlaceManager, _UnrestartableUndoManager],
        ids=lambda arch: arch if isinstance(arch, str) else arch.name,
    )
    def test_served_recrash_judges_as_a_recrashed_clone(self, arch, monkeypatch):
        # The re-crash edge against its reference: a copy of the crashed
        # manager recovered by recover_with_recrash, then observed.
        broken = not isinstance(arch, str)
        name = arch.name if broken else arch
        if broken:
            ARCHITECTURES[name] = arch
        pages = harness.DEFAULT_PAGES
        runs = []

        def recording_run_prefix(arch, ops, plan):
            run = run_prefix(arch, ops, plan)
            runs.append((harness._crash_visible(run[0]), run[1:]))
            return run

        monkeypatch.setattr(harness, "run_prefix", recording_run_prefix)
        try:
            total = _crossings(name, 5)
            for point in range(1, total + 1):
                plan = _crash_at(point, 5)
                run_scenario(name, 5, plan)
                (state, real), shared = runs[-1]
                served = harness._SWEEPS[name].recrashed[(state, 5, pages)]
                clone = pickle.loads(state)
                harness._set_invisible(clone, real)
                recover_with_recrash(clone, 5)
                dump = state_dump(clone)
                pages_read = {page: clone.read_committed(page) for page in range(pages)}
                checkpoints = clone.stable.file_length(CHECKPOINT_FILE)
                clone.crash()
                clone.recover()
                reference = harness._Observed(
                    pages_read, checkpoints, dump, state_dump(clone) == dump,
                    served.timeline,
                )
                assert harness._judge(name, plan, served, *shared) == harness._judge(
                    name, plan, reference, *shared
                ), (name, point)
        finally:
            if broken:
                del ARCHITECTURES[name]
                harness._SWEEPS.pop(name, None)

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
        # never-used manager.  An edit changes the crashed manager before
        # it is keyed.
        runs = [
            (5, fresh, pages, None),
            (7, fresh, pages, None),  # another script, the same key: a new sweep
            (5, fresh, 4, None),  # page count: a new script
            (5, fresh, pages, None),  # page count: a new sweep again
            (5, _crash_at(1, 6), pages, None),  # re-crash seed
            (5, _crash_at(40, 6), pages, None),  # crashed state
            # declared crash-invisible fields only, the same key
            (5, _crash_at(40, 6), pages, bump("_next_tid", "page_reads", "records_read")),
            (5, _crash_at(40, 6), pages, bump("_round_robin")),  # undeclared field
        ]

        def editing_run_prefix(arch, ops, plan):
            run = run_prefix(arch, ops, plan)
            if edit is not None:
                edit(run[0])
            return run

        monkeypatch.setattr(harness, "run_prefix", editing_run_prefix)
        harness._SWEEPS.clear()
        calls = _count_recoveries(monkeypatch)
        results, served = [], []
        for seed, plan, n_pages, edit in runs:
            before = len(calls)
            results.append(run_scenario("wal", seed, plan, n_pages=n_pages))
            served.append(len(calls) == before)
        assert served == [False, False, False, False, False, False, True, False]
        for (seed, plan, n_pages, edit), result in zip(runs, results):
            harness._SWEEPS.clear()
            assert run_scenario("wal", seed, plan, n_pages=n_pages) == result


def _perturb_invisible(manager: RecoveryManager) -> None:
    """Give every declared crash-invisible field a value it never held."""
    real = harness._set_invisible(manager, itertools.repeat(None))
    assert real
    harness._set_invisible(
        manager, [value + 7919 + offset for offset, value in enumerate(real)]
    )


class TestCrashInvisibleFields:
    """Recovery never reads a declared ``crash_invisible`` field, so the
    visited set's key may leave them out: new values on a copy of the
    crashed manager leave its observation, and the state its re-crash edge
    leads to, unchanged."""

    @pytest.mark.parametrize(
        "arch", ARCH_NAMES + [_InPlaceManager, _UnrestartableUndoManager],
        ids=lambda arch: arch if isinstance(arch, str) else arch.name,
    )
    def test_every_seed5_crash_point(self, arch):
        broken = not isinstance(arch, str)
        name = arch.name if broken else arch
        if broken:
            ARCHITECTURES[name] = arch
        pages = harness.DEFAULT_PAGES
        try:
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
                            harness._crash_recovery(copy, copy.recover, 5)
                        assert _key(moved) == _key(kept), (name, point)
                    assert harness._recover(moved, pages) == harness._recover(
                        kept, pages
                    ), (name, point, recrash)
        finally:
            if broken:
                del ARCHITECTURES[name]
                harness._SWEEPS.pop(name, None)
