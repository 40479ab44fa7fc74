"""The crash-recovery harness: determinism, zero violations, and teeth."""

import pytest

from repro.faults import (
    ARCHITECTURES,
    DEFAULT_CHECKPOINT_EVERY,
    FaultKind,
    FaultPlan,
    FaultSpec,
    generate_ops,
    make_manager,
    run_crashtest,
    run_scenario,
)
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
            from repro.faults.harness import _apply_op

            for op in ops:
                _apply_op(manager, op, tids, committed, pending)
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
