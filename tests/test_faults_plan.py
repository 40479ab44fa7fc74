"""Unit tests for fault plans and the deterministic injector."""

import random

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec, InjectedCrash
from repro.sim import RandomStreams


class TestFaultSpec:
    def test_exact_hook_match(self):
        spec = FaultSpec(FaultKind.CRASH, hook="wal.commit.pre-record")
        assert spec.matches_hook("wal.commit.pre-record")
        assert not spec.matches_hook("wal.commit.post")

    def test_star_matches_everything(self):
        spec = FaultSpec(FaultKind.CRASH, hook="*")
        assert spec.matches_hook("anything")
        assert spec.matches_hook("op-boundary")

    def test_prefix_match(self):
        spec = FaultSpec(FaultKind.CRASH, hook="wal.commit.*")
        assert spec.matches_hook("wal.commit.pre-record")
        assert spec.matches_hook("wal.commit.mid-force")
        assert not spec.matches_hook("wal.flush.post-write")

    def test_no_hook_matches_nothing(self):
        spec = FaultSpec(FaultKind.TORN_WRITE, probability=0.5)
        assert not spec.matches_hook("op-boundary")

    def test_dict_roundtrip(self):
        spec = FaultSpec(
            FaultKind.LP_FAIL, hook=None, at_time=12.5, target=2, probability=0.0
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_qp_fail_with_repair_roundtrip(self):
        spec = FaultSpec(
            FaultKind.QP_FAIL, at_time=40.0, target=3, repair_after=250.0
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook="shadow.commit.*", occurrence=3),
            FaultSpec(FaultKind.MSG_LOSS, probability=0.25),
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_json_is_stable(self):
        plan = FaultPlan.of(FaultSpec(FaultKind.CRASH, hook="*"), seed=7)
        assert plan.to_json() == plan.to_json()


class TestFaultInjector:
    def test_crash_fires_at_nth_crossing(self):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook="*", occurrence=3), seed=0
        )
        injector = FaultInjector(plan)
        injector.reached("a")
        injector.reached("b")
        with pytest.raises(InjectedCrash) as exc:
            injector.reached("c")
        assert exc.value.hook == "c"
        assert exc.value.crossing == 3

    def test_hook_scoped_occurrence_counts_only_matches(self):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook="wal.*", occurrence=2), seed=0
        )
        injector = FaultInjector(plan)
        injector.reached("wal.commit.pre-record")
        injector.reached("op-boundary")  # does not count against wal.*
        with pytest.raises(InjectedCrash):
            injector.reached("wal.commit.post")

    def test_poll_is_non_raising(self):
        plan = FaultPlan.of(FaultSpec(FaultKind.CRASH, hook="*"), seed=0)
        injector = FaultInjector(plan)
        assert injector.poll("machine.writeback") is True
        assert injector.poll("machine.writeback") is False

    def test_probabilistic_faults_draw_from_seeded_stream(self):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.MSG_LOSS, probability=0.5), seed=9
        )
        first = [FaultInjector(plan).drop_message() for _ in range(20)]
        second = [FaultInjector(plan).drop_message() for _ in range(20)]
        assert first == second

    def test_certain_torn_write_always_fires(self):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.TORN_WRITE, probability=1.0), seed=0
        )
        injector = FaultInjector(plan)
        assert injector.torn_write()
        assert ("torn-write", "None", 0) in injector.fired

    def test_target_filtering(self):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.DISK_FAIL, target=1, probability=1.0), seed=0
        )
        injector = FaultInjector(plan)
        assert not injector._probabilistic(FaultKind.DISK_FAIL, 0)
        assert injector._probabilistic(FaultKind.DISK_FAIL, 1)

    def test_timed_faults_filtered_by_kind(self):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, at_time=10.0),
            FaultSpec(FaultKind.LP_FAIL, at_time=5.0, target=0),
            FaultSpec(FaultKind.CRASH, hook="*"),
            seed=0,
        )
        injector = FaultInjector(plan)
        assert len(injector.timed_faults(FaultKind.CRASH)) == 1
        assert len(injector.timed_faults(FaultKind.LP_FAIL)) == 1


def eager_decisions(plan, calls):
    """Each call's verdict with both streams made up front: the draw
    model of :class:`FaultInjector`, stated directly."""
    streams = RandomStreams(plan.seed)
    rngs = {"faults": streams.stream("faults"), "corrupt": streams.stream("corrupt")}
    out = []
    for kind, target in calls:
        rng = rngs["corrupt" if kind is FaultKind.BIT_ROT else "faults"]
        hit = False
        for spec in plan.specs:
            if spec.kind is not kind:
                continue
            if spec.target is not None and target is not None and spec.target != target:
                continue
            if spec.probability >= 1.0 or rng.random() < spec.probability:
                hit = True
                break
        out.append(hit)
    return out


_PREDICATES = {
    FaultKind.TORN_WRITE: FaultInjector.torn_write,
    FaultKind.MSG_LOSS: FaultInjector.drop_message,
    FaultKind.BIT_ROT: FaultInjector.bit_rot,
}


class TestLazyStreams:
    @pytest.fixture
    def made(self, monkeypatch):
        """Every ``random.Random`` constructed while the test runs."""
        made = []

        class Counting(random.Random):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Counting)
        return made

    def test_crash_only_injector_makes_no_random(self, made):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.CRASH, hook="*", occurrence=9),
            FaultSpec(FaultKind.CRASH, at_time=3.0),
            seed=4,
        )
        injector = FaultInjector(plan)
        for hook in ("a", "b", "c"):
            injector.reached(hook)
            assert not injector.poll(hook)
        assert not injector.torn_write(1)
        assert not injector.drop_message()
        assert not injector.bit_rot(2)
        assert made == []

    def test_first_draw_makes_the_stream(self, made):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(FaultKind.MSG_LOSS, probability=0.5), seed=4)
        )
        assert made == []
        injector.drop_message()
        injector.drop_message()
        assert len(made) == 1

    def test_certain_faults_draw_nothing(self, made):
        injector = FaultInjector(
            FaultPlan.of(FaultSpec(FaultKind.TORN_WRITE, probability=1.0), seed=4)
        )
        assert injector.torn_write()
        assert made == []

    @pytest.mark.parametrize("seed", [0, 7, 1985])
    def test_draw_sequences_equal_the_eager_ones(self, seed):
        plan = FaultPlan.of(
            FaultSpec(FaultKind.TORN_WRITE, probability=0.3),
            FaultSpec(FaultKind.TORN_WRITE, target=2, probability=0.6),
            FaultSpec(FaultKind.MSG_LOSS, probability=0.5),
            FaultSpec(FaultKind.BIT_ROT, probability=0.2),
            FaultSpec(FaultKind.BIT_ROT, target=1, probability=0.4),
            FaultSpec(FaultKind.CRASH, hook="*", occurrence=1000),
            seed=seed,
        )
        order = random.Random(seed)  # the call interleaving only, not a fault draw
        calls = [
            (order.choice(sorted(_PREDICATES, key=lambda k: k.value)), order.choice([None, 1, 2]))
            for _ in range(200)
        ]
        injector = FaultInjector(plan)
        got = []
        for kind, target in calls:
            injector.reached("op-boundary")
            got.append(_PREDICATES[kind](injector, target))
        assert got == eager_decisions(plan, calls)
        assert any(got) and not all(got)
