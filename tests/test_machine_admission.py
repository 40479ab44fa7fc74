"""Tests for overload protection (repro.machine.admission + run_open)."""

import pytest

from repro.loadgen.arrivals import ArrivalConfig
from repro.loadgen.runner import run_open_load
from repro.machine import DatabaseMachine, MachineConfig
from repro.machine.admission import AdmissionQueue, BackpressureMonitor
from repro.machine.config import MachineConfig as _Config
from repro.core import PageTableShadowArchitecture
from repro.sim.core import Environment
from repro.workload.generator import WorkloadConfig, generate_transactions
from repro.sim.rng import RandomStreams


def open_run(policy="drop", rate_tps=30.0, n=16, **config_overrides):
    """One small open-system run under heavy offered load."""
    config_overrides.setdefault("admission_policy", policy)
    return run_open_load(
        "shadow",
        ArrivalConfig(rate_tps=rate_tps, n_arrivals=n),
        seed=1985,
        slo_ms=0.0,
        config_overrides=config_overrides,
    )


class TestAccounting:
    def test_every_offered_transaction_dispositioned(self):
        run = open_run(admission_queue_limit=2)
        assert run.ok, run.oracle_violations
        assert run.offered == 16
        assert run.admitted + run.rejected + run.shed == run.offered

    def test_admitted_transactions_all_commit(self):
        run = open_run(admission_queue_limit=2)
        assert run.committed == run.admitted

    def test_overload_produces_rejections(self):
        run = open_run(admission_queue_limit=1, admission_retry_max_attempts=1)
        assert run.rejected > 0

    def test_closed_run_untouched_by_admission(self):
        # The closed-batch path must not even construct the admission
        # machinery: pre-PR traces stay byte-identical.
        config = MachineConfig(seed=1985, parallel_data_disks=True)
        txns = generate_transactions(
            WorkloadConfig(n_transactions=4, max_pages=40),
            config.db_pages,
            RandomStreams(7).stream("workload"),
        )
        machine = DatabaseMachine(config, PageTableShadowArchitecture())
        result = machine.run(txns)
        assert machine.admission is None
        assert "admission_offered" not in result.counters


class TestPolicies:
    def test_block_policy_rejects_no_more_than_drop(self):
        drop = open_run(policy="drop", admission_queue_limit=1)
        block = open_run(
            policy="block",
            admission_queue_limit=1,
            admission_block_timeout_ms=2_000.0,
        )
        assert block.rejected <= drop.rejected
        assert block.ok and drop.ok

    def test_deadline_sheds_instead_of_retrying_forever(self):
        run = open_run(
            policy="drop",
            admission_queue_limit=1,
            admission_deadline_ms=30.0,
            admission_retry_max_attempts=10,
            admission_retry_base_ms=25.0,
        )
        assert run.ok, run.oracle_violations
        assert run.shed > 0

    def test_retries_counted(self):
        run = open_run(
            policy="drop",
            admission_queue_limit=1,
            admission_retry_max_attempts=4,
        )
        assert run.result.counter("admission_retries") > 0


class _FakeCache:
    def __init__(self, capacity=100):
        self.capacity = capacity
        self.in_use = 0


class _FakeLocks:
    def __init__(self):
        self.waiting_requests = 0


class _FakeMachine:
    """Just enough machine for a BackpressureMonitor unit test."""

    def __init__(self):
        self.config = _Config(
            backpressure_cache_high=0.9,
            backpressure_cache_low=0.5,
            backpressure_lock_high=10,
            backpressure_lock_low=2,
        )
        self.env = Environment()
        self.cache = _FakeCache()
        self.locks = _FakeLocks()
        self.hooks = []

    def _tinstant(self, name, **fields):
        self.hooks.append(name)

    def fault_hook(self, name):
        self.hooks.append(name)


class TestBackpressureMonitor:
    def test_hysteresis_asserts_high_releases_low(self):
        machine = _FakeMachine()
        monitor = BackpressureMonitor(machine)
        assert monitor.update() is False
        machine.cache.in_use = 95  # over the 0.9 high watermark
        assert monitor.update() is True
        machine.cache.in_use = 70  # below high but above the 0.5 low
        assert monitor.update() is True  # hysteresis holds it asserted
        machine.cache.in_use = 40
        assert monitor.update() is False
        assert monitor.transitions.count == 2
        assert "backpressure.on" in machine.hooks
        assert "backpressure.off" in machine.hooks

    def test_lock_waiters_alone_trigger(self):
        machine = _FakeMachine()
        monitor = BackpressureMonitor(machine)
        machine.locks.waiting_requests = 10
        assert monitor.update() is True
        machine.locks.waiting_requests = 2
        assert monitor.update() is False

    def test_release_requires_both_signals_low(self):
        machine = _FakeMachine()
        monitor = BackpressureMonitor(machine)
        machine.cache.in_use = 95
        machine.locks.waiting_requests = 20
        assert monitor.update() is True
        machine.cache.in_use = 0  # cache drained, locks still hot
        assert monitor.update() is True
        machine.locks.waiting_requests = 0
        assert monitor.update() is False


class TestSlotQueueViaAdmission:
    def test_release_hands_slot_to_waiter(self):
        machine = _FakeMachine()
        queue = AdmissionQueue(machine).queue
        assert queue.capacity == machine.config.admission_queue_limit
        for _ in range(queue.capacity):
            assert queue.try_acquire()
        assert not queue.try_acquire()
        waiter = queue.wait()
        queue.release()
        assert waiter.triggered  # slot passed through, not freed
        assert queue.in_use == queue.capacity
        queue.release()
        assert queue.in_use == queue.capacity - 1

    def test_cancelled_waiter_skipped(self):
        machine = _FakeMachine()
        queue = AdmissionQueue(machine).queue
        assert queue.try_acquire()
        abandoned = queue.wait()
        live = queue.wait()
        queue.capacity = 1  # force the waiters to matter
        queue.cancel(abandoned)
        queue.release()
        assert not abandoned.triggered
        assert live.triggered


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"admission_queue_limit": 0},
            {"admission_policy": "lottery"},
            {"admission_policy": "token-bucket"},  # not a policy
            {"backpressure_cache_high": 1.5},
            {"backpressure_cache_low": 0.99, "backpressure_cache_high": 0.5},
            {"backpressure_lock_low": 50, "backpressure_lock_high": 10},
        ],
    )
    def test_bad_overload_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MachineConfig(**kwargs)


class TestBackpressureEndToEnd:
    def test_saturated_cache_turns_arrivals_away(self):
        # A near-zero cache watermark with arrivals spread across the
        # run: mid-run arrivals find frames in use and the monitor must
        # assert at least once.
        run = open_run(
            rate_tps=2.0,
            n=20,
            backpressure_cache_high=0.05,
            backpressure_cache_low=0.01,
            admission_retry_max_attempts=2,
        )
        assert run.ok, run.oracle_violations
        assert run.result.counter("backpressure_transitions") > 0
        assert run.result.extras["backpressure_ms"] >= 0.0
