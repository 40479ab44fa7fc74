"""Tests for overload protection (repro.machine.admission + run_open)."""

import pytest

from repro.loadgen.arrivals import ArrivalConfig, generate_arrivals
from repro.loadgen.runner import run_open_load, score_open_run
from repro.machine import DatabaseMachine, MachineConfig, admission
from repro.machine.admission import AdmissionQueue, BackpressureMonitor
from repro.machine.testbed import build_survive_machine
from repro.core import PageTableShadowArchitecture
from repro.sim.core import Environment
from repro.workload.generator import WorkloadConfig, generate_transactions
from repro.sim.rng import RandomStreams


def open_run(rate_tps=30.0, n=16):
    """One small open-system run under heavy offered load."""
    return run_open_load(
        "shadow", ArrivalConfig(rate_tps=rate_tps, n_arrivals=n), seed=1985, slo_ms=0.0
    )


@pytest.fixture
def knobs(monkeypatch):
    """Set module constants of ``repro.machine.admission`` for one test."""

    def set_knobs(**values):
        for name, value in values.items():
            monkeypatch.setattr(admission, name, value)

    return set_knobs


class TestAccounting:
    def test_every_offered_transaction_dispositioned(self, knobs):
        knobs(ADMISSION_QUEUE_LIMIT=2)
        run = open_run()
        assert run.ok, run.oracle_violations
        assert run.offered == 16
        assert run.admitted + run.rejected + run.shed == run.offered

    def test_admitted_transactions_all_commit(self, knobs):
        knobs(ADMISSION_QUEUE_LIMIT=2)
        run = open_run()
        assert run.committed == run.admitted

    def test_overload_produces_rejections(self, knobs):
        knobs(ADMISSION_QUEUE_LIMIT=1, ADMISSION_RETRY_MAX_ATTEMPTS=1)
        run = open_run()
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
    def test_deadline_sheds_instead_of_retrying_forever(self, knobs):
        knobs(
            ADMISSION_QUEUE_LIMIT=1,
            ADMISSION_RETRY_MAX_ATTEMPTS=10,
            ADMISSION_RETRY_BASE_MS=25.0,
        )
        schedule = generate_arrivals(
            ArrivalConfig(rate_tps=30.0, n_arrivals=16),
            RandomStreams(1985).fork("arrivals"),
        )
        machine, txns = build_survive_machine(
            "shadow", 1985, schedule.offered, admission_deadline_ms=30.0
        )
        result = machine.run_open(
            txns, schedule.times_ms, spike_times_ms=schedule.spike_starts_ms
        )
        run = score_open_run("shadow", "healthy", schedule, txns, result, 0.0)
        assert run.ok, run.oracle_violations
        assert run.shed > 0

    def test_retries_counted(self, knobs):
        knobs(ADMISSION_QUEUE_LIMIT=1, ADMISSION_RETRY_MAX_ATTEMPTS=4)
        run = open_run()
        assert run.result.counter("admission_retries") > 0


class _FakeCache:
    def __init__(self, capacity=100):
        self.capacity = capacity
        self.in_use = 0


class _FakeLocks:
    def __init__(self):
        self.waiting_requests = 0


class _FakeMachine:
    """Just enough machine for BackpressureMonitor and AdmissionQueue tests."""

    def __init__(self):
        self.env = Environment()
        self.cache = _FakeCache()
        self.locks = _FakeLocks()
        self.hooks = []

    def _tinstant(self, name, **fields):
        self.hooks.append(name)

    def fault_hook(self, name):
        self.hooks.append(name)


@pytest.fixture
def watermarks(knobs):
    knobs(
        BACKPRESSURE_CACHE_HIGH=0.9,
        BACKPRESSURE_CACHE_LOW=0.5,
        BACKPRESSURE_LOCK_HIGH=10,
        BACKPRESSURE_LOCK_LOW=2,
    )


@pytest.mark.usefixtures("watermarks")
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


class TestAdmissionQueue:
    def test_start_frees_a_slot(self):
        queue = AdmissionQueue(_FakeMachine())
        for _ in range(admission.ADMISSION_QUEUE_LIMIT):
            assert queue._try_once()
        assert not queue._try_once()
        queue.start()
        assert queue.depth == admission.ADMISSION_QUEUE_LIMIT - 1
        assert queue._try_once()


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [{"admission_deadline_ms": -1.0}])
    def test_bad_overload_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MachineConfig(**kwargs)


class TestBackpressureEndToEnd:
    def test_saturated_cache_turns_arrivals_away(self, knobs):
        # A near-zero cache watermark with arrivals spread across the
        # run: mid-run arrivals find frames in use and the monitor must
        # assert at least once.
        knobs(
            BACKPRESSURE_CACHE_HIGH=0.05,
            BACKPRESSURE_CACHE_LOW=0.01,
            ADMISSION_RETRY_MAX_ATTEMPTS=2,
        )
        run = open_run(rate_tps=2.0, n=20)
        assert run.ok, run.oracle_violations
        assert run.result.counter("backpressure_transitions") > 0
        assert run.result.extras["backpressure_ms"] >= 0.0
