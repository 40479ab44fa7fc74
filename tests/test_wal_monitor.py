"""The WAL rule of the ordering monitor, wired into both layers.

The lint rule PROTO01 proves the *code paths* order log forces before
write-backs; :class:`~repro.sim.monitor.OrderingMonitor` checks the
*executions*.  These tests run the timed machine and the functional WAL
engine under the monitor; ``tests/test_sim_monitor.py`` covers the
protocol itself.
"""

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.core import LoggingConfig, LogMode, ParallelLoggingArchitecture
from repro.sim import RandomStreams
from repro.storage import DistributedWalManager


def logging_run(monitor, mode=LogMode.LOGICAL, n_lps=2):
    config = MachineConfig()
    txns = generate_transactions(
        WorkloadConfig(n_transactions=6, max_pages=60),
        config.db_pages,
        RandomStreams(11).stream("workload"),
    )
    arch = ParallelLoggingArchitecture(
        LoggingConfig(n_log_processors=n_lps, mode=mode)
    )
    machine = DatabaseMachine(config, arch, monitor=monitor)
    return machine.run(txns)


class TestTimedMachine:
    def test_logical_logging_run_is_checked(self, monitor):
        result = logging_run(monitor)
        assert monitor.checks["wal"] > 0
        assert monitor.checks["wal"] == result.counter("data_pages_written")
        assert monitor.violations["wal"] == 0

    def test_physical_logging_run_is_checked(self, monitor):
        logging_run(monitor, mode=LogMode.PHYSICAL, n_lps=1)
        assert monitor.checks["wal"] > 0
        assert monitor.violations["wal"] == 0

    def test_monitored_run_matches_unmonitored(self, monitor):
        monitored = logging_run(monitor)
        plain = logging_run(None)
        assert monitored.execution_time_per_page == plain.execution_time_per_page


class TestFunctionalEngine:
    def test_steal_commit_crash_cycle_is_checked(self, monitor):
        manager = DistributedWalManager(n_logs=3, monitor=monitor)
        rng = RandomStreams(5).stream("history")
        for _ in range(10):
            tid = manager.begin()
            for page in rng.sample(range(16), 4):
                manager.write(tid, page, bytes([rng.randrange(256)]) * 4)
            # Steal a dirty page mid-transaction: the forced-logs-first
            # path inside flush_page must satisfy the monitor.
            manager.flush_page(next(iter(manager.dirty_pages)))
            manager.commit(tid)
        manager.flush_all()
        assert monitor.checks["wal"] > 0
        assert monitor.violations["wal"] == 0
        manager.crash()
        manager.recover()
        assert monitor.pending_pages("wal") == 0

    def test_checkpoint_and_dump_retire_tokens(self, monitor):
        manager = DistributedWalManager(n_logs=2, monitor=monitor)
        tid = manager.begin()
        manager.write(tid, 1, b"a")
        manager.write(tid, 2, b"b")
        manager.checkpoint()
        assert monitor.pending_pages("wal") == 0
        manager.commit(tid)
        manager.dump()
        assert monitor.violations["wal"] == 0
