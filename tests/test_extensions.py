"""Tests for the extensions beyond the paper's evaluation: SSTF disk
scheduling, timed parallel checkpointing, and hotspot workloads."""

import random

import pytest

from repro import DatabaseMachine, MachineConfig, WorkloadConfig, generate_transactions
from repro.core import LoggingConfig, ParallelLoggingArchitecture
from repro.hardware import ConventionalDisk, DiskAddress, IBM_3350
from repro.sim import Environment, RandomStreams, SimulationError
from repro.workload import TransactionStatus, generator


class TestSstfScheduling:
    def test_policy_validation(self):
        with pytest.raises(SimulationError):
            ConventionalDisk(Environment(), IBM_3350, scheduling="elevator")
        with pytest.raises(ValueError):
            MachineConfig(disk_scheduling="elevator")

    def test_sstf_serves_nearest_first(self):
        env = Environment()
        disk = ConventionalDisk(
            env, IBM_3350, rng=random.Random(0), scheduling="sstf"
        )
        # Occupy the head at cylinder 0, then queue far and near requests.
        blocker = disk.read([DiskAddress(0, 0, 0)])
        far = disk.read([DiskAddress(500, 0, 0)])
        near = disk.read([DiskAddress(10, 0, 0)])
        env.run(until=blocker.done)
        env.run(until=near.done)
        assert not far.done.processed  # near overtook far

    def test_fcfs_preserves_order(self):
        env = Environment()
        disk = ConventionalDisk(
            env, IBM_3350, rng=random.Random(0), scheduling="fcfs"
        )
        blocker = disk.read([DiskAddress(0, 0, 0)])
        far = disk.read([DiskAddress(500, 0, 0)])
        near = disk.read([DiskAddress(10, 0, 0)])
        env.run(until=blocker.done)
        env.run(until=far.done)
        assert not near.done.processed

    def test_sstf_improves_random_throughput(self):
        def run(policy):
            config = MachineConfig(disk_scheduling=policy)
            txns = generate_transactions(
                WorkloadConfig(n_transactions=10),
                config.db_pages,
                RandomStreams(7).stream("workload"),
            )
            return DatabaseMachine(config, None).run(txns)

        fcfs = run("fcfs")
        sstf = run("sstf")
        assert (
            sstf.execution_time_per_page < 1.01 * fcfs.execution_time_per_page
        )


class TestTimedCheckpointing:
    def run_logging(self, interval):
        config = MachineConfig()
        txns = generate_transactions(
            WorkloadConfig(n_transactions=8, max_pages=120),
            config.db_pages,
            RandomStreams(7).stream("workload"),
        )
        arch = ParallelLoggingArchitecture(
            LoggingConfig(checkpoint_interval_ms=interval)
        )
        machine = DatabaseMachine(config, arch)
        return machine.run(txns), arch, txns

    def test_checkpoints_taken(self):
        result, arch, _ = self.run_logging(interval=2000.0)
        assert arch.checkpoints_taken >= 2

    def test_checkpointing_does_not_quiesce(self):
        """The paper's Section 3.1 claim: checkpointing overlaps normal
        processing — throughput is unaffected."""
        with_cp, _, txns = self.run_logging(interval=1000.0)
        without_cp, _, _ = self.run_logging(interval=None)
        assert (
            with_cp.execution_time_per_page
            <= 1.05 * without_cp.execution_time_per_page
        )
        assert all(t.status is TransactionStatus.COMMITTED for t in txns)

    def test_checkpoint_pages_written(self):
        result, arch, _ = self.run_logging(interval=2000.0)
        # Each checkpoint writes one page per log disk (1 here), on top of
        # the regular full log pages.
        assert result.counter("log_pages_written") >= arch.checkpoints_taken


class TestHotspotWorkload:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(hotspot_fraction=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(hotspot_fraction=1.0)

    def test_references_skew_into_hot_region(self):
        config = WorkloadConfig(n_transactions=50, hotspot_fraction=0.1)
        txns = generate_transactions(config, 10_000, random.Random(5))
        refs = [p for t in txns for p in t.read_pages]
        hot = sum(1 for p in refs if p < 1_000)
        assert hot / len(refs) > 0.6  # ~0.8 expected, loose bound

    def test_uniform_when_disabled(self):
        config = WorkloadConfig(n_transactions=50)
        txns = generate_transactions(config, 10_000, random.Random(5))
        refs = [p for t in txns for p in t.read_pages]
        hot = sum(1 for p in refs if p < 1_000)
        assert 0.05 < hot / len(refs) < 0.15

    def test_pages_remain_distinct(self, monkeypatch):
        monkeypatch.setattr(generator, "HOTSPOT_PROBABILITY", 0.9)
        config = WorkloadConfig(n_transactions=20, hotspot_fraction=0.05)
        txns = generate_transactions(config, 5_000, random.Random(6))
        for txn in txns:
            assert len(set(txn.read_pages)) == len(txn.read_pages)

    def test_sequential_hotspot_biases_start(self, monkeypatch):
        monkeypatch.setattr(generator, "HOTSPOT_PROBABILITY", 0.9)
        config = WorkloadConfig(
            n_transactions=60, sequential=True, hotspot_fraction=0.1, max_pages=50
        )
        txns = generate_transactions(config, 10_000, random.Random(7))
        in_hot = sum(1 for t in txns if t.read_pages[0] < 1_000)
        assert in_hot / len(txns) > 0.6

    def test_hotspot_increases_lock_contention(self, monkeypatch):
        monkeypatch.setattr(generator, "HOTSPOT_PROBABILITY", 0.9)

        def run(hotspot):
            config = MachineConfig(mpl=4)
            workload = WorkloadConfig(
                n_transactions=10, max_pages=100, hotspot_fraction=hotspot
            )
            txns = generate_transactions(
                workload, config.db_pages, RandomStreams(9).stream("workload")
            )
            return DatabaseMachine(config, None).run(txns)

        uniform = run(None)
        skewed = run(0.001)  # hot set of ~120 pages
        assert skewed.counter("lock_blocks") > uniform.counter("lock_blocks")
