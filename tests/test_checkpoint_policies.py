"""Tests for the checkpoint subsystem: policy templates and the scheduler."""

import pytest

from repro.checkpoint import (
    CHECKPOINT_FILE,
    CheckpointRecord,
    CheckpointScheduler,
    CheckpointUnsupported,
    FuzzyCheckpoint,
    QuiescentCheckpoint,
    sim_checkpointer,
)
from repro.faults import ARCHITECTURES, make_manager
from repro.storage.interface import RecoveryManager


class TestPolicyTemplate:
    def test_every_manager_checkpoints_when_quiescent(self):
        for arch in sorted(ARCHITECTURES):
            manager = make_manager(arch)
            tid = manager.begin()
            manager.write(tid, 0, b"x")
            manager.commit(tid)
            stats = manager.take_checkpoint()
            assert not stats.skipped, arch
            assert stats.record.seq == 1, arch
            assert stats.record.active == (), arch
            assert manager.checkpoint_count() == 1, arch
            assert stats.record.kind == manager.checkpoint_policy.kind, arch
            assert manager.last_checkpoint().kind == stats.record.kind, arch

    def test_checkpoint_records_are_durable_across_crash(self):
        for arch in sorted(ARCHITECTURES):
            manager = make_manager(arch)
            tid = manager.begin()
            manager.write(tid, 0, b"x")
            manager.commit(tid)
            manager.take_checkpoint()
            manager.crash()
            manager.recover()
            assert manager.checkpoint_count() == 1, arch
            assert manager.read_committed(0) == b"x", arch

    def test_quiescent_policy_skips_under_load(self):
        manager = make_manager("versions")
        assert manager.checkpoint_policy is QuiescentCheckpoint
        tid = manager.begin()
        manager.write(tid, 0, b"x")
        stats = manager.take_checkpoint()
        assert stats.skipped and stats.reason == "active-transactions"
        assert manager.checkpoint_count() == 0
        manager.commit(tid)
        assert not manager.take_checkpoint().skipped

    def test_fuzzy_policy_records_active_transactions(self):
        manager = make_manager("wal")
        assert manager.checkpoint_policy is FuzzyCheckpoint
        tid = manager.begin()
        manager.write(tid, 0, b"x")
        stats = manager.take_checkpoint()
        assert not stats.skipped
        assert stats.record.active == (tid,)
        manager.commit(tid)

    def test_compaction_reclaims_recovery_data(self):
        manager = make_manager("wal")
        for _ in range(5):
            tid = manager.begin()
            manager.write(tid, 0, b"x")
            manager.commit(tid)
        volume = manager.recovery_volume()
        assert volume > 0
        stats = manager.take_checkpoint()
        assert stats.reclaimed > 0
        assert manager.recovery_volume() < volume

    def test_record_sequence_increments(self):
        manager = make_manager("shadow")
        first = manager.take_checkpoint()
        second = manager.take_checkpoint()
        assert (first.record.seq, second.record.seq) == (1, 2)
        records = manager.stable.read_file(CHECKPOINT_FILE)
        assert [CheckpointRecord(*r).seq for r in records] == [1, 2]


    def test_undeclared_manager_unsupported(self):
        class StrangeManager(RecoveryManager):
            name = "strange"
            checkpoint_unsupported = True

        with pytest.raises(CheckpointUnsupported):
            StrangeManager().take_checkpoint()


class TestScheduler:
    def test_rejects_degenerate_thresholds(self):
        with pytest.raises(ValueError):
            CheckpointScheduler(every_ops=0)

    def test_op_threshold_triggers(self):
        scheduler = CheckpointScheduler(every_ops=3)
        manager = make_manager("shadow")
        for _ in range(2):
            scheduler.note_op()
            assert scheduler.maybe_checkpoint(manager) is None
        scheduler.note_op()
        assert scheduler.due
        stats = scheduler.maybe_checkpoint(manager)
        assert stats is not None and not stats.skipped
        assert scheduler.taken == 1 and not scheduler.due

    def test_skip_keeps_the_checkpoint_due(self):
        scheduler = CheckpointScheduler(every_ops=1)
        manager = make_manager("versions")
        tid = manager.begin()
        manager.write(tid, 0, b"x")
        scheduler.note_op()
        stats = scheduler.maybe_checkpoint(manager)
        assert stats is not None and stats.skipped
        assert scheduler.due and scheduler.skipped == 1
        manager.commit(tid)
        stats = scheduler.maybe_checkpoint(manager)
        assert stats is not None and not stats.skipped
        assert scheduler.taken == 1 and not scheduler.due

    def test_sim_checkpointer_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            next(sim_checkpointer(None, None, 0))
