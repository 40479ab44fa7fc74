"""Media-recovery parity: every manager survives losing its data disks.

The WAL manager has dump + archive-log roll-forward (covered in
test_storage_media_recovery.py); the other four get the dump-only
counterpart from :class:`ArchiveDumpMixin`.  These tests pin the shared
surface — same method names, same restart discipline, same ``media.*``
fault points — and the dump-only semantics: committed work *after* the
last dump rolls back, because a no-log architecture has nothing to roll
forward with.
"""

import pytest

from repro.faults import ARCHITECTURES, make_manager, recover_with_recrash
from repro.storage import ArchiveDumpMixin
from repro.storage.errors import RecoveryStateError

MIXIN_ARCHS = ["shadow", "versions", "overwrite", "differential"]


@pytest.fixture(params=MIXIN_ARCHS)
def manager(request):
    return make_manager(request.param)


def committed_write(manager, page, data):
    tid = manager.begin()
    manager.write(tid, page, data)
    manager.commit(tid)


class TestUniformSurface:
    def test_every_architecture_has_media_recovery(self):
        for arch in sorted(ARCHITECTURES):
            mgr = make_manager(arch)
            assert callable(mgr.dump)
            assert callable(mgr.recover_from_media_failure)

    def test_mixin_archs_use_the_dump_only_scheme(self):
        for arch in MIXIN_ARCHS:
            assert isinstance(make_manager(arch), ArchiveDumpMixin)

    def test_restore_without_dump_rejected(self, manager):
        committed_write(manager, 1, b"one")
        with pytest.raises(RecoveryStateError):
            manager.recover_from_media_failure()


class TestDumpRestore:
    def test_dump_then_restore_round_trips(self, manager):
        committed_write(manager, 1, b"one")
        committed_write(manager, 2, b"two")
        stats = manager.dump()
        # Differential keeps tuples in files, the rest in pages; either
        # way the snapshot must be non-empty.
        assert stats["pages"] + stats["files"] >= 1
        manager.recover_from_media_failure()
        assert manager.read_committed(1) == b"one"
        assert manager.read_committed(2) == b"two"

    def test_work_after_dump_rolls_back(self, manager):
        """The defining cost of no-log media recovery (paper Section 5)."""
        committed_write(manager, 1, b"archived")
        manager.dump()
        committed_write(manager, 1, b"lost")
        committed_write(manager, 3, b"also-lost")
        manager.recover_from_media_failure()
        assert manager.read_committed(1) == b"archived"
        assert manager.read_committed(3) == b""

    def test_uncommitted_at_dump_time_erased(self, manager):
        committed_write(manager, 1, b"good")
        tid = manager.begin()
        manager.write(tid, 1, b"dirty")
        manager.dump()
        manager.recover_from_media_failure()
        assert manager.read_committed(1) == b"good"

    def test_redump_overwrites_older_archive(self, manager):
        committed_write(manager, 1, b"v1")
        manager.dump()
        committed_write(manager, 1, b"v2")
        manager.dump()
        manager.recover_from_media_failure()
        assert manager.read_committed(1) == b"v2"

    def test_normal_operation_continues_after_restore(self, manager):
        committed_write(manager, 1, b"one")
        manager.dump()
        manager.recover_from_media_failure()
        committed_write(manager, 2, b"after")
        manager.crash()
        manager.recover()
        assert manager.read_committed(1) == b"one"
        assert manager.read_committed(2) == b"after"

    def test_survivors_can_begin_fresh_after_restore(self, manager):
        """Restore is a restart: the lock table must come back empty."""
        committed_write(manager, 1, b"one")
        tid = manager.begin()
        manager.write(tid, 1, b"in-flight")
        manager.dump()
        manager.recover_from_media_failure()
        replacement = manager.begin()
        manager.write(replacement, 1, b"retry")  # stale lock would conflict
        manager.commit(replacement)
        assert manager.read_committed(1) == b"retry"


class TestCrashDuringRestore:
    @pytest.mark.parametrize("arch", MIXIN_ARCHS + ["wal"])
    def test_restore_converges_after_mid_restore_crash(self, arch):
        manager = make_manager(arch)
        committed_write(manager, 1, b"one")
        committed_write(manager, 2, b"two")
        manager.dump()
        # The restore crashes mid-way and re-runs: the archive is intact.
        assert recover_with_recrash(
            manager, 1, "media.restore.*", manager.recover_from_media_failure
        )
        assert manager.read_committed(1) == b"one"
        assert manager.read_committed(2) == b"two"

    @pytest.mark.parametrize("arch", MIXIN_ARCHS + ["wal"])
    def test_dump_fault_points_cross(self, arch):
        manager = make_manager(arch)
        committed_write(manager, 1, b"one")
        crossed = []
        manager.set_fault_callback(crossed.append)
        manager.dump()
        manager.set_fault_callback(None)
        assert any(name.startswith("media.dump.") for name in crossed)
