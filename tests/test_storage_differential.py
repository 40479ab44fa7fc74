"""Unit tests for the functional differential-file manager."""

import pytest

from repro.storage import DifferentialFileManager


@pytest.fixture
def diff():
    return DifferentialFileManager()


class TestTupleLevelApi:
    def test_insert_visible_after_commit(self, diff):
        tid = diff.begin()
        diff.insert(tid, "emp", ("alice", 1))
        assert diff.read_relation("emp") == frozenset()
        diff.commit(tid)
        assert diff.read_relation("emp") == {("alice", 1)}

    def test_read_your_writes_tuple_level(self, diff):
        tid = diff.begin()
        diff.insert(tid, "emp", ("bob", 2))
        assert diff.read_relation("emp", tid) == {("bob", 2)}

    def test_delete_appends_to_d_file(self, diff):
        t1 = diff.begin()
        diff.insert(t1, "emp", ("alice", 1))
        diff.commit(t1)
        t2 = diff.begin()
        diff.delete(t2, "emp", ("alice", 1))
        diff.commit(t2)
        assert diff.read_relation("emp") == frozenset()
        a, d = diff.differential_sizes()
        assert a == 1 and d == 1  # base never touched; both files grew

    def test_relations_are_independent(self, diff):
        tid = diff.begin()
        diff.insert(tid, "emp", ("a",))
        diff.insert(tid, "dept", ("d",))
        diff.commit(tid)
        assert diff.read_relation("emp") == {("a",)}
        assert diff.read_relation("dept") == {("d",)}

    def test_abort_discards_buffered_changes(self, diff):
        tid = diff.begin()
        diff.insert(tid, "emp", ("ghost",))
        diff.abort(tid)
        assert diff.read_relation("emp") == frozenset()
        assert diff.differential_sizes() == (0, 0)

    def test_view_semantics_b_union_a_minus_d(self, diff):
        # Seed the base file directly.
        diff.stable.append("base", ("emp", ("base-row",)))
        t1 = diff.begin()
        diff.insert(t1, "emp", ("added",))
        diff.delete(t1, "emp", ("base-row",))
        diff.commit(t1)
        assert diff.read_relation("emp") == {("added",)}


class TestCrashAtomicity:
    def test_uncommitted_buffer_lost(self, diff):
        tid = diff.begin()
        diff.insert(tid, "emp", ("ghost",))
        diff.crash()
        diff.recover()
        assert diff.read_relation("emp") == frozenset()

    def test_committed_survives(self, diff):
        tid = diff.begin()
        diff.insert(tid, "emp", ("kept",))
        diff.commit(tid)
        diff.crash()
        diff.recover()
        assert diff.read_relation("emp") == {("kept",)}

    def test_torn_append_run_truncated(self, diff):
        """A crash between the appends and the commit record leaves dead
        tid-tagged records; recovery sweeps them."""
        tid = diff.begin()
        diff.insert(tid, "emp", ("kept",))
        diff.commit(tid)
        # Simulate a torn commit: records appended, no commit record.
        diff.stable.append("a_file", ("add", 999, ("emp", ("torn",))))
        diff.crash()
        diff.recover()
        assert diff.read_relation("emp") == {("kept",)}
        a, _d = diff.differential_sizes()
        assert a == 1

    def test_partial_commit_never_splits_adds_from_dels(self, diff):
        """The commit point is one record in the shared commit file, so a
        crash can never commit a transaction's deletions without its
        additions (the failure mode of per-file commit markers)."""
        t1 = diff.begin()
        diff.insert(t1, "emp", ("old",))
        diff.commit(t1)
        t2 = diff.begin()
        diff.delete(t2, "emp", ("old",))
        diff.insert(t2, "emp", ("new",))
        # Simulate a crash mid-commit: records land, commit record does not.
        diff.stable.append("a_file", ("add", t2, ("emp", ("new",))))
        diff.stable.append("d_file", ("del", t2, ("emp", ("old",))))
        diff.crash()
        diff.recover()
        assert diff.read_relation("emp") == {("old",)}


class TestMerge:
    def test_merge_folds_diffs_into_base(self, diff):
        tid = diff.begin()
        diff.insert(tid, "emp", ("row1",))
        diff.insert(tid, "emp", ("row2",))
        diff.commit(tid)
        t2 = diff.begin()
        diff.delete(t2, "emp", ("row1",))
        diff.commit(t2)
        size = diff.merge()
        assert size == 1
        assert diff.differential_sizes() == (0, 0)
        assert diff.read_relation("emp") == {("row2",)}

    def test_merge_then_more_updates(self, diff):
        tid = diff.begin()
        diff.insert(tid, "emp", ("a",))
        diff.commit(tid)
        diff.merge()
        t2 = diff.begin()
        diff.insert(t2, "emp", ("b",))
        diff.commit(t2)
        assert diff.read_relation("emp") == {("a",), ("b",)}

    def test_merge_survives_crash(self, diff):
        tid = diff.begin()
        diff.insert(tid, "emp", ("m",))
        diff.commit(tid)
        diff.merge()
        diff.crash()
        diff.recover()
        assert diff.read_relation("emp") == {("m",)}


class TestPageAdapter:
    def test_page_write_read_cycle(self, diff):
        tid = diff.begin()
        diff.write(tid, 1, b"page-data")
        diff.commit(tid)
        assert diff.read_committed(1) == b"page-data"

    def test_rewrite_same_value_later(self, diff):
        """Re-inserting a previously deleted value must not vanish (the
        set-semantics pitfall; solved by version-stamped rows)."""
        for value in (b"x", b"y", b"x"):
            tid = diff.begin()
            diff.write(tid, 1, value)
            diff.commit(tid)
        assert diff.read_committed(1) == b"x"

    def test_differential_growth_per_update(self, diff):
        for i in range(3):
            tid = diff.begin()
            diff.write(tid, 1, b"%d" % i)
            diff.commit(tid)
        a, d = diff.differential_sizes()
        assert a == 3 and d == 2  # each rewrite deletes the previous row

    def test_resolved_transactions_leave_no_row_counter(self, diff):
        # Commit and abort both drop the transaction's version-stamp
        # counter; a crash is not needed to free it.
        for resolve in (diff.commit, diff.abort, diff.commit):
            tid = diff.begin()
            diff.write(tid, 1, b"v%d" % tid)
            resolve(tid)
        read_only = diff.begin()
        diff.commit(read_only)
        assert diff._txn_row_counter == {}
