"""StableStorage's checksum envelopes, scrub probes, and targeted repair.

The storage-side half of docs/INTEGRITY.md: every stored value carries
an envelope, every verified read raises a typed error on mismatch, log
reads apply the torn-tail stop rule, and the ``restore_page`` /
``replace_record`` repair mutators accept only provably-original bits.
"""

import math

import pytest

from repro.integrity import PageIntegrityError, RecordIntegrityError
from repro.storage.stable import StableStorage


def make_store():
    stable = StableStorage()
    stable.write_page(1, b"one", seq=5)
    stable.write_page(2, b"two", seq=9)
    stable.append("log", (1, "begin"))
    stable.append("log", (1, "write", 7))
    stable.append("log", (1, "commit"))
    return stable


class TestVerifiedReads:
    def test_clean_reads_pass(self):
        stable = make_store()
        assert stable.read_page(1) == b"one"
        assert stable.read_file("log")[0] == (1, "begin")
        assert stable.checksum_failures == 0

    def test_corrupt_page_detected_on_read(self):
        stable = make_store()
        stable.corrupt_page(1)
        with pytest.raises(PageIntegrityError):
            stable.read_page(1)
        assert stable.checksum_failures == 1
        assert stable.corruptions_injected == 1

    def test_corrupt_record_detected_on_read_file(self):
        stable = make_store()
        stable.corrupt_record("log", 1)
        with pytest.raises(RecordIntegrityError) as excinfo:
            stable.read_file("log")
        assert excinfo.value.index == 1

    def test_failed_read_counts_only_the_verified_prefix(self):
        # read_file counts like read_log: records behind the first bad
        # one were never read.
        by_file, by_log = make_store(), make_store()
        for stable in (by_file, by_log):
            stable.corrupt_record("log", 1)
        with pytest.raises(RecordIntegrityError):
            by_file.read_file("log")
        with pytest.raises(RecordIntegrityError):
            by_log.read_log("log")
        assert by_file.records_read == by_log.records_read == 1
        assert by_file.checksum_failures == by_log.checksum_failures == 1

    def test_clean_read_file_counts_every_record(self):
        stable = make_store()
        stable.read_file("log")
        assert stable.records_read == 3

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, 1e17, -0.0, math.nan], ids=repr
    )
    def test_corrupt_float_record_detected_on_read(self, value):
        stable = StableStorage()
        stable.append("f", (value, "x"))
        stable.corrupt_record("f", 0)
        with pytest.raises(RecordIntegrityError):
            stable.read_file("f")
        assert stable.corruptions_injected == 1
        assert stable.checksum_failures == 1

    def test_absent_page_reads_empty(self):
        stable = StableStorage()
        assert stable.read_page(99) == b""

    def test_rewrite_heals_the_envelope(self):
        stable = make_store()
        stable.corrupt_page(1)
        stable.write_page(1, b"fresh")
        assert stable.read_page(1) == b"fresh"


class TestReadLog:
    def test_clean_log_fully_replayed(self):
        stable = make_store()
        assert len(stable.read_log("log")) == 3
        assert stable.torn_tail_drops == 0

    def test_corrupt_tail_dropped_as_torn(self):
        stable = make_store()
        stable.corrupt_record("log", 2)
        records = stable.read_log("log")
        assert len(records) == 2
        assert stable.torn_tail_drops == 1
        assert stable.checksum_failures == 0  # a tear is not a failure

    def test_interior_corruption_raises(self):
        stable = make_store()
        stable.corrupt_record("log", 0)
        with pytest.raises(RecordIntegrityError) as excinfo:
            stable.read_log("log")
        assert excinfo.value.index == 0
        assert stable.checksum_failures == 1

    def test_missing_log_is_empty(self):
        assert StableStorage().read_log("nope") == []


class TestScrubProbes:
    def test_clean_store_scrubs_clean(self):
        stable = make_store()
        assert stable.scrub() == {"pages": [], "files": {}}

    def test_scrub_locates_all_corruption(self):
        stable = make_store()
        stable.corrupt_page(2)
        stable.corrupt_record("log", 1)
        report = stable.scrub()
        assert report == {"pages": [2], "files": {"log": [1]}}
        # Probes never raise and never bump the failure counter.
        assert stable.checksum_failures == 0

    def test_verify_page_and_file(self):
        stable = make_store()
        assert stable.verify_page(1)
        assert stable.verify_page(404)  # absent pages are vacuously fine
        stable.corrupt_page(1)
        assert not stable.verify_page(1)
        assert stable.verify_file("log") == []
        stable.corrupt_record("log", 2)
        assert stable.verify_file("log") == [2]


class TestTargetedRepair:
    def test_page_matches_only_original_bits(self):
        stable = make_store()
        assert stable.page_matches(1, b"one")
        assert not stable.page_matches(1, b"stale")
        assert not stable.page_matches(404, b"one")

    def test_restore_page_heals_rot(self):
        stable = make_store()
        stable.corrupt_page(1)
        stable.restore_page(1, b"one")
        assert stable.read_page(1) == b"one"
        assert stable.page_seq(1) == 5  # seq survives the repair

    def test_restore_page_rejects_stale_candidate(self):
        stable = make_store()
        stable.corrupt_page(1)
        with pytest.raises(PageIntegrityError):
            stable.restore_page(1, b"stale bits")

    def test_restore_absent_page_raises(self):
        with pytest.raises(KeyError):
            StableStorage().restore_page(1, b"x")

    def test_replace_record_heals_rot(self):
        stable = make_store()
        stable.corrupt_record("log", 1)
        stable.replace_record("log", 1, (1, "write", 7))
        assert stable.read_file("log")[1] == (1, "write", 7)

    def test_replace_record_rejects_wrong_candidate(self):
        stable = make_store()
        stable.corrupt_record("log", 1)
        with pytest.raises(RecordIntegrityError):
            stable.replace_record("log", 1, (9, "bogus"))
        with pytest.raises(KeyError):
            stable.replace_record("log", 99, (1, "write", 7))


class TestCorruptionInjection:
    def test_corrupt_absent_targets_raise(self):
        stable = StableStorage()
        with pytest.raises(KeyError):
            stable.corrupt_page(1)
        with pytest.raises(KeyError):
            stable.corrupt_record("log", 0)

    def test_truncate_resets_envelopes(self):
        stable = make_store()
        stable.corrupt_record("log", 0)
        stable.truncate("log", [(2, "fresh")])
        assert stable.read_file("log") == [(2, "fresh")]
        assert stable.scrub() == {"pages": [], "files": {}}
