"""Sealed slots: ``StableStorage`` verifies an immutable record once.

A file slot that still holds the deeply immutable ("sealed") record its
checksum envelope was computed over reuses that sum on a read; every
other slot is re-encoded.  Two halves:

* an oracle property test against the original read path (kept below as
  :class:`ReferenceFiles`, which re-encodes every slot on every read):
  the same op sequences give the same results, errors and counters;
* unit tests that count ``record_checksum`` calls, pinning which reads
  are saved and which records are never memoised.
"""

import pickle
from typing import Any, Dict, List, NamedTuple, Optional

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.storage.stable as stable_module
from repro.faults import make_manager
from repro.integrity import (
    RecordIntegrityError,
    canonical_bytes,
    record_checksum,
    split_torn_tail,
    tamper_record,
)
from repro.storage.stable import StableStorage


class Entry(NamedTuple):
    tid: int
    page: int
    data: bytes


class IntSub(int):
    """An ``int`` subclass: its rendering could change, so never sealed."""


class Shifty(int):
    """An ``int`` subclass whose rendering *does* change."""

    def __str__(self):
        return self.label


class ListSub(list):
    pass


class TupleSub(tuple):
    """A plain tuple subclass (no ``_fields``): never sealed."""


class ReferenceFiles:
    """The original file half of ``StableStorage``: every read re-encodes
    every slot.  The oracle for the sealed read path."""

    def __init__(self) -> None:
        self._files: Dict[str, List[Any]] = {}
        self._file_sums: Dict[str, List[int]] = {}
        self.records_appended = 0
        self.records_read = 0
        self.checksum_failures = 0
        self.torn_tail_drops = 0
        self.corruptions_injected = 0

    def append(self, file: str, record: Any) -> None:
        self._files.setdefault(file, []).append(record)
        self._file_sums.setdefault(file, []).append(record_checksum(record))
        self.records_appended += 1

    def extend(self, file: str, records) -> None:
        records = list(records)
        self._files.setdefault(file, []).extend(records)
        self._file_sums.setdefault(file, []).extend(map(record_checksum, records))
        self.records_appended += len(records)

    def read_file(self, file: str) -> List[Any]:
        records = list(self._files.get(file, ()))
        sums = self._file_sums.get(file, [])
        computed = list(map(record_checksum, records))
        if computed != sums:
            bad = next(
                index
                for index, (got, want) in enumerate(zip(computed, sums))
                if got != want
            )
            self.records_read += bad
            self.checksum_failures += 1
            raise RecordIntegrityError(file, bad)
        self.records_read += len(records)
        return records

    def read_log(self, file: str) -> List[Any]:
        records = list(self._files.get(file, ()))
        sums = self._file_sums.get(file, [])
        computed = list(map(record_checksum, records))
        if computed == sums:
            self.records_read += len(records)
            return records
        keep, interior = split_torn_tail(
            [got == want for got, want in zip(computed, sums)]
        )
        if interior is not None:
            self.records_read += interior
            self.checksum_failures += 1
            raise RecordIntegrityError(file, interior)
        if keep < len(records):
            self.torn_tail_drops += len(records) - keep
        self.records_read += keep
        return records[:keep]

    def truncate(self, file: str, keep: Optional[List[Any]] = None) -> None:
        kept = list(keep or ())
        self._files[file] = kept
        self._file_sums[file] = list(map(record_checksum, kept))

    def scrub(self) -> Dict[str, Any]:
        bad_files = {}
        for name in sorted(self._files):
            sums = self._file_sums[name]
            bad = [
                index
                for index, record in enumerate(self._files[name])
                if record_checksum(record) != sums[index]
            ]
            if bad:
                bad_files[name] = bad
        return {"pages": [], "files": bad_files}

    def replace_record(self, file: str, index: int, record: Any) -> None:
        sums = self._file_sums.get(file, ())
        if not 0 <= index < len(sums):
            raise KeyError(f"cannot restore absent record {file}[{index}]")
        if record_checksum(record) != sums[index]:
            raise RecordIntegrityError(
                file, index, "repair candidate does not match the stored envelope"
            )
        self._files[file][index] = record
        self.records_appended += 1

    def corrupt_record(self, file: str, index: int) -> None:
        records = self._files.get(file, [])
        if not 0 <= index < len(records):
            raise KeyError(f"cannot corrupt absent record {file}[{index}]")
        records[index] = tamper_record(records[index])
        self.corruptions_injected += 1


# -- the oracle property -------------------------------------------------------

FILES = st.sampled_from(["log", "table"])
INDEXES = st.integers(min_value=0, max_value=7)
SCALARS = st.one_of(
    st.integers(min_value=-300, max_value=2**70),
    st.floats(),
    st.booleans(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.none(),
)
FLAT = st.lists(SCALARS, max_size=4).map(tuple)
NESTED = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
)
NAMED = st.builds(
    Entry,
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
    st.binary(max_size=3),
)
PAIRS = st.tuples(st.text(max_size=3), st.lists(FLAT, max_size=3))
UNSEALED_KINDS = st.one_of(
    st.builds(IntSub, st.integers(min_value=-9, max_value=9)),
    st.builds(ListSub, st.lists(SCALARS, max_size=3)),
    st.builds(TupleSub, st.lists(SCALARS, max_size=3)),
)
RECORDS = st.one_of(SCALARS, FLAT, NESTED, NAMED, PAIRS, UNSEALED_KINDS)
COUNTERS = (
    "records_read",
    "checksum_failures",
    "torn_tail_drops",
    "records_appended",
    "corruptions_injected",
)


def _encoded(record):
    return type(record), canonical_bytes(record)


def _outcome(call):
    """A comparable outcome: the returned value, or the raised error."""
    try:
        return "ok", call()
    except RecordIntegrityError as error:
        return "error", (type(error), error.file, error.index)
    except KeyError as error:
        return "error", (type(error), str(error))


class SealedReadContract(RuleBasedStateMachine):
    """``StableStorage`` and :class:`ReferenceFiles` driven in lockstep.

    Both stores hold the very same record objects, so in-place mutation
    of a stored archive pair reaches both, and the pickle round trip
    copies both (and the test's handles) in one memo."""

    def __init__(self):
        super().__init__()
        self.sut = StableStorage()
        self.ref = ReferenceFiles()
        #: Every record the test created, for truncate and repair picks.
        self.pool: List[Any] = []
        #: Per file, the records each slot was written with.
        self.written: Dict[str, List[Any]] = {}

    def _both(self, method, *args):
        got = _outcome(lambda: getattr(self.sut, method)(*args))
        want = _outcome(lambda: getattr(self.ref, method)(*args))
        assert got[0] == want[0], (method, got, want)
        if got[0] == "ok" and isinstance(got[1], list):
            # Compare encodings: NaN is unequal to itself.
            assert list(map(_encoded, got[1])) == list(map(_encoded, want[1]))
        else:
            assert got == want, (method, got, want)

    @rule(file=FILES, record=RECORDS)
    def append(self, file, record):
        self.pool.append(record)
        self.written.setdefault(file, []).append(record)
        self._both("append", file, record)

    @rule(file=FILES, records=st.lists(RECORDS, max_size=4))
    def extend(self, file, records):
        self.pool.extend(records)
        self.written.setdefault(file, []).extend(records)
        self._both("extend", file, records)

    @rule(
        file=FILES,
        picks=st.lists(st.integers(min_value=0, max_value=200), max_size=6),
        fresh=st.lists(RECORDS, max_size=3),
    )
    def truncate(self, file, picks, fresh):
        current = list(self.sut._files.get(file, ()))
        candidates = current + self.pool
        keep = [candidates[pick % len(candidates)] for pick in picks if candidates]
        keep += fresh
        self.pool.extend(fresh)
        self.written[file] = list(keep)
        self._both("truncate", file, keep)

    @rule(file=FILES, index=INDEXES)
    def corrupt_record(self, file, index):
        self._both("corrupt_record", file, index)

    @rule(
        file=FILES,
        index=INDEXES,
        how=st.sampled_from(["original", "copy", "pool"]),
        pick=st.integers(min_value=0, max_value=200),
    )
    def replace_record(self, file, index, how, pick):
        written = self.written.get(file, [])
        if how == "pool" or not 0 <= index < len(written):
            candidate = self.pool[pick % len(self.pool)] if self.pool else 0
        elif how == "original":
            candidate = written[index]
        else:  # an equal record that is a different object
            candidate = pickle.loads(pickle.dumps(written[index]))
        self._both("replace_record", file, index, candidate)

    @rule(pick=st.integers(min_value=0, max_value=200), item=FLAT)
    def mutate_archive_pair(self, pick, item):
        lists = [
            record[1]
            for record in self.pool
            if type(record) is tuple and len(record) == 2 and type(record[1]) is list
        ]
        if lists:
            target = lists[pick % len(lists)]
            if target and pick % 2:
                target[pick % len(target)] = item
            else:
                target.append(item)

    @rule()
    def pickle_round_trip(self):
        state = (self.sut, self.ref, self.pool, self.written)
        state = pickle.loads(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))
        self.sut, self.ref, self.pool, self.written = state

    @rule(file=FILES)
    def read_file(self, file):
        self._both("read_file", file)

    @rule(file=FILES)
    def read_log(self, file):
        self._both("read_log", file)

    @rule()
    def scrub(self):
        self._both("scrub")

    @invariant()
    def counters_agree(self):
        for name in COUNTERS:
            assert getattr(self.sut, name) == getattr(self.ref, name), name


TestSealedReadContract = SealedReadContract.TestCase
TestSealedReadContract.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


# -- the saved work, counted ----------------------------------------------------

@pytest.fixture
def checksums(monkeypatch):
    """Count ``record_checksum`` calls made by ``StableStorage``."""
    calls = [0]

    def counting(record):
        calls[0] += 1
        return record_checksum(record)

    monkeypatch.setattr(stable_module, "record_checksum", counting)

    def taken():
        count, calls[0] = calls[0], 0
        return count

    return taken


def _sealed_log():
    stable = StableStorage()
    stable.append("log", (1, "begin"))
    stable.extend("log", [Entry(1, 7, b"x"), (1, ("nested", 2.5, None)), 42])
    stable.append("log", (1, "commit"))
    return stable


class TestSavedWork:
    def test_clean_rereads_of_sealed_records_encode_nothing(self, checksums):
        stable = _sealed_log()
        assert checksums() == 5  # one envelope per record, at write time
        for _ in range(2):
            assert len(stable.read_file("log")) == 5
            assert len(stable.read_log("log")) == 5
        assert checksums() == 0
        assert stable.records_read == 20

    def test_archive_pair_is_reencoded_on_every_read(self, checksums):
        stable = _sealed_log()
        pages = [(3, b"image")]
        stable.append("log", ("pages", pages))
        checksums()
        stable.read_file("log")
        stable.read_log("log")
        assert checksums() == 2
        pages.append((4, b"rot through an alias"))
        with pytest.raises(RecordIntegrityError) as excinfo:
            stable.read_file("log")
        assert excinfo.value.index == 5

    def test_corrupted_slot_is_reencoded_and_raises(self, checksums):
        stable = _sealed_log()
        stable.corrupt_record("log", 2)
        checksums()
        with pytest.raises(RecordIntegrityError) as excinfo:
            stable.read_file("log")
        assert excinfo.value.index == 2
        assert checksums() == 1
        assert stable.checksum_failures == 1

    def test_repaired_slot_is_reencoded_and_reads_clean(self, checksums):
        stable = _sealed_log()
        stable.corrupt_record("log", 1)
        copy = Entry(1, 7, b"x")  # equal to the original, another object
        stable.replace_record("log", 1, copy)
        checksums()
        assert stable.read_file("log")[1] is copy
        assert checksums() == 1
        assert stable.checksum_failures == 0

    def test_truncate_reuses_the_sums_of_kept_sealed_records(self, checksums):
        stable = _sealed_log()
        kept = stable.read_file("log")[2:]
        checksums()
        stable.truncate("log", kept + [(2, "begin")])
        assert checksums() == 1  # only the fresh record
        assert stable.read_log("log") == kept + [(2, "begin")]
        assert checksums() == 0

    def test_truncate_reencodes_a_kept_corrupted_record(self, checksums):
        stable = _sealed_log()
        stable.corrupt_record("log", 0)
        rotted = stable._files["log"][0]
        checksums()
        stable.truncate("log", [rotted])
        assert checksums() == 1
        assert stable.read_file("log") == [rotted]

    def test_crashed_clone_keeps_the_fast_path(self, checksums):
        manager = make_manager("wal")
        tid = manager.begin()
        manager.write(tid, 1, b"x")
        manager.commit(tid)
        manager.crash()
        # The harness's clone of a crashed manager: a pickle round trip.
        clone = pickle.loads(pickle.dumps(manager, pickle.HIGHEST_PROTOCOL))
        files = clone.stable.files()
        assert files
        checksums()
        for name in files:
            clone.stable.read_log(name)
        assert checksums() == 0

    @pytest.mark.parametrize(
        "record",
        [IntSub(5), ListSub([1, 2]), TupleSub((1, 2)), (1, [2]), [1, 2]],
        ids=["int-subclass", "list-subclass", "tuple-subclass", "list-inside", "list"],
    )
    def test_unsealed_records_are_never_memoised(self, checksums, record):
        stable = StableStorage()
        stable.append("f", record)
        checksums()
        stable.read_file("f")
        stable.read_log("f")
        assert checksums() == 2

    def test_mutable_rendering_of_a_subclass_is_detected(self):
        shifty = Shifty(1)
        shifty.label = "a"
        stable = StableStorage()
        stable.append("f", (shifty, "x"))
        shifty.label = "b"
        with pytest.raises(RecordIntegrityError):
            stable.read_file("f")
