"""Unit tests for the ``repro.integrity`` primitives.

Checksums, the canonical byte form, the torn-tail stop rule, and the
deterministic tamper helpers — the detection half of docs/INTEGRITY.md.
"""

import math
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integrity import (
    IntegrityError,
    PageIntegrityError,
    RecordIntegrityError,
    canonical_bytes,
    page_checksum,
    record_checksum,
    split_torn_tail,
    tamper_bytes,
    tamper_record,
)


class TestCanonicalBytes:
    def test_scalars_round_trip_distinctly(self):
        values = [None, True, False, 0, 1, -7, 1.0, 0.5, "", "a", b"", b"a"]
        encoded = [canonical_bytes(v) for v in values]
        assert len(set(encoded)) == len(values)

    def test_type_tagged_across_equal_values(self):
        # 1 == 1.0 == True in Python; their byte forms must differ.
        assert canonical_bytes(1) != canonical_bytes(1.0)
        assert canonical_bytes(1) != canonical_bytes(True)
        assert canonical_bytes(0) != canonical_bytes(False)

    def test_nesting_and_sequences(self):
        assert canonical_bytes((1, "x")) == canonical_bytes([1, "x"])
        assert canonical_bytes(((1,), 2)) != canonical_bytes((1, (2,)))
        assert canonical_bytes(()) == b"()"

    def test_string_length_prefix_prevents_ambiguity(self):
        assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes({"a": 1})

    def test_deterministic(self):
        record = (1, "op", (2.5, None, b"\x00\xff"), True)
        assert canonical_bytes(record) == canonical_bytes(record)


class _Rec(NamedTuple):
    tid: int
    kind: str


class _Small(int):
    """A plain ``int`` subclass: encoded through the ``isinstance`` chain."""


class _Real(float):
    pass


class _Text(str):
    pass


class _Blob(bytes):
    pass


#: Exact expected bytes: stored envelopes were computed over this
#: encoding, so no byte of it may ever move.
GOLDEN = [
    (None, b"N"),
    (True, b"T"),
    (False, b"F"),
    (0, b"I0;"),
    (-7, b"I-7;"),
    (2**70, b"I1180591620717411303424;"),
    (0.5, b"D0.5;"),
    (-0.0, b"D-0.0;"),
    (math.inf, b"Dinf;"),
    (math.nan, b"Dnan;"),
    ("", b"S0:"),
    ("\u00e9", b"S2:\xc3\xa9"),
    (b"", b"B0:"),
    (b"\x00\xff", b"B2:\x00\xff"),
    ([], b"()"),
    ((), b"()"),
    ((1, ["a", (b"x", None)], True, 2.0), b"(I1;(S1:a(B1:xN))TD2.0;)"),
    (("log", _Rec(3, "commit")), b"(S3:log(I3;S6:commit))"),
    (_Small(5), b"I5;"),
]
GOLDEN_IDS = [repr(value) for value, _ in GOLDEN]


def _reference_encoding(value: Any) -> bytes:
    """The original recursive encoder, kept verbatim as the oracle."""
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"T" if value else b"F"
    if isinstance(value, int):
        return b"I" + str(value).encode("ascii") + b";"
    if isinstance(value, float):
        return b"D" + repr(value).encode("ascii") + b";"
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + str(len(raw)).encode("ascii") + b":" + raw
    if isinstance(value, bytes):
        return b"B" + str(len(value)).encode("ascii") + b":" + value
    if isinstance(value, (tuple, list)):
        inner = b"".join(_reference_encoding(item) for item in value)
        return b"(" + inner + b")"
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for checksumming"
    )


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(_Small),
    st.floats(),
    st.floats().map(_Real),
    st.text(),
    st.text().map(_Text),
    st.binary(),
    st.binary().map(_Blob),
)

_RECORDS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.builds(_Rec, children, children),
    ),
    max_leaves=20,
)


class TestCanonicalEncodingContract:
    @pytest.mark.parametrize("value, expected", GOLDEN, ids=GOLDEN_IDS)
    def test_golden_vectors(self, value, expected):
        assert canonical_bytes(value) == expected

    @pytest.mark.parametrize("value, expected", GOLDEN, ids=GOLDEN_IDS)
    def test_golden_vectors_inside_a_record(self, value, expected):
        # The same bytes whether a value is a record or an item of one.
        assert canonical_bytes((value,)) == b"(" + expected + b")"

    @settings(max_examples=300, deadline=None)
    @given(_RECORDS)
    def test_matches_the_reference_encoder(self, value):
        assert canonical_bytes(value) == _reference_encoding(value)

    @pytest.mark.parametrize("bad", [{"a": 1}, {1}, bytearray(b"x"), object()])
    def test_unsupported_types_raise_at_any_depth(self, bad):
        for value in (bad, (1, bad), [("x", [bad])]):
            with pytest.raises(TypeError, match="cannot canonicalize"):
                canonical_bytes(value)


class TestChecksums:
    def test_page_checksum_detects_a_flip(self):
        data = b"page image bytes"
        assert page_checksum(data) != page_checksum(tamper_bytes(data))

    def test_record_checksum_detects_a_tamper(self):
        record = (7, "write", 3, b"abc")
        assert record_checksum(record) != record_checksum(tamper_record(record))

    def test_checksums_fit_uint32(self):
        for value in (b"", b"x" * 1000):
            assert 0 <= page_checksum(value) < 2**32


class TestSplitTornTail:
    def test_clean_log(self):
        assert split_torn_tail([True, True, True]) == (3, None)

    def test_empty_log(self):
        assert split_torn_tail([]) == (0, None)

    def test_corrupt_suffix_is_a_tear(self):
        assert split_torn_tail([True, True, False]) == (2, None)
        assert split_torn_tail([True, False, False]) == (1, None)
        assert split_torn_tail([False, False]) == (0, None)

    def test_interior_corruption_is_rot(self):
        keep, interior = split_torn_tail([True, False, True])
        assert keep == 3
        assert interior == 1

    def test_interior_wins_over_tail(self):
        # Rot at 0, clean at 1, tear at 2-3: the prefix of length 2 still
        # contains the rot, which must surface before any truncation.
        keep, interior = split_torn_tail([False, True, False, False])
        assert keep == 2
        assert interior == 0


class TestTamper:
    def test_tamper_bytes_changes_exactly_one_byte(self):
        data = b"abcdef"
        tampered = tamper_bytes(data, 2)
        assert len(tampered) == len(data)
        assert sum(a != b for a, b in zip(data, tampered)) == 1

    def test_tamper_bytes_empty_never_noop(self):
        assert tamper_bytes(b"") != b""

    def test_tamper_bytes_position_wraps(self):
        assert tamper_bytes(b"ab", 5) == tamper_bytes(b"ab", 1)

    def test_tamper_record_keeps_tuple_shape(self):
        record = (1, "op", 2.0)
        tampered = tamper_record(record)
        assert isinstance(tampered, tuple)
        assert len(tampered) == len(record)
        assert tampered != record

    def test_tamper_record_namedtuple_keeps_type(self):
        class Rec(NamedTuple):
            tid: int
            kind: str

        tampered = tamper_record(Rec(3, "commit"))
        assert isinstance(tampered, Rec)
        assert tampered != Rec(3, "commit")

    def test_tamper_record_scalars_change(self):
        for value in (0, 1, True, False, 1.5, "abc", "", b"xy", None):
            assert tamper_record(value) != value

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, 1e17, -1e17, 2.0**53, 0.0, -0.0, math.nan]
    )
    def test_tamper_record_float_always_changes_the_encoding(self, value):
        # ``value + 1.0`` is a no-op on infinities and on magnitudes of
        # 2**53 and up; a tamper the checksum cannot see is no tamper.
        assert canonical_bytes(tamper_record(value)) != canonical_bytes(value)
        record = (value, "x")
        assert record_checksum(tamper_record(record)) != record_checksum(record)

    @pytest.mark.parametrize("value", ["\x00", "\x00abc", "\x01", ""])
    def test_tamper_record_str_always_changes(self, value):
        assert tamper_record(value) != value

    def test_tamper_is_deterministic(self):
        record = (1, ["a", "b"], None)
        assert tamper_record(record) == tamper_record(record)


class TestErrorTypes:
    def test_hierarchy(self):
        assert issubclass(PageIntegrityError, IntegrityError)
        assert issubclass(RecordIntegrityError, IntegrityError)

    def test_page_error_carries_location(self):
        error = PageIntegrityError(42)
        assert error.page == 42
        assert "42" in str(error)

    def test_record_error_carries_location(self):
        error = RecordIntegrityError("log", 7)
        assert (error.file, error.index) == ("log", 7)
        assert "log[7]" in str(error)
