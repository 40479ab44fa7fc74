"""Garbled bytes surface as typed integrity failures, not anonymous crashes.

Satellite of docs/INTEGRITY.md: :class:`RecordCodecError` is an
:class:`~repro.integrity.IntegrityError`, the codec raises it on
truncated or garbled input, and the B+tree's node decoder wraps it into
a *located* :class:`~repro.integrity.RecordIntegrityError`.
"""

import pytest

from repro.integrity import IntegrityError, RecordIntegrityError
from repro.storage import ShadowPageTableManager
from repro.storage.btree import BTree
from repro.storage.records import RecordCodecError, decode_record, encode_record


class TestCodecErrors:
    def test_codec_error_is_integrity_error(self):
        assert issubclass(RecordCodecError, IntegrityError)

    def test_round_trip(self):
        row = (1, "name", 2.5, None, True, b"\x00\xff", 2**70)
        assert decode_record(encode_record(row)) == row

    def test_truncated_bytes(self):
        raw = encode_record((1, "hello", 2.5))
        for cut in (1, len(raw) // 2, len(raw) - 1):
            with pytest.raises(RecordCodecError):
                decode_record(raw[:cut])

    def test_empty_bytes(self):
        with pytest.raises(RecordCodecError):
            decode_record(b"")

    def test_unknown_tag(self):
        raw = bytearray(encode_record((1,)))
        raw[2:3] = b"Z"  # clobber the first field's type tag
        with pytest.raises(RecordCodecError):
            decode_record(bytes(raw))

    def test_trailing_garbage(self):
        with pytest.raises(RecordCodecError):
            decode_record(encode_record((1,)) + b"junk")

    def test_garbled_bigint_payload(self):
        raw = bytearray(encode_record((2**70,)))
        raw[-1:] = b"x"  # non-digit inside the decimal payload
        with pytest.raises(RecordCodecError):
            decode_record(bytes(raw))

    def test_garbled_utf8_payload(self):
        raw = bytearray(encode_record(("hi",)))
        raw[-2:] = b"\xff\xfe"  # invalid UTF-8 in the string payload
        with pytest.raises(RecordCodecError):
            decode_record(bytes(raw))

    def test_unsupported_field_type(self):
        with pytest.raises(RecordCodecError):
            encode_record(({"a": 1},))


class TestBTreeDecode:
    def test_garbled_meta_surfaces_located_error(self):
        manager = ShadowPageTableManager()
        tree = BTree(manager, file_id=7)
        tid = manager.begin()
        tree.insert(tid, b"k", b"v")
        manager.commit(tid)
        # Clobber the tree's meta page through the manager it uses.
        tid = manager.begin()
        manager.write(tid, tree._meta_key(), b"\x01\x02not a record")
        manager.commit(tid)
        with pytest.raises(RecordIntegrityError) as excinfo:
            tree.search(None, b"k")
        assert "btree:7" in excinfo.value.file
