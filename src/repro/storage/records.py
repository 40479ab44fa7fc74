"""Record codec: typed tuples <-> bytes.

A tiny self-describing row format so the B+tree can store Python
tuples of ints, floats, strings, bytes, bools, and None without pulling in
pickle (whose output is neither stable nor audit-friendly for a storage
engine).  Layout: field count, then per field a one-byte type tag and a
length-prefixed payload.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.integrity import IntegrityError

__all__ = ["RecordCodecError", "decode_record", "encode_record"]

_COUNT = struct.Struct("<H")
_LENGTH = struct.Struct("<I")
_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")

_TAG_NONE = b"N"
_TAG_BOOL = b"B"
_TAG_INT = b"I"
_TAG_BIGINT = b"J"
_TAG_FLOAT = b"F"
_TAG_STR = b"S"
_TAG_BYTES = b"Y"


class RecordCodecError(IntegrityError):
    """Raised for unsupported field types or corrupt record bytes.

    An :class:`~repro.integrity.IntegrityError` subclass: garbled bytes
    reaching the codec *are* silent corruption the checksum layer missed
    (or predates), so readers surface them as a typed integrity failure
    rather than an anonymous crash (docs/INTEGRITY.md).
    """


def encode_record(values: Tuple) -> bytes:
    """Serialize a tuple of supported field values."""
    parts = [_COUNT.pack(len(values))]
    for value in values:
        # bool before int: bool is an int subclass.
        if value is None:
            parts.append(_TAG_NONE)
        elif isinstance(value, bool):
            parts.append(_TAG_BOOL + (b"\x01" if value else b"\x00"))
        elif isinstance(value, int):
            if -(2**63) <= value < 2**63:
                parts.append(_TAG_INT + _INT.pack(value))
            else:
                payload = str(value).encode("ascii")
                parts.append(_TAG_BIGINT + _LENGTH.pack(len(payload)) + payload)
        elif isinstance(value, float):
            parts.append(_TAG_FLOAT + _FLOAT.pack(value))
        elif isinstance(value, str):
            payload = value.encode("utf-8")
            parts.append(_TAG_STR + _LENGTH.pack(len(payload)) + payload)
        elif isinstance(value, bytes):
            parts.append(_TAG_BYTES + _LENGTH.pack(len(value)) + value)
        else:
            raise RecordCodecError(
                f"unsupported field type {type(value).__name__}"
            )
    return b"".join(parts)


def decode_record(raw: bytes) -> Tuple:
    """Inverse of :func:`encode_record`."""
    try:
        (count,) = _COUNT.unpack_from(raw, 0)
        position = _COUNT.size
        values = []
        for _ in range(count):
            tag = raw[position : position + 1]
            position += 1
            if tag == _TAG_NONE:
                values.append(None)
            elif tag == _TAG_BOOL:
                values.append(raw[position] != 0)
                position += 1
            elif tag == _TAG_INT:
                (value,) = _INT.unpack_from(raw, position)
                values.append(value)
                position += _INT.size
            elif tag == _TAG_BIGINT:
                (length,) = _LENGTH.unpack_from(raw, position)
                position += _LENGTH.size
                values.append(int(raw[position : position + length]))
                position += length
            elif tag == _TAG_FLOAT:
                (value,) = _FLOAT.unpack_from(raw, position)
                values.append(value)
                position += _FLOAT.size
            elif tag == _TAG_STR:
                (length,) = _LENGTH.unpack_from(raw, position)
                position += _LENGTH.size
                values.append(raw[position : position + length].decode("utf-8"))
                position += length
            elif tag == _TAG_BYTES:
                (length,) = _LENGTH.unpack_from(raw, position)
                position += _LENGTH.size
                values.append(raw[position : position + length])
                position += length
            else:
                raise RecordCodecError(f"unknown field tag {tag!r}")
        if position != len(raw):
            raise RecordCodecError(
                f"{len(raw) - position} trailing bytes after record"
            )
        return tuple(values)
    except (struct.error, IndexError, UnicodeDecodeError, ValueError) as exc:
        raise RecordCodecError(f"corrupt record: {exc}") from exc
