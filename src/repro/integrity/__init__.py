"""Content integrity: checksums, typed corruption errors, tamper helpers.

The paper's fault model — and PRs 1-9 of this reproduction — is
fail-stop: components crash, writes tear, disks die, but surviving bits
are trusted.  Real stable media also rots silently: a latent sector
error or a firmware bug flips bits *in place* and the first reader pays
for it.  Replay-heavy restarts (the redo-only and command-logging
designs re-read long log suffixes) make one undetected bad record fatal
to every architecture in the shoot-out.

This package is the **detection** half of the integrity story:

* :func:`page_checksum` / :func:`record_checksum` — CRC32 content sums
  over page images and log records (:func:`canonical_bytes` gives
  records a deterministic byte form first);
* :class:`PageIntegrityError` / :class:`RecordIntegrityError` — the
  typed failures every verified read raises on a mismatch, so replay
  surfaces corruption instead of silently trusting it;
* :func:`split_torn_tail` — the log stop rule: a *contiguous corrupt
  suffix* is indistinguishable from a torn final flush and truncates;
  corruption strictly *inside* the clean prefix is rot and must raise;
* :func:`tamper_bytes` / :func:`tamper_record` — the deterministic
  corruption model (what a ``corrupt.*`` fault does to a stored value).

The **repair** half lives above: ``repro.storage`` managers repair
single pages from the archive (``repair_page_from_archive``) or escalate
to full archive+log media recovery, and ``repro.resilience.scrubber``
patrols the simulated mirrored disks.  ``docs/INTEGRITY.md`` has the
design and the scrubtest oracles.

This module sits *below* the storage layer (API02 layer 0) so both the
storage managers and the hardware models can import it.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "IntegrityError",
    "PageIntegrityError",
    "RecordIntegrityError",
    "canonical_bytes",
    "page_checksum",
    "record_checksum",
    "split_torn_tail",
    "tamper_bytes",
    "tamper_record",
]


class IntegrityError(Exception):
    """A stored value failed its content checksum (silent corruption)."""


class PageIntegrityError(IntegrityError):
    """A stable page image no longer matches its checksum envelope."""

    def __init__(self, page: int, message: str = "checksum mismatch"):
        super().__init__(f"page {page}: {message}")
        self.page = page


class RecordIntegrityError(IntegrityError):
    """A stable log/file record no longer matches its checksum envelope,
    or its byte encoding no longer decodes (surfaced from the codec)."""

    def __init__(self, file: str, index: int, message: str = "checksum mismatch"):
        super().__init__(f"record {file}[{index}]: {message}")
        self.file = file
        self.index = index


# -- checksums ---------------------------------------------------------------

def page_checksum(data: bytes) -> int:
    """The checksum envelope of a page image (CRC32 over the raw bytes)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def canonical_bytes(value: Any) -> bytes:
    """A deterministic byte form of a record value, for checksumming.

    Records are plain Python values (tuples of scalars, possibly nested;
    NamedTuple instances; ``(name, [records])`` archive pairs).  The
    encoding is type-tagged so values that compare equal across types
    (``1``/``1.0``/``True``) still sum differently.  The bytes are a
    pinned contract: every stored envelope was computed over them
    (docs/INTEGRITY.md).
    """
    parts: List[bytes] = []
    _encode(value, parts.append)
    return b"".join(parts)


def _encode(value: Any, append: Callable[[bytes], None]) -> None:
    """Append ``value``'s canonical parts; exact scalar items of a
    sequence are inlined so a flat record costs no recursive call.

    Testing for a sequence first keeps the original chain's order: no
    class can subclass both tuple/list and a scalar type (their instance
    layouts conflict)."""
    kind = type(value)
    if kind is tuple or kind is list or isinstance(value, (tuple, list)):
        append(b"(")
        for item in value:
            kind = type(item)
            if kind is int:
                append(b"I%d;" % item)
            elif kind is str:
                raw = item.encode("utf-8")
                append(b"S%d:%b" % (len(raw), raw))
            elif kind is bytes:
                append(b"B%d:%b" % (len(item), item))
            elif item is None:
                append(b"N")
            else:
                _encode(item, append)
        append(b")")
    elif kind is int:
        append(b"I%d;" % value)
    elif kind is str:
        raw = value.encode("utf-8")
        append(b"S%d:%b" % (len(raw), raw))
    elif kind is bytes:
        append(b"B%d:%b" % (len(value), value))
    else:
        append(_scalar_bytes(value))


def _scalar_bytes(value: Any) -> bytes:
    """The encoding of any scalar, subclasses included (bool before int)."""
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
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for checksumming"
    )


def record_checksum(record: Any) -> int:
    """The checksum envelope of one log/file record."""
    return zlib.crc32(canonical_bytes(record)) & 0xFFFFFFFF


# -- the log stop rule -------------------------------------------------------

def split_torn_tail(ok: Sequence[bool]) -> Tuple[int, Optional[int]]:
    """Apply the log stop rule to per-record verification flags.

    Returns ``(keep, interior)``: ``keep`` is the length of the clean
    prefix replay may trust, and ``interior`` is the index of the first
    corrupt record *inside* that prefix's shadow — i.e. a corrupt record
    with a clean record after it — or ``None``.

    A contiguous corrupt *suffix* is the torn-tail case (the final flush
    never fully landed; dropping it loses nothing a crash would not have
    lost anyway).  A corrupt record *followed by clean ones* cannot be a
    tear — later appends landed fine — so it is rot inside committed
    history and the caller must raise, not truncate.
    """
    keep = len(ok)
    while keep and not ok[keep - 1]:
        keep -= 1
    for index in range(keep):
        if not ok[index]:
            return keep, index
    return keep, None


# -- the corruption model ----------------------------------------------------

def tamper_bytes(data: bytes, position: int = 0) -> bytes:
    """Flip one byte of ``data`` (the latent-sector-error bit flip).

    Empty images get a single junk byte so the tamper is never a no-op.
    """
    if not data:
        return b"\xff"
    position %= len(data)
    flipped = data[position] ^ 0xFF
    return data[:position] + bytes([flipped]) + data[position + 1 :]


def tamper_record(record: Any) -> Any:
    """Deterministically mutate a record value without touching its sum.

    The mutated value keeps the record's shape (same arity for tuples)
    so downstream decoders fail on *content*, not on unpacking — the
    realistic silent-corruption mode.
    """
    if isinstance(record, tuple):
        if not record:
            return ("\x00rot",)
        items = (tamper_record(record[0]),) + tuple(record[1:])
        if hasattr(record, "_fields"):  # NamedTuple: positional constructor
            return type(record)(*items)
        return items
    if isinstance(record, list):
        return [tamper_record(record[0])] + list(record[1:]) if record else ["\x00rot"]
    if isinstance(record, bool):
        return not record
    if isinstance(record, int):
        return record ^ 0x2A
    if isinstance(record, float):
        if record != record:
            return 0.0  # every NaN encodes as "nan": move off NaN entirely
        # Flip the lowest mantissa bit: ``record + 1.0`` is a no-op on
        # infinities and on magnitudes of 2**53 and up.
        (bits,) = struct.unpack("<Q", struct.pack("<d", record))
        return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]
    if isinstance(record, str):
        return ("\x01" if record[:1] == "\x00" else "\x00") + record[1:]
    if isinstance(record, bytes):
        return tamper_bytes(record)
    if record is None:
        return "\x00rot"
    return record
