"""Stable storage: what survives a crash.

A :class:`StableStorage` instance models the disk: a page store with
atomic single-page writes, plus named append-only *files* (logs, scratch
rings, transaction lists, differential files).  Everything here survives
:py:meth:`~repro.storage.interface.RecoveryManager.crash`; volatile state
lives in the managers and is wiped.

Page contents are opaque ``bytes``; managers that need structure encode it
themselves (keeping the volatile/stable boundary honest).

Every stored value carries a **checksum envelope** (``repro.integrity``):
the sum is computed at write time and verified on every read, so silent
corruption — injected by :meth:`StableStorage.corrupt_page` /
:meth:`StableStorage.corrupt_record`, modeling latent sector errors — is
*detected* at the first read instead of silently trusted.  Log replay
reads go through :meth:`read_log`, which additionally applies the
torn-tail stop rule (see :func:`repro.integrity.split_torn_tail` and
docs/INTEGRITY.md).

A file read verifies every slot, but encodes a slot only when it might
have changed.  Each slot remembers the record object its sum was
computed over when that object is *sealed* — deeply immutable (exact
scalars inside exact tuples or NamedTuples), so its canonical bytes can
never move.  A slot still holding that very object reuses its sum; any
change to a slot (corruption, repair, an unsealed record such as a
``(name, [records])`` archive pair) puts a different or mutable object
there, and the slot is re-encoded exactly as if nothing were
remembered.  The scrub probes and repair checks always re-encode.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Optional, Tuple

from repro.integrity import (
    PageIntegrityError,
    RecordIntegrityError,
    page_checksum,
    record_checksum,
    split_torn_tail,
    tamper_bytes,
    tamper_record,
)

__all__ = ["StableStorage"]

#: Exact types whose instances cannot change (subclasses may override
#: ``__str__`` or carry state, so they are excluded).
_SCALARS = frozenset((int, float, bool, str, bytes, type(None)))
#: The seal of a slot whose record is not sealed: never a stored record.
_UNSEALED = object()


def _sealed(value: Any) -> bool:
    """Can ``value``'s canonical bytes never change?  True for exact
    scalars, and for exact tuples and NamedTuples of sealed items."""
    kind = type(value)
    if kind in _SCALARS:
        return True
    if kind is tuple or (
        isinstance(value, tuple)
        and hasattr(kind, "_fields")
        and kind.__iter__ is tuple.__iter__
    ):
        return _SCALARS.issuperset(map(type, value)) or all(map(_sealed, value))
    return False


class StableStorage:
    """Crash-surviving page store and append-only files."""

    def __init__(self) -> None:
        self._pages: Dict[int, Tuple[bytes, int]] = {}
        self._files: Dict[str, List[Any]] = {}
        #: Checksum envelopes, stored beside (not inside) the values so
        #: page images and file contents render exactly as before.
        self._page_sums: Dict[int, int] = {}
        self._file_sums: Dict[str, List[int]] = {}
        #: Per file slot: the sealed record its sum was computed over,
        #: or ``_UNSEALED`` (see the module docstring).
        self._file_sealed: Dict[str, List[Any]] = {}
        #: Cumulative I/O counters (for recovery-cost instrumentation).
        self.page_writes = 0
        self.page_reads = 0
        self.records_appended = 0
        self.records_read = 0
        #: Integrity counters (for the scrubtest detection accounting).
        self.checksum_failures = 0
        self.torn_tail_drops = 0
        self.corruptions_injected = 0

    # -- page store ----------------------------------------------------------
    def write_page(self, page: int, data: bytes, seq: int = 0) -> None:
        """Atomically overwrite ``page`` (a single-page disk write).

        ``seq`` is the page's update sequence number; write-ahead-logging
        managers use it to decide whether a log record is already reflected.
        """
        if not isinstance(data, bytes):
            raise TypeError(f"page data must be bytes, got {type(data).__name__}")
        self._pages[page] = (data, seq)
        self._page_sums[page] = page_checksum(data)
        self.page_writes += 1

    def read_page(self, page: int) -> bytes:
        data, _seq = self._pages.get(page, (b"", 0))
        self.page_reads += 1
        if page in self._pages and self._page_sums[page] != page_checksum(data):
            self.checksum_failures += 1
            raise PageIntegrityError(page)
        return data

    def page_seq(self, page: int) -> int:
        _data, seq = self._pages.get(page, (b"", 0))
        return seq

    def delete_page(self, page: int) -> None:
        """Drop ``page`` from the page store (space reclamation; free-map
        bookkeeping is not charged as a data-page write)."""
        self._pages.pop(page, None)
        self._page_sums.pop(page, None)

    @property
    def pages(self) -> Dict[int, bytes]:
        """A snapshot of all page contents (for assertions in tests)."""
        return {page: data for page, (data, _seq) in self._pages.items()}

    # -- append-only files ------------------------------------------------------
    def append(self, file: str, record: Any) -> None:
        """Append one record to a named file (forced; survives crash)."""
        self._files.setdefault(file, []).append(record)
        self._file_sums.setdefault(file, []).append(record_checksum(record))
        self._file_sealed.setdefault(file, []).append(
            record if _sealed(record) else _UNSEALED
        )
        self.records_appended += 1

    def extend(self, file: str, records) -> None:
        records = list(records)
        self._files.setdefault(file, []).extend(records)
        self._file_sums.setdefault(file, []).extend(map(record_checksum, records))
        self._file_sealed.setdefault(file, []).extend(
            record if _sealed(record) else _UNSEALED for record in records
        )
        self.records_appended += len(records)

    def _current_sums(
        self, file: str, records: List[Any], sums: List[int]
    ) -> List[int]:
        """The sums ``file``'s ``records`` encode to now: a slot still
        holding its sealed record reuses its stored sum (in ``sums``; the
        bytes cannot have moved), every other slot is re-encoded."""
        sealed = self._file_sealed.get(file, [])
        if len(records) == len(sealed) and all(map(operator.is_, records, sealed)):
            return sums
        return [
            stored if record is seal else record_checksum(record)
            for record, seal, stored in zip(records, sealed, sums)
        ]

    def read_file(self, file: str) -> List[Any]:
        """The full contents of a file (empty if never written).

        Every record is verified against its checksum envelope; a
        mismatch anywhere raises :class:`RecordIntegrityError` — plain
        files (page tables, transaction lists, archives) have no
        torn-tail excuse, unlike logs (:meth:`read_log`).  A slot still
        holding the sealed record its sum was computed over is verified
        without re-encoding; every other slot is re-encoded.
        """
        records = list(self._files.get(file, ()))
        sums = self._file_sums.get(file, [])
        computed = self._current_sums(file, records, sums)
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
        """A log's replayable prefix, under the torn-tail stop rule.

        A contiguous corrupt *suffix* is indistinguishable from the final
        flush tearing at the crash: it is dropped (counted in
        ``torn_tail_drops``) and replay proceeds on the clean prefix.
        A corrupt record *followed by clean ones* cannot be a tear — it
        is rot inside committed history — and raises
        :class:`RecordIntegrityError` so restart escalates to media
        recovery instead of replaying poisoned state.  Slots are verified
        as in :meth:`read_file`.
        """
        records = list(self._files.get(file, ()))
        sums = self._file_sums.get(file, [])
        computed = self._current_sums(file, records, sums)
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
        """Replace a file's contents with ``keep`` (default: empty).

        A kept record that is the sealed record of an old slot keeps that
        slot's sum; every other record is encoded afresh.
        """
        kept = list(keep or ())
        # The old seals stay alive through the loop, so a kept record with
        # a seal's id is that very seal (the unsealed marker is never kept).
        seals = self._file_sealed.get(file, ()) if kept else ()
        reuse = dict(zip(map(id, seals), self._file_sums.get(file, ())))
        sums: List[int] = []
        sealed: List[Any] = []
        for record in kept:
            stored = reuse.get(id(record))
            if stored is not None:
                sums.append(stored)
                sealed.append(record)
            else:
                sums.append(record_checksum(record))
                sealed.append(record if _sealed(record) else _UNSEALED)
        self._files[file] = kept
        self._file_sums[file] = sums
        self._file_sealed[file] = sealed

    def file_length(self, file: str) -> int:
        return len(self._files.get(file, ()))

    def files(self) -> List[str]:
        return sorted(self._files)

    # -- integrity: scrub probes and corruption injection -----------------------
    def verify_page(self, page: int) -> bool:
        """Non-raising scrub probe: does ``page`` match its envelope?"""
        if page not in self._pages:
            return True
        data, _seq = self._pages[page]
        return self._page_sums[page] == page_checksum(data)

    def verify_file(self, file: str) -> List[int]:
        """Non-raising scrub probe: indexes of corrupt records in ``file``."""
        sums = self._file_sums.get(file, ())
        return [
            index
            for index, record in enumerate(self._files.get(file, ()))
            if record_checksum(record) != sums[index]
        ]

    def scrub(self) -> Dict[str, Any]:
        """One full integrity scan: every page, every file, no raises.

        Returns ``{"pages": [page, ...], "files": {name: [index, ...]}}``
        listing only corrupt entries, deterministically ordered.
        """
        bad_pages = [
            page for page in sorted(self._pages) if not self.verify_page(page)
        ]
        bad_files = {}
        for name in self.files():
            bad = self.verify_file(name)
            if bad:
                bad_files[name] = bad
        return {"pages": bad_pages, "files": bad_files}

    def page_matches(self, page: int, data: bytes) -> bool:
        """Is ``data`` exactly the bits ``page``'s envelope was computed
        over?  True means an archive copy is a sound repair candidate —
        the page has not been legitimately rewritten since."""
        return page in self._pages and self._page_sums[page] == page_checksum(data)

    def record_matches(self, file: str, index: int, record: Any) -> bool:
        """Is ``record`` exactly what ``file``'s envelope at ``index``
        was computed over?  (Repair-candidate probe, like
        :meth:`page_matches`.)"""
        sums = self._file_sums.get(file, ())
        return 0 <= index < len(sums) and record_checksum(record) == sums[index]

    def restore_page(self, page: int, data: bytes) -> None:
        """Targeted repair: rewrite a rotted page with a verified copy.

        Unlike :meth:`write_page` the envelope is *not* recomputed — the
        candidate must match the stored envelope (:meth:`page_matches`),
        proving it is the original bits; a stale or wrong candidate
        raises :class:`PageIntegrityError` instead of masking the rot.
        """
        if page not in self._pages:
            raise KeyError(f"cannot restore absent page {page}")
        if self._page_sums[page] != page_checksum(data):
            raise PageIntegrityError(
                page, "repair candidate does not match the stored envelope"
            )
        _old, seq = self._pages[page]
        self._pages[page] = (data, seq)
        self.page_writes += 1

    def replace_record(self, file: str, index: int, record: Any) -> None:
        """Targeted repair: rewrite one rotted record with a verified copy
        (the record-store counterpart of :meth:`restore_page`)."""
        sums = self._file_sums.get(file, ())
        if not 0 <= index < len(sums):
            raise KeyError(f"cannot restore absent record {file}[{index}]")
        if record_checksum(record) != sums[index]:
            raise RecordIntegrityError(
                file, index, "repair candidate does not match the stored envelope"
            )
        self._files[file][index] = record
        self.records_appended += 1

    def corrupt_page(self, page: int, position: int = 0) -> None:
        """Inject silent corruption: flip a byte of ``page`` in place.

        The checksum envelope is *not* updated — that is the point — so
        the next verified read detects the rot.
        """
        if page not in self._pages:
            raise KeyError(f"cannot corrupt absent page {page}")
        data, seq = self._pages[page]
        self._pages[page] = (tamper_bytes(data, position), seq)
        self.corruptions_injected += 1

    def corrupt_record(self, file: str, index: int) -> None:
        """Inject silent corruption: mutate one stored record in place."""
        records = self._files.get(file, [])
        if not 0 <= index < len(records):
            raise KeyError(f"cannot corrupt absent record {file}[{index}]")
        records[index] = tamper_record(records[index])
        self.corruptions_injected += 1
