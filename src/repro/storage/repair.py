"""Shared pieces of the managers' detect-and-repair entry points.

Every recovery manager exposes ``repair_corruption()`` — the functional
half of the scrub story (docs/INTEGRITY.md).  The algorithm is the same
across architectures and lives once, in
:meth:`~repro.storage.archive.ArchiveDumpMixin.repair_corruption`; only
the archive layout differs (the dump-only managers keep
``archive_pages``/``archive_files``, the distributed-WAL manager adds
``archive_log``).  The classification and accounting helpers live here:

1. **scrub** the stable image (:meth:`StableStorage.scrub`);
2. corruption *only in the archive* → the online image is intact, so
   re-running ``dump()`` rewrites the archive whole;
3. corruption in the online image → **targeted repair**: an archive copy
   that still matches the stored checksum envelope is provably the
   original bits and is written back in place;
4. anything targeted repair cannot prove → **escalate** to the
   architecture's full archive(+log) media recovery;
5. corruption on *both* sides at once → nothing clean remains to repair
   from; raise instead of guessing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["repair_stats", "split_corruption"]


def repair_stats() -> Dict[str, int]:
    """The zeroed accounting a ``repair_corruption()`` call returns."""
    return {
        "pages_repaired": 0,
        "records_repaired": 0,
        "archives_rebuilt": 0,
        "escalations": 0,
    }


def split_corruption(
    report: Dict[str, Any], archive_names: Sequence[str]
) -> Tuple[List[int], List[str], List[str]]:
    """Split a :meth:`StableStorage.scrub` report by repair source.

    Returns ``(bad_pages, bad_archive_files, bad_online_files)``: pages
    and online files are repaired *from* the archive; a corrupt archive
    file is rebuilt from the (then necessarily intact) online image.
    """
    bad_pages = list(report["pages"])
    bad_archive = [n for n in sorted(report["files"]) if n in archive_names]
    bad_online = [n for n in sorted(report["files"]) if n not in archive_names]
    return bad_pages, bad_archive, bad_online
