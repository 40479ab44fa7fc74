"""Archive dumps, media restore and detect-and-repair.

The paper's Section 5 observation: every architecture needs a *media*
recovery story (the data disks themselves can die), and for the
architectures that keep no log the only possible baseline is a periodic
archive dump — after a media failure the database rolls back to the most
recent dump, because there is no redo log to roll forward with.  (The
distributed-WAL manager overrides ``dump`` and
``recover_from_media_failure`` with the richer dump-plus-archive-log
scheme; every other manager uses the dump-only methods here, so
harnesses drive all seven uniformly.)  :meth:`ArchiveDumpMixin.repair_corruption`
is the one detect-and-repair algorithm for every manager; where a clean
archived copy of a record is found is its only per-layout step.

Semantics:

* :meth:`ArchiveDumpMixin.dump` snapshots the *entire* stable image —
  every page (with its sequence number) and every non-archive file —
  into the reserved ``archive_pages`` / ``archive_files`` files, which
  model the archive medium (tape, or reserved cylinders on separate
  spindles) and survive the media failure.
* :meth:`ArchiveDumpMixin.recover_from_media_failure` wipes the stable
  image (the data disks are gone), restores the archived snapshot, and
  runs the architecture's normal restart algorithm against it — so
  transactions active *at dump time* are erased by the same crash
  discipline that erases them at restart.

Both operations are restartable: a crash mid-dump leaves either the old
or a partially-rewritten archive, and re-running ``dump()`` rewrites it
whole; a crash mid-restore leaves the archive intact, and re-running
``recover_from_media_failure()`` converges (the survivetest harness
exercises exactly this via the ``media.*`` fault points).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.storage.errors import RecoveryStateError
from repro.storage.repair import repair_stats, split_corruption

__all__ = ["ARCHIVE_FILES", "ARCHIVE_PAGES", "ArchiveDumpMixin"]

#: Reserved archive file holding ``(page, data, seq)`` triples.
ARCHIVE_PAGES = "archive_pages"

#: Reserved archive file holding ``(file_name, records)`` pairs.
ARCHIVE_FILES = "archive_files"


class ArchiveDumpMixin:
    """Dump-only media recovery (mix in before :class:`RecoveryManager`)."""

    #: Files that live on the archive medium, not the data disks.
    _archive_set: Tuple[str, ...] = (ARCHIVE_PAGES, ARCHIVE_FILES)

    def dump(self) -> Dict[str, int]:
        """Archive the full stable image; returns ``{"pages", "files"}``.

        The snapshot is sharp with respect to stable storage: it copies
        exactly what is on disk, including slots/versions written by
        transactions still active — restore erases those through the
        normal restart algorithm, just as a crash would.
        """
        snapshot: List[Tuple[int, bytes, int]] = [
            (page, data, self.stable.page_seq(page))
            for page, data in sorted(self.stable.pages.items())
        ]
        self.stable.truncate(ARCHIVE_PAGES, snapshot)
        self._fault_point("media.dump.pages")
        files: List[Tuple[str, List[Any]]] = [
            (name, self.stable.read_file(name))
            for name in self.stable.files()
            if name not in self._archive_set
        ]
        self.stable.truncate(ARCHIVE_FILES, files)
        self._fault_point("media.dump.files")
        return {"pages": len(snapshot), "files": len(files)}

    def recover_from_media_failure(self) -> None:
        """Rebuild from the archive after losing the data disks.

        Wipes every stable page and non-archive file, restores the dump,
        and runs ``crash()`` + ``recover()`` so volatile state is rebuilt
        by the architecture's own restart algorithm.  The database rolls
        back to the dump point: with no log there is nothing to roll
        forward with (the paper's cost of the no-log architectures).
        """
        if ARCHIVE_PAGES not in self.stable.files():
            raise RecoveryStateError(
                f"media recovery on {self.name!r} manager with no archive dump; "
                "call dump() first"
            )
        # The data disks are gone: drop every page and non-archive file.
        for page in sorted(self.stable.pages):
            self.stable.delete_page(page)
        for name in self.stable.files():
            if name not in self._archive_set:
                self.stable.truncate(name)
        self._fault_point("media.restore.wipe")
        for page, data, seq in self.stable.read_file(ARCHIVE_PAGES):
            self.stable.write_page(page, data, seq)
        self._fault_point("media.restore.pages")
        for name, records in self.stable.read_file(ARCHIVE_FILES):
            self.stable.truncate(name, records)
        self._fault_point("media.restore.files")
        self.crash()
        self.recover()
        self._fault_point("media.restore.restart")

    def repair_corruption(self) -> Dict[str, int]:
        """Detect-and-repair: scrub the stable image and heal what rotted.

        A corrupt archive is rebuilt from the intact online image
        (re-dump); a corrupt page or record is restored *in place* from
        an archive copy that still matches the stored checksum envelope
        (proving it is the original bits); anything unprovable escalates
        to :meth:`recover_from_media_failure`.  Corruption on both sides
        at once leaves nothing clean to repair from and raises
        :class:`RecoveryStateError`, as does corruption with no dump.
        Where a record's archived copy is found is the one per-layout
        step (:meth:`_archived_copies`).

        Returns the accounting dict of :func:`repro.storage.repair.repair_stats`.
        """
        stats = repair_stats()
        report = self.stable.scrub()
        bad_pages, bad_archive, bad_online = split_corruption(
            report, self._archive_set
        )
        if not bad_pages and not bad_archive and not bad_online:
            return stats
        if bad_archive:
            if bad_pages or bad_online:
                raise RecoveryStateError(
                    f"{self.name!r} manager: corruption in both the online "
                    "image and the archive; no clean copy to repair from"
                )
            # The online image is intact: rewrite the archive whole.
            self.dump()
            self._fault_point("scrub.repair.archive")
            stats["archives_rebuilt"] = 1
            return stats
        if ARCHIVE_PAGES not in self.stable.files():
            raise RecoveryStateError(
                f"{self.name!r} manager: corruption with no archive dump to "
                "repair from; call dump() first"
            )
        archived_pages = {
            page: data for page, data, _seq in self.stable.read_file(ARCHIVE_PAGES)
        }
        copies = self._archived_copies()
        escalate = False
        for page in bad_pages:
            candidate = archived_pages.get(page)
            if candidate is not None and self.stable.page_matches(page, candidate):
                self.stable.restore_page(page, candidate)
                self._fault_point("scrub.repair.page")
                stats["pages_repaired"] += 1
            else:
                escalate = True
        for name in bad_online:
            for index in report["files"][name]:
                copy = next(
                    (
                        record
                        for record in copies(name, index)
                        if self.stable.record_matches(name, index, record)
                    ),
                    None,
                )
                if copy is not None:
                    self.stable.replace_record(name, index, copy)
                    self._fault_point("scrub.repair.record")
                    stats["records_repaired"] += 1
                else:
                    escalate = True
        if escalate:
            # The rot predates the last dump (or there is none to match):
            # targeted repair cannot prove a candidate, so fall back to
            # the full archive restore (a roll-back to the dump for the
            # dump-only layout; the WAL rolls forward from its archive log).
            self.recover_from_media_failure()
            self._fault_point("scrub.repair.media")
            stats["escalations"] = 1
        return stats

    def _archived_copies(self) -> Callable[[str, int], List[Any]]:
        """Archived candidates for record ``index`` of online file ``name``,
        read from the archive once per repair.  The dump-only layout holds
        exactly one: the same index of the archived file."""
        archived = dict(self.stable.read_file(ARCHIVE_FILES))
        return lambda name, index: archived.get(name, [])[index : index + 1]
