"""Archive-based media recovery: the classical baseline (paper §1).

Without exploiting array redundancy, media recovery needs an **archive
copy** plus the **redo log**: periodically dump the database, and after
a disk failure restore the lost pages from the archive and roll them
forward by replaying committed after-images logged since the dump.  The
paper's point is that for large databases this is slow and the dumps are
expensive — RDA recovery rebuilds from parity instead.  This module
implements the baseline so the two can be compared on page transfers.

The dump is *action-consistent*: dirty buffer pages are flushed first
(so the archive plus the log after ``dump_lsn`` reconstructs any
committed state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RecoveryError
from ..wal.records import CommitRecord, PageAfterImage, RecordAfterEntry
from .slotted_page import SlottedPage


@dataclass
class ArchiveCopy:
    """One full dump: page payloads + the redo-log horizon."""

    pages: dict = field(default_factory=dict)
    dump_lsn: int = 0
    transfers: int = 0


class ArchiveManager:
    """Dump/restore media recovery over a :class:`~repro.db.database.Database`."""

    def __init__(self, db) -> None:
        self.db = db
        self.last_dump: ArchiveCopy | None = None

    def dump(self) -> ArchiveCopy:
        """Take an action-consistent full archive copy.

        Flushes the buffer, reads every data page (charged), and records
        the redo-log high-water mark.  Returns (and remembers) the copy.
        """
        db = self.db
        db.buffer.flush_all_dirty()
        before = db.stats.total
        copy = ArchiveCopy(dump_lsn=db.redo_log.last_lsn)
        for page in range(db.num_data_pages):
            copy.pages[page] = db.array.read_page(page)
        copy.transfers = db.stats.total - before
        self.last_dump = copy
        return copy

    def _committed_since(self, dump_lsn: int) -> list:
        """Committed after-images logged after the dump, in LSN order."""
        log = self.db.redo_log
        winners = log.txn_ids(CommitRecord)
        return [r for r in log.records_from(dump_lsn + 1)
                if r.txn_id in winners
                and isinstance(r, (PageAfterImage, RecordAfterEntry))]

    def restore_failed_disk(self, disk_id: int) -> int:
        """Classical media recovery of one failed disk.

        Replaces the disk, rewrites its data slots from the archive,
        rolls them forward from the redo log, and recomputes the parity
        slots from the (now complete) group data: the disk's own, and
        the parity of each group whose restored page differs from what
        the failed disk held.  Returns the page transfers consumed.

        Raises:
            RecoveryError: if no dump exists.
        """
        db = self.db
        if db.rda is not None:
            raise RecoveryError(
                "archive restore is the non-RDA baseline; twin-parity "
                "databases rebuild from parity (Database.media_recover)")
        if self.last_dump is None:
            raise RecoveryError("no archive dump available")
        copy = self.last_dump
        before = db.stats.total
        replay = self._committed_since(copy.dump_lsn)
        db.redo_log.charge_read(replay)
        disk = db.array.disks[disk_id]
        disk.replace()

        geometry = db.array.geometry
        lost_pages = {page: slot
                      for slot, page in geometry.pages_on_disk(disk_id)}
        restored = {page: copy.pages[page] for page in lost_pages}
        for record in replay:
            if record.page_id not in restored:
                continue
            if isinstance(record, PageAfterImage):
                restored[record.page_id] = record.image
            else:
                sp = SlottedPage.from_bytes(restored[record.page_id])
                if record.image == b"":
                    try:
                        sp.delete(record.slot)
                    except KeyError:
                        pass
                else:
                    sp.place(record.slot, record.image)
                restored[record.page_id] = sp.to_bytes()
        for page, payload in restored.items():
            disk.write(lost_pages[page], payload)

        rebuilt = geometry.groups_with_parity_on(disk_id)
        for group in rebuilt:
            db.array._rebuild_parity_slot(disk_id, group)
        # a page whose committed change never reached the failed disk
        # (¬FORCE residue), or whose stolen uncommitted one did, comes
        # back other than the surviving parity covers: recompute that
        # group's parity too, or it stays stale with no record to name it
        stolen = set().union(*(txn.pages_stolen
                               for txn in db.txns.active_transactions()))
        for group in sorted({geometry.group_of(page) for page in lost_pages
                             if page in db._residue or page in stolen}
                            - set(rebuilt)):
            db.array.rewrite_parity(group, [
                db.array.read_page(page)
                for page in geometry.group_pages(group)])
        return db.stats.total - before
