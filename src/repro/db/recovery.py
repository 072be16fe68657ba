"""Recovery orchestration: transaction abort, crash restart, media rebuild.

Implements Section 4.3 of the paper plus the classical baselines it
compares against.  The invariant every path restores: **the database
equals the serial effects of committed transactions only.**

Undo sources, in the order they are applied:

1. **Parity twins** (RDA only): each dirty group's unlogged stolen page
   is rewound with ``D_old = P_w ⊕ P_c ⊕ D_new``.  This must run before
   any log-based writes touch those groups, because a log restore
   updates *both* twins and relies on the twin-XOR identity staying
   scoped to the one unlogged page.
2. **REDO** (¬FORCE restart only): committed transactions' after-images
   since the last ACC checkpoint, forward in LSN order — minus the
   records the disk already holds.  The test is a page LSN, and it
   lives on the parity twin: every twin header carries one LSN per data
   page of its group (:class:`~repro.storage.page.ParityHeader`), set
   by the write that folded the page into that twin's parity, so the
   twin restart selects says which records its pages have reached —
   the pre-steal ones for a page parity undo just rewound.  A record at
   or below its page's entry is skipped; a page all of whose records
   are never enters the cache.  (Plain WAL has no such header and
   redoes everything.)
3. **UNDO from the log**: losers' before-images/entries, backward in
   global LSN order.  Record-level entries store absolute old bytes, so
   re-applying them over an already-rewound page is idempotent.

Steps 2-3 run through a page cache so each touched page is read at most
once.  The restore then compares every cached page with its base — the
bytes steps 2-3 read, else one read now — and writes only the pages
that differ: the header test cannot vouch for a page stolen while its
writer was still active, and with absolute, canonical page images byte
equality settles those.  What differs goes back one parity group at a
time: every page's ``old ⊕ new`` is folded into the group's current
parity, the data pages are written in page order and the parity once,
under a header that stamps each written page with the recovered log's
end.  On a twin array the parity's read is the crash scan's: before the
scan, restart names the parity groups its log can touch (the redo tail's
pages and the losers' undo records') and the scan keeps those groups'
current twins — bounded by the work since the checkpoint, not by G, and
dropped the moment one can be stale (parity undo, a resync) or the
restart ends.  A group of k cached pages, b of them with their base in
hand and d of them different, costs ``(k − b)`` base reads plus ``d + 1``
writes when ``d > 0`` (``d + 2`` transfers on single parity, which reads
its parity) — nothing when the disk already holds all k, so a restart
that follows a completed restart skips every record by its header: it
reads no page and writes none.
"""

from __future__ import annotations

from ..errors import RecoveryError, UnrecoverableDataError
from ..storage.geometry import PhysAddr
from ..storage.page import NO_TXN, TwinState, compute_parity
from ..txn import TxnState
from ..wal.records import (AbortRecord, BOTRecord, CommitRecord,
                           PageBeforeImage, RecordBeforeEntry)
from .policy import apply_record_image

RESTART_COUNTERS = ("sectors_repaired", "parity_resynced",
                    "parity_undone_pages", "redo_applied", "redo_skipped",
                    "log_undo_applied", "pages_unchanged", "page_transfers")
"""The numeric fields of :meth:`RecoveryManager.crash_recover`'s result,
in its order: what a sharded facade sums per shard and what the fault
sweep and the recovery profile copy."""


class RecoveryManager:
    """Abort / crash / media recovery over one :class:`Database`."""

    def __init__(self, db) -> None:
        self.db = db

    # ==================== transaction abort ====================

    def abort(self, txn_id: int) -> None:
        """Roll back an active transaction and release its locks."""
        db = self.db
        txn = db.txns.require_active(txn_id)
        if txn.must_commit:
            raise RecoveryError(
                f"transaction {txn_id} lost its parity-encoded before-image "
                "to a media failure and can no longer abort")
        with db.tracer.span("recovery.abort", stats=db.stats, txn=txn_id):
            if txn.is_update_transaction:
                db._ensure_bot(txn)
                db.policy.logging.rollback(db, txn)
                db.undo_log.append(AbortRecord(txn_id=txn_id))
                db.undo_log.force()
            db.locks.release_all(txn_id)
            db.txns.finish(txn_id, TxnState.ABORTED)
        db._forget(txn)
        db.counters.transactions_aborted += 1

    # ==================== crash recovery ====================

    def crash_recover(self, fault_hook=None) -> dict:
        """Restart after :meth:`Database.crash`.

        Returns statistics (:data:`RESTART_COUNTERS`, plus the winner
        and loser lists): pages redone/undone, and the page transfers
        the restart consumed.

        ``fault_hook``, if given, is called before every recovery write
        with a progress label — in the restore, ``restore page P``
        immediately before that page's data write and ``restore parity
        group G`` before the group's parity write.  A label fires only
        before a write that changes the disk: a restored page that
        already equals its base has no point, a group of such pages
        none at all.  Raising from the hook models a crash *during*
        recovery (the tests drive this to prove restart idempotence —
        recovery applies absolute images and re-derives its work list
        from durable state, so being interrupted anywhere is safe, and
        the restart that follows writes only what this one did not
        reach).  The ``recovery.restart`` span of an interrupted restart
        carries the exception's name as ``error``.

        In the result ``redo_skipped`` counts the winners' records redo
        did not apply because the twin header vouched for the page, and
        ``pages_unchanged`` the restored pages the disk already held.
        """
        db = self.db
        fault = fault_hook if fault_hook is not None else (lambda label: None)
        before = db.stats.snapshot()
        try:
            with db.tracer.span("recovery.restart", stats=db.stats,
                                log_split=True):
                stats = self._restart(fault)
        finally:
            # a twin the scan kept never outlives the restart it fed
            db.policy.protection.end_restart(db)
        stats["page_transfers"] = (db.stats.snapshot() - before).total
        return stats

    def _restart(self, fault) -> dict:
        """:meth:`crash_recover`'s phases, inside its span."""
        db = self.db
        with db.tracer.span("recovery.phase", stats=db.stats,
                            log_split=True, phase="analysis") as span:
            db.undo_log.after_crash()
            if db.redo_log is not db.undo_log:
                db.redo_log.after_crash()

            winners = {r.txn_id for r in db.redo_log.scan(CommitRecord)}
            aborted = {r.txn_id for r in db.undo_log.scan(AbortRecord)}
            bots = {r.txn_id for r in db.undo_log.scan(BOTRecord)}
            losers = set(bots) - winners - aborted
            span.set(winners=len(winners), losers=len(losers))

        # 0. media scan: repair latent sector errors (torn or corrupt
        # sectors left by the crash) before anything reads them.
        # Under REDO-only a repaired data page also schedules
        # single-page recovery (its durable page LSN is reset, so
        # the redo phase below replays its whole retained chain).
        sectors_repaired = self._media_scan(winners, fault)

        # the pages this restart can write are the ones its log names:
        # the redo tail's and the losers' undo records' (a loser the
        # twin scan adds below has no durable record — not even its
        # BOT).  Their parity groups, bounded by the work since the
        # checkpoint and not by G, are the ones whose current twin the
        # scan keeps for the restore and whose page LSNs redo will ask
        replay = db.policy.discipline.redo_tail(db, winners)
        undo_records = [
            r for r in db.undo_log.records()
            if r.txn_id in losers
            and isinstance(r, (PageBeforeImage, RecordBeforeEntry))
        ]
        pages = {r.page_id for r in replay}
        pages.update(r.page_id for r in undo_records)
        pages.discard(None)
        data_address = db.array.geometry.data_address
        where = {page: data_address(page) for page in pages}
        # a group is a stripe row: its slot on every disk
        named = {addr.slot for addr in where.values()}

        # 0b/1. the protection policy's restart phase: RAID
        # write-hole resync (WAL) or parity undo of unlogged stolen
        # pages (RDA; must precede log writes).  disk_lsns: page ->
        # the LSN its twin header says the disk holds
        parity_resynced, parity_undone, disk_lsns = \
            db.policy.protection.restart_parity_phase(db, winners, losers,
                                                      fault, named)

        cache: dict = {}
        # what page_base read is still what the disk holds when the
        # restore loop writes: parity undo and the media scan are
        # done, and redo/undo below only fill the cache
        on_disk: dict = {}

        def page_base(page: int) -> bytes:
            if page not in cache:
                cache[page] = on_disk[page] = db.array.read_page(page)
            return cache[page]

        # 2. REDO committed work since the last checkpoint (¬FORCE
        # only), minus the records the disk already holds
        redone, redo_skipped = db.policy.discipline.restart_redo(
            db, winners, replay, disk_lsns, cache, page_base)

        # 3. UNDO losers from the log, backward in global LSN order
        with db.tracer.span("recovery.phase", stats=db.stats,
                            log_split=True, phase="undo") as span:
            db.undo_log.charge_read(undo_records)
            undone = 0
            for record in sorted(undo_records, key=lambda r: r.lsn,
                                 reverse=True):
                if isinstance(record, PageBeforeImage):
                    cache[record.page_id] = record.image
                else:
                    cache[record.page_id] = apply_record_image(
                        page_base(record.page_id), record.slot,
                        record.image)
                undone += 1
            span.set(applied=undone)

        with db.tracer.span("recovery.phase", stats=db.stats,
                            log_split=True, phase="restore") as span:
            # every restored page against its base — what redo/undo
            # read, else one read now, at the disk arm like the
            # group write that used to make it.  An equal page is
            # dropped; the rest go by parity group (a dict:
            # parity-striped numbering does not keep a group's
            # pages adjacent)
            array = db.array
            groups: dict = {}
            unchanged = []
            for page in sorted(cache):
                payload = cache[page]
                base = on_disk.get(page)
                addr = where[page]
                if base is None:
                    disk = array.disks[addr.disk]
                    base = (array.read_page(page) if disk.failed
                            else disk.read(addr.slot))
                if payload == base:
                    unchanged.append((page, payload, base))
                else:
                    groups.setdefault(addr.slot, []).append(
                        (page, payload, base))

            def before_write(what: str, number: int) -> None:
                fault(f"restore {what} {number}")

            for group in sorted(groups):
                db._write_committed_group(group, groups[group],
                                          before_write)
            # the disk does hold the dropped pages
            db._note_on_disk(unchanged)

            fault("abort records")
            for txn_id in sorted(losers):
                db.undo_log.append(AbortRecord(txn_id=txn_id))
            db.undo_log.force()
            span.set(pages=len(cache))
            if unchanged:
                span.set(unchanged=len(unchanged))

        return {
            "winners": sorted(winners),
            "losers": sorted(losers),
            "sectors_repaired": sectors_repaired,
            "parity_resynced": parity_resynced,
            "parity_undone_pages": parity_undone,
            "redo_applied": redone,
            "redo_skipped": redo_skipped,
            "log_undo_applied": undone,
            "pages_unchanged": len(unchanged),
        }

    # ==================== media scan (restart phase 0) ====================

    def _media_scan(self, winners: set, fault) -> int:
        """Repair latent sector errors surfaced by the restart scan.

        A crash can leave torn sectors (partial writes) whose checksums
        no longer match; later phases read those very sectors, so they
        are repaired first from the surviving redundancy.  Clean
        restarts skip the phase entirely (no span, no fault-hook calls).
        """
        db = self.db
        bad = [(disk.disk_id, slot)
               for disk in db.array.disks if not disk.failed
               for slot in disk.bad_sectors()]
        if not bad:
            return 0
        # data slots first: parity recompute below reads the data pages
        bad.sort(key=lambda item: (
            db.array.geometry.page_at(PhysAddr(*item)) is None, item))
        with db.tracer.span("recovery.phase", stats=db.stats,
                            log_split=True, phase="media_scan") as span:
            for disk_id, slot in bad:
                fault(f"media repair disk {disk_id} slot {slot}")
                self._repair_sector(disk_id, slot, winners)
            span.set(sectors=len(bad))
        return len(bad)

    def _repair_sector(self, disk_id: int, slot: int, winners: set) -> None:
        """Rebuild one unreadable sector from the group's redundancy."""
        db = self.db
        geometry = db.array.geometry
        page = geometry.page_at(PhysAddr(disk_id, slot))
        if page is not None:
            # data sector: mates + current parity reconstruct it; for a
            # torn in-flight write the selected twin decides whether the
            # write completes or rolls back, matching what parity undo /
            # log undo will conclude from the same headers
            db.array.repair_page(page)
            if db.policy.redo_only:
                # single-page recovery: the repair may have rolled the
                # page back behind its durable marker (torn write
                # resolved to the old version), so forget the marker —
                # the redo phase replays the page's whole retained
                # chain forward (trim keeps chains replayable onto any
                # disk version a twin rollback can expose)
                db._durable_page_lsn.pop(page, None)
                if db.tracer.enabled:
                    db.tracer.emit("redo.single_page", page=page)
            return

        group = slot
        data = [db.array.read_page(p) for p in geometry.group_pages(group)]
        addrs = geometry.parity_addresses(group)
        if not db.array.supports_twins:
            db.array.rewrite_parity(group, data, disk_id=disk_id)
            return

        which = next(i for i, a in enumerate(addrs) if a.disk == disk_id)
        other_addr = addrs[1 - which]
        other = db.array.disks[other_addr.disk].read_header(other_addr.slot)
        if (other.state is TwinState.WORKING and other.txn_id != NO_TXN
                and other.txn_id not in winners):
            # the damaged twin was the committed parity of a dirty group:
            # it is the loser's only before-image, and the data already
            # holds the uncommitted value — detectable but not repairable
            raise UnrecoverableDataError(
                f"group {group}: committed parity twin lost to a media "
                f"error while transaction {other.txn_id} holds an "
                "unlogged stolen page in the group")
        header = db.array.disks[disk_id].read_header(slot)
        db.array.write_twin(group, which, compute_parity(data), header)

    # ==================== media recovery ====================

    def media_recover(self, disk_id: int, on_lost_undo: str = "raise"):
        """Rebuild a failed disk from the surviving redundancy.

        With RDA, the live Dirty_Set steers the twin rebuild; if the
        committed twin of a dirty group was lost and ``on_lost_undo`` is
        ``"adopt"``, the owning transactions are pinned ``must_commit``
        (their stolen pages can no longer be rolled back).
        """
        db = self.db
        with db.tracer.span("recovery.media", stats=db.stats,
                            log_split=True, disk=disk_id):
            return db.policy.protection.media_recover(db, disk_id,
                                                      on_lost_undo)
