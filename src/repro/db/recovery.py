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
pages and the losers' undo records') and the scan hands back those
groups' current twins — bounded by the work since the checkpoint, not by
G.  A group of k cached pages, b of them with their base in hand and d
of them different, costs ``(k − b)`` base reads plus ``d + 1`` writes
when ``d > 0`` (``d + 2`` transfers on single parity, which reads its
parity) — nothing when the disk already holds all k, so a restart that
follows a completed restart skips every record by its header: it reads
no page and writes none.  All of one restart's state is one
:class:`Restart`, gone when the restart returns or dies.
"""

from __future__ import annotations

from ..errors import RecoveryError, UnrecoverableDataError
from ..storage.geometry import PhysAddr
from ..storage.page import NO_TXN, TwinState, compute_parity
from ..txn import TxnState
from ..wal.records import (AbortRecord, BOTRecord, CommitRecord,
                           PageBeforeImage, RecordBeforeEntry)
from .policy import apply_record_image

RESTART_COUNTERS = ("log_records", "log_decoded", "sectors_repaired",
                    "groups_scrubbed", "parity_resynced",
                    "parity_undone_pages", "redo_applied", "redo_skipped",
                    "log_undo_applied", "pages_unchanged", "page_transfers")
"""The numeric fields of :meth:`RecoveryManager.crash_recover`'s result,
in its order: what a sharded facade sums per shard and what the fault
sweep copies."""


class Committed:
    """The twin scan's commit set: ``txn in committed`` is False exactly
    for the owner of a live steal — the one answer to whose WORKING
    header committed.

    A WORKING twin header is a live steal iff its owner is in the
    anchor checkpoint's transaction table with no end-of-transaction
    record (EOT) after the anchor, or at or above the table's next-id
    ``ceiling`` with no commit after it, or has a BOT after it and no
    EOT — ``live`` holds the first and last kinds.  Any other owner
    finished before the checkpoint — the registry spends every id under
    the ceiling when the anchor is taken
    (:meth:`~repro.txn.TransactionManager.anchor_table`), so none can
    have begun since — and since an abort demotes its
    working twin to INVALID before the abort record is written (rule
    ``working-owner``), it committed — though a trim dropped its commit
    record, no trim drops the anchor.  With no anchor the table is empty
    and the ceiling 0: a header is trusted iff its owner has a commit
    record, the classic rule."""

    __slots__ = ("winners", "live", "ceiling")

    def __init__(self, winners: set, live: set, ceiling: int) -> None:
        self.winners = winners
        self.live = live
        self.ceiling = ceiling

    def __contains__(self, txn_id: int) -> bool:
        return txn_id in self.winners or not (txn_id in self.live
                                              or txn_id >= self.ceiling)


def verdicts(db) -> tuple:
    """``(winners, losers, committed)`` off each log's record headers
    from its own restart anchor on (FORCE's two logs count LSNs apart),
    plus the redo anchor's transaction table: the transactions with a
    commit record since the anchor; those with a BOT — in the table, or
    since and in it or at or above its ceiling (below, FORCE's undo log
    keeps one that finished before the anchor) — and no EOT since; and
    the twin scan's :class:`Committed`.  Without an anchor the headers
    are the whole retained log's."""
    redo_log, undo_log = db.redo_log, db.undo_log
    table, ceiling = redo_log.transaction_table()
    winners = redo_log.txn_ids(CommitRecord, redo_log.anchor)
    ended = winners | undo_log.txn_ids(AbortRecord, undo_log.anchor)
    begun = {txn for txn in undo_log.txn_ids(BOTRecord, undo_log.anchor)
             if txn in table or txn >= ceiling}
    losers = {txn for txn, bot in table.items() if bot} | begun
    return (winners, losers - ended,
            Committed(winners, (set(table) | begun) - ended, ceiling))


def restart_reads(db, winners: set, losers: set) -> tuple:
    """``(redo tail, undo records)``: the only records a restart decodes
    — the discipline's redo tail and the losers' before-images — and
    the ones whose pages it names."""
    replay = db.policy.discipline.redo_tail(db, winners)
    undo_records = [
        r for txn_id in losers for r in db.undo_log.records_of(txn_id)
        if isinstance(r, (PageBeforeImage, RecordBeforeEntry))
    ]
    return replay, undo_records


def named_pages(db) -> set:
    """The data pages a restart would name were the machine to die now:
    those of :func:`restart_reads` under :func:`verdicts`, less the
    records a crash would lose.  On a recovered log, all of it durable,
    they are the pages of ``Restart.where``; the ``writeback-named``
    rule (:mod:`repro.check.invariants`) holds every data-then-parity
    write to them, so the restart scrub need check no other group.  It
    decodes nothing the restart would not."""
    replay, undo_records = restart_reads(db, *verdicts(db)[:2])
    redo_durable = db.redo_log.durable_lsn
    undo_durable = db.undo_log.durable_lsn
    pages = {r.page_id for r in replay if r.lsn <= redo_durable}
    pages.update(r.page_id for r in undo_records if r.lsn <= undo_durable)
    pages.discard(None)
    return pages


class Restart:
    """One crash restart's state: the log's verdicts (:func:`verdicts`),
    the only records the restart decodes (``replay``, the redo tail;
    ``undo_records``) and the pages and parity groups they name
    (``where``, ``named``); the named groups' current twins and page
    LSNs, which the protection's restart phase fills (``twins``,
    ``disk_lsns``); and the page cache redo and undo fill.  It dies with
    the restart, so nothing it holds can go stale."""

    def __init__(self, db, winners: set, losers: set,
                 committed: Committed) -> None:
        self.array = db.array
        self.winners = winners
        self.losers = losers
        self.committed = committed
        # a loser the twin scan adds later has no durable record — not
        # even its BOT
        self.replay, self.undo_records = restart_reads(db, winners, losers)
        pages = {r.page_id for r in self.replay}
        pages.update(r.page_id for r in self.undo_records)
        pages.discard(None)
        data_address = db.array.geometry.data_address
        self.where = {page: data_address(page) for page in pages}
        # a group is a stripe row: its slot on every disk
        self.named = {addr.slot for addr in self.where.values()}
        self.twins: dict = {}
        self.disk_lsns: dict = {}
        self.cache: dict = {}
        # what base() read is still what the disk holds when the restore
        # writes: parity undo and the media scan are done before the
        # first read, and redo/undo only fill the cache
        self.on_disk: dict = {}

    def base(self, page: int) -> bytes:
        """The page as redo/undo left it, else one read now."""
        cache = self.cache
        if page not in cache:
            cache[page] = self.on_disk[page] = self.array.read_page(page)
        return cache[page]


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

        In the result ``winners`` are the commits analysis read — those
        since the restart anchor, the last forced checkpoint (the whole
        log's without one); ``log_records`` counts the records the
        restart CRC-checked — analysis' walk from the anchor's redo
        point, plus the log before it should a loser's chain reach back
        there; ``log_decoded`` the records the restart turned into
        objects — the redo tail and the losers' chains;
        ``groups_scrubbed`` the
        parity groups the write-hole scrub checked, the ones the log
        names (so it grows with the work since the checkpoint, not with
        G); ``redo_skipped`` counts the
        winners' records redo did not apply because the twin header
        vouched for the page, and ``pages_unchanged`` the restored pages
        the disk already held.
        """
        db = self.db
        fault = fault_hook if fault_hook is not None else (lambda label: None)
        before = db.stats.snapshot()
        with db.tracer.span("recovery.restart", stats=db.stats,
                            log_split=True):
            stats = self._restart(fault)
        stats["page_transfers"] = (db.stats.snapshot() - before).total
        return stats

    def _restart(self, fault) -> dict:
        """:meth:`crash_recover`'s phases, inside its span."""
        db = self.db
        undo_log = db.undo_log
        logs = ((undo_log,) if db.redo_log is undo_log
                else (undo_log, db.redo_log))
        decoded = sum(log.records_decoded for log in logs)
        checked = sum(log.records_checked for log in logs)
        with db.tracer.span("recovery.phase", stats=db.stats,
                            log_split=True, phase="analysis") as span:
            # every record from the anchor on is CRC-checked, none is
            # decoded: the verdicts come from the headers and the
            # anchor's transaction table
            for log in logs:
                log.after_crash()
            winners, losers, committed = verdicts(db)
            span.set(winners=len(winners), losers=len(losers))

        # 0. media scan: repair latent sector errors (torn or corrupt
        # sectors left by the crash) before anything reads them.
        # Under REDO-only a repaired data page is where its marker
        # says, and the redo phase below replays its records past it.
        sectors_repaired = self._media_scan(committed, fault)
        restart = Restart(db, winners, losers, committed)

        # 0b/1. the protection policy's restart phase: RAID
        # write-hole resync (WAL) or parity undo of unlogged stolen
        # pages (RDA; must precede log writes) — the scrub for holes
        # checks the parity groups the log names
        parity_resynced, parity_undone = \
            db.policy.protection.restart_parity_phase(db, restart, fault)

        # 2. REDO committed work since the last checkpoint (¬FORCE
        # only), minus the records the disk already holds
        redone, redo_skipped = db.policy.discipline.restart_redo(db, restart)

        # 3. UNDO losers from the log, backward in global LSN order
        cache = restart.cache
        with db.tracer.span("recovery.phase", stats=db.stats,
                            log_split=True, phase="undo") as span:
            db.undo_log.charge_read(restart.undo_records)
            undone = 0
            for record in sorted(restart.undo_records, key=lambda r: r.lsn,
                                 reverse=True):
                if isinstance(record, PageBeforeImage):
                    cache[record.page_id] = record.image
                else:
                    cache[record.page_id] = apply_record_image(
                        restart.base(record.page_id), record.slot,
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
            # pages adjacent), with the twin the scan read if the
            # restart still holds it
            array = db.array
            groups: dict = {}
            unchanged = []
            for page in sorted(cache):
                payload = cache[page]
                base = restart.on_disk.get(page)
                addr = restart.where[page]
                if base is None:
                    disk = array.disks[addr.disk]
                    base = (array.read_page(page) if disk.failed
                            else disk.read(addr.slot))
                if payload == base:
                    unchanged.append(page)
                else:
                    groups.setdefault(addr.slot, []).append(
                        (page, payload, base))

            def before_write(what: str, number: int) -> None:
                fault(f"restore {what} {number}")

            redo_only = db.policy.redo_only
            durable, head = db._durable_page_lsn, db.redo_log.page_chain_head
            for group in sorted(groups):
                writes = groups[group]
                db.policy.protection.write_group(db, group, writes,
                                                 before_write,
                                                 restart.twins.get(group))
                if redo_only:
                    # the disk holds the page's whole chain now
                    for page, _, _ in writes:
                        durable[page] = max(durable.get(page, 0), head(page))
            if redo_only:
                for page in unchanged:      # and it held the dropped ones
                    durable[page] = max(durable.get(page, 0), head(page))

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
            "log_records": sum(log.records_checked for log in logs) - checked,
            "log_decoded": sum(log.records_decoded for log in logs) - decoded,
            "sectors_repaired": sectors_repaired,
            # parity undo cleaned every Dirty_Set entry before the
            # scrub, so it checked each named group
            "groups_scrubbed": len(restart.named),
            "parity_resynced": parity_resynced,
            "parity_undone_pages": parity_undone,
            "redo_applied": redone,
            "redo_skipped": redo_skipped,
            "log_undo_applied": undone,
            "pages_unchanged": len(unchanged),
        }

    # ==================== media scan (restart phase 0) ====================

    def _media_scan(self, committed: Committed, fault) -> int:
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
                self._repair_sector(disk_id, slot, committed)
            span.set(sectors=len(bad))
        return len(bad)

    def _repair_sector(self, disk_id: int, slot: int,
                       committed: Committed) -> None:
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
            if db.policy.redo_only and db.tracer.enabled:
                # single-page recovery: a marker moves only once its
                # write-back has landed whole, so redo replays the
                # page's records past it
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
                and other.txn_id not in committed):
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
