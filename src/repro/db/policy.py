"""Recovery policies: the paper's three configuration axes as strategies.

Each of the eight configurations of Section 5 is the composition of
three independent choices, and each choice is one strategy object here:

* :class:`LoggingPolicy` — **page vs record** logging: what undo/redo
  records carry, how a steal's undo information is made durable, what
  commit appends, and how an abort rolls the transaction back.
* :class:`CommitDiscipline` — **FORCE+TOC vs ¬FORCE+ACC**: how the
  log(s) are arranged, what commit flushes, whether restart needs a
  REDO pass, and what log trimming may discard.
* :class:`StealProtection` — **RDA vs classical WAL**: how a stolen
  uncommitted page is protected (parity twins vs durable before-image),
  plus the matching restart phase (parity undo vs write-hole resync)
  and media recovery.

A composed :class:`RecoveryPolicy` is what :class:`~repro.db.database.
Database` and :class:`~repro.db.recovery.RecoveryManager` consult —
they contain no ``if config.force`` / ``if config.rda`` branching of
their own.  The strategies are stateless singletons (all state lives on
the database and its transactions), so one policy instance is safely
shared by every shard of a :class:`~repro.db.sharded.ShardedDatabase`.
"""

from __future__ import annotations

from contextlib import nullcontext

from ..core import ACCCheckpointer, RDAManager
from ..errors import RecoveryError
from ..wal import (CheckpointRecord, PageAfterImage, PageBeforeImage,
                   PageRedoEntry, RecordAfterEntry, RecordBeforeEntry,
                   RecordRedoEntry)
from .slotted_page import SlottedPage


def apply_record_image(page_bytes: bytes, slot: int, image: bytes) -> bytes:
    """Set ``slot`` of a slotted page to ``image`` (empty = delete)."""
    sp = SlottedPage.from_bytes(page_bytes)
    if image == b"":
        try:
            sp.delete(slot)
        except KeyError:
            pass                      # undoing an insert that never landed
    else:
        sp.place(slot, image)
    return sp.to_bytes()


# ==================== axis 1: logging granularity ====================


class PageLogging:
    """Page-granularity logging: before/after images of whole pages."""

    name = "page"
    record_granularity = False
    logs_undo = True

    def append_steal_undo(self, db, txn, page: int) -> bool:
        """Log the before-image covering one modifier of a stolen page
        (once per (txn, page)); returns True if anything was appended."""
        if page in txn.undo_logged:
            return False
        image = txn.before_images.get(page)
        if image is None:
            return False
        db.undo_log.append(PageBeforeImage(txn_id=txn.txn_id, page_id=page,
                                           image=image))
        txn.undo_logged.add(page)
        db.counters.before_images_logged += 1
        return True

    def append_commit_images(self, db, txn) -> None:
        """Page-mode REDO: append each written page's after-image."""
        txn_id = txn.txn_id
        db.redo_log.append_batch([
            PageAfterImage(txn_id=txn_id, page_id=page,
                           image=db._after_image(txn_id, page))
            for page in sorted(txn.pages_written)])

    def rollback(self, db, txn) -> None:
        """Abort: parity undo, then restore logged steals from
        before-images, then discard the transaction's buffered frames."""
        txn_id = txn.txn_id
        restored = db.policy.protection.parity_undo_for_abort(db, txn_id)

        logged_pages = sorted(page for page in txn.logged_stolen
                              if page not in restored)
        if logged_pages:
            chain = db.undo_log.records_of(txn_id)
            db.undo_log.charge_read(chain)
            images = {r.page_id: r.image for r in chain
                      if isinstance(r, PageBeforeImage)}
            for page in logged_pages:
                if page not in images:
                    raise RecoveryError(
                        f"no before-image for stolen page {page} of "
                        f"transaction {txn_id}")
                db._write_committed(page, images[page],
                                    old_data=db._last_written.get(page))

        for page in sorted(txn.pages_written):
            if page not in db.buffer:
                continue
            keep_residue = page in db._residue
            before = txn.before_images.get(page)
            db.buffer.invalidate(page)
            if keep_residue and before is not None:
                # the frame held committed-but-unflushed data under the
                # transaction's changes; disk lacks it, so rebuild the
                # frame from the captured pre-transaction image
                db.buffer.put_page(page, before, None)
                db._residue.add(page)


class RecordLogging:
    """Record-granularity logging: per-slot before/after entries."""

    name = "record"
    record_granularity = True
    logs_undo = True

    def note_record_modify(self, db, txn, page: int, slot: int,
                           before: bytes, after: bytes) -> None:
        """Stage undo and append redo for one record modification."""
        undo = RecordBeforeEntry(txn_id=txn.txn_id, page_id=page, slot=slot,
                                 image=before)
        db.policy.protection.stage_record_undo(db, txn, undo)
        db.redo_log.append(RecordAfterEntry(txn_id=txn.txn_id, page_id=page,
                                            slot=slot, image=after))

    def append_steal_undo(self, db, txn, page: int) -> bool:
        """Flush this modifier's deferred record before-entries for the
        stolen page; returns True if anything was appended."""
        keep, flush = [], []
        for entry in txn.pending_undo:
            (flush if entry.page_id == page else keep).append(entry)
        if not flush:
            return False
        for entry in flush:
            db.undo_log.append(entry)
            db.counters.before_images_logged += 1
        txn.pending_undo = keep
        return True

    def append_commit_images(self, db, txn) -> None:
        """Record-mode REDO entries were appended at modification time."""

    def rollback(self, db, txn) -> None:
        """Abort: parity undo, then re-apply record before-entries
        (logged + still-pending) backward, flushing corrected pages."""
        txn_id = txn.txn_id
        restored = db.policy.protection.parity_undo_for_abort(db, txn_id)
        for page in restored:
            if page in db.buffer:
                # single-modifier invariant: only this transaction's
                # changes were buffered for an unlogged stolen page
                db.buffer.invalidate(page)

        chain = db.undo_log.records_of(txn_id)
        db.undo_log.charge_read(chain)
        logged = [r for r in reversed(chain)
                  if isinstance(r, (RecordBeforeEntry, PageBeforeImage))]
        ordered = logged + txn.pending_undo   # forward; pending is newest

        touched = {}
        for entry in reversed(ordered):
            page = entry.page_id
            if isinstance(entry, PageBeforeImage):
                touched[page] = entry.image
                continue
            payload = touched.get(page)
            if payload is None:
                payload = db.buffer.get_page(page)
            touched[page] = apply_record_image(payload, entry.slot, entry.image)

        # The abort record that follows asserts "undo is durable", so the
        # corrected pages must reach disk now even under ¬FORCE —
        # otherwise a crash after the abort would resurrect the aborted
        # values (aborted transactions are excluded from restart undo).
        for page in sorted(touched):
            # another transaction's unlogged steal may be outstanding on
            # this page (record locking shares pages); the committed
            # write below would silently invalidate its parity-undo
            # baseline, so promote that steal to logged undo first
            db.policy.protection.maybe_promote(db, page, txn_id)
            # the corrected payload still carries the uncommitted slots
            # of every other modifier of the frame: they stay modifiers,
            # so the flush is a steal and the Figure 3 / WAL rule makes
            # their undo information durable — never a committed write
            others = db.buffer.modifiers_of(page) - {txn_id}
            db.buffer.invalidate(page)
            db.buffer.put_page(page, touched[page], None)
            for other in sorted(others):
                db.buffer.put_page(page, touched[page], other)
            if others and page in txn.logged_stolen:
                # the disk copy holds this transaction's stolen values,
                # so a twin-covered steal would keep them as the page's
                # before-image and restart's parity undo would bring
                # them back; as with residue, the log must carry the undo
                db._residue.add(page)
            db.buffer.flush_page(page)


class RedoPageLogging(PageLogging):
    """REDO-only at page granularity: no undo log ever.  Commit appends
    each written page's after-image as a chained :class:`~repro.wal.
    records.PageRedoEntry`; the write-behind gate keeps uncommitted
    pages out of the array, so abort needs only the buffer (plus parity
    twins for the RDA hybrid's covered steals)."""

    name = "redo-page"
    logs_undo = False

    def append_steal_undo(self, db, txn, page: int) -> bool:
        raise RecoveryError(
            "REDO-only class has no undo log: a steal that needs one "
            "escaped the write-behind propagation gate")

    def append_commit_images(self, db, txn) -> None:
        """Chain each written page's after-image into its per-page redo
        chain (before the commit record, satisfying the WAL order)."""
        txn_id = txn.txn_id
        db.redo_log.append_batch([
            PageRedoEntry(txn_id=txn_id, page_id=page,
                          image=db._after_image(txn_id, page))
            for page in sorted(txn.pages_written)])

    # rollback: PageLogging's path degenerates correctly — there are
    # never logged steals, parity undo rewinds the hybrid's covered
    # steals, and buffered frames are discarded / rebuilt from the
    # captured pre-transaction images.


class RedoRecordLogging(RecordLogging):
    """REDO-only at record granularity (the RDA hybrid's logging): undo
    entries stay in memory for live aborts and are never logged; redo
    entries are staged per transaction and appended at commit as chained
    :class:`~repro.wal.records.RecordRedoEntry` records."""

    name = "redo-record"
    logs_undo = False

    def append_steal_undo(self, db, txn, page: int) -> bool:
        raise RecoveryError(
            "REDO-only class has no undo log: a steal that needs one "
            "escaped the write-behind propagation gate")

    def note_record_modify(self, db, txn, page: int, slot: int,
                           before: bytes, after: bytes) -> None:
        """Stage both directions in memory: undo for a live abort (never
        durable), redo for the commit-time chain append."""
        txn.pending_undo.append(
            RecordBeforeEntry(txn_id=txn.txn_id, page_id=page, slot=slot,
                              image=before))
        txn.pending_redo.append(
            RecordRedoEntry(txn_id=txn.txn_id, page_id=page, slot=slot,
                            image=after))

    def append_commit_images(self, db, txn) -> None:
        """Drain the staged redo entries into the per-page chains."""
        staged, txn.pending_redo = txn.pending_redo, []
        if staged:
            db.redo_log.append_batch(staged)

    def rollback(self, db, txn) -> None:
        """Abort from memory: parity undo rewinds covered steals on
        disk, then the staged before-entries are re-applied backward
        onto the buffered pages.  Nothing is flushed — an aborted
        transaction's data was never durable except via covered steals
        (just rewound), and its staged redo entries never reach the
        log, so a later crash cannot resurrect it."""
        txn_id = txn.txn_id
        restored = db.policy.protection.parity_undo_for_abort(db, txn_id)
        for page in restored:
            if page in db.buffer:
                # single-modifier + no-residue steal rule: the frame
                # held only this transaction's changes beyond the
                # restored disk image
                db.buffer.invalidate(page)

        touched = {}
        for entry in reversed(txn.pending_undo):
            page = entry.page_id
            if page in restored:
                continue
            payload = touched.get(page)
            if payload is None:
                payload = db.buffer.get_page(page)
            touched[page] = apply_record_image(payload, entry.slot,
                                               entry.image)
        for page in sorted(touched):
            db.buffer.put_page(page, touched[page], None)
        # drop only this transaction's modifier marks: a co-modifier's
        # uncommitted slots stay tracked so the write-behind gate keeps
        # holding their pages in the buffer
        db.buffer.clear_modifier(txn_id)


# ==================== axis 2: commit discipline ====================


class ForceToc:
    """FORCE + TOC: commit flushes the transaction's pages; no
    checkpoints, no restart REDO."""

    name = "force-toc"
    forces_at_commit = True

    def build_logs(self, db, log_factory) -> tuple:
        """Separate undo and redo logs, no checkpointer."""
        return log_factory(db, "undo"), log_factory(db, "redo"), None

    def flush_at_commit(self, db, txn_id: int) -> None:
        db.buffer.flush_pages_of(txn_id)

    def note_commit_residue(self, db, txn) -> None:
        """FORCE leaves nothing dirty behind a commit."""

    def redo_tail(self, db, winners) -> list:
        """TOC: committed work is on disk already; nothing to redo."""
        return []

    def restart_redo(self, db, winners, replay, disk_lsns, cache,
                     page_base) -> tuple:
        """Nothing applied, nothing skipped."""
        return 0, 0

    def trim_log(self, db, candidates: list, archive_floor) -> int:
        # FORCE/TOC: the undo log only needs active transactions'
        # records.  Dropping a finished transaction's BOT is always safe
        # (it simply stops being a loser *candidate*).
        dropped = db.undo_log.truncate_before(min(candidates))
        # The redo log is cross-referenced by restart analysis: a BOT
        # surviving in the undo log whose commit record was trimmed here
        # would be misclassified as a loser.  Only a *quiescent* trim
        # (no active transactions, hence no surviving BOTs) avoids the
        # coupling; it is bounded by the archive roll-forward floor.
        if archive_floor is not None and not db.txns.active_transactions():
            dropped += db.redo_log.truncate_before(archive_floor + 1)
        return dropped


class NoForceAcc:
    """¬FORCE + ACC: commit forces only the log; ACC checkpoints bound
    the restart REDO pass."""

    name = "noforce-acc"
    forces_at_commit = False

    def build_logs(self, db, log_factory) -> tuple:
        """One combined log plus the ACC checkpointer."""
        combined = log_factory(db, "log")
        checkpointer = ACCCheckpointer(
            db.buffer.flush_all_dirty, db._append_and_force_redo,
            lambda: [t.txn_id for t in db.txns.active_transactions()],
            interval=db.config.checkpoint_interval,
            tracer=db.tracer, stats=db.stats, metrics=db.metrics,
            on_checkpoint=db._on_checkpoint)
        return combined, combined, checkpointer

    def flush_at_commit(self, db, txn_id: int) -> None:
        """¬FORCE: the transaction's pages stay dirty in the buffer."""

    def note_commit_residue(self, db, txn) -> None:
        for page in txn.pages_written:
            if db.buffer.is_dirty(page):
                db._residue.add(page)

    def redo_tail(self, db, winners) -> list:
        """The records restart reads for REDO: everything since the
        last ACC checkpoint."""
        start = 0
        for record in db.redo_log.scan(CheckpointRecord):
            start = record.lsn
        return [r for r in db.redo_log.records() if r.lsn > start]

    def restart_redo(self, db, winners, replay, disk_lsns, cache,
                     page_base) -> tuple:
        """Replay the winners' after-images of ``replay``
        (:meth:`redo_tail`) the disk does not hold yet: a record at or
        below its page's entry in ``disk_lsns`` — what the steal
        protection's restart phase read off the disk, nothing under
        plain WAL — is skipped, and a page all of whose records are
        never enters ``cache``.  Returns ``(applied, skipped)``."""
        redone = skipped = 0
        with db.tracer.span("recovery.phase", stats=db.stats,
                            log_split=True, phase="redo") as span:
            db.redo_log.charge_read(replay)
            disk_lsn = disk_lsns.get
            for record in replay:
                if record.txn_id not in winners or not isinstance(
                        record, (PageAfterImage, RecordAfterEntry)):
                    continue
                page = record.page_id
                if record.lsn <= disk_lsn(page, 0):
                    skipped += 1
                    continue
                if isinstance(record, PageAfterImage):
                    cache[page] = record.image
                else:
                    cache[page] = apply_record_image(
                        page_base(page), record.slot, record.image)
                redone += 1
            span.set(applied=redone)
            if skipped:
                span.set(skipped=skipped)
        return redone, skipped

    def trim_log(self, db, candidates: list, archive_floor) -> int:
        checkpoint_lsn = None
        for record in db.redo_log.scan(CheckpointRecord):
            checkpoint_lsn = record.lsn
        if checkpoint_lsn is None:
            return 0        # committed data may exist only in the log
        candidates.append(checkpoint_lsn)
        return db.undo_log.truncate_before(min(candidates))


class RedoOnlyDiscipline(NoForceAcc):
    """¬FORCE with REDO-only restart: no undo phase is ever needed —
    the write-behind gate guarantees disk never holds data the log
    cannot redo past.  Restart replays each page's redo chain forward
    from its durable page LSN; trim walks every page's chain so no
    unreflected record is ever discarded."""

    name = "redo-acc"

    def redo_tail(self, db, winners) -> list:
        """Winners' per-page chains from each page's on-disk LSN
        forward."""
        durable = db._durable_page_lsn
        return [r for r in db.redo_log.records()
                if r.page_chained and r.txn_id in winners
                and r.lsn > durable.get(r.page_id, 0)]

    def restart_redo(self, db, winners, replay, disk_lsns, cache,
                     page_base) -> tuple:
        """Replay ``replay`` (absolute images: idempotent and
        prefix-closed).  The durable page LSNs already bounded it;
        ``disk_lsns`` is not consulted."""
        redone = 0
        with db.tracer.span("recovery.phase", stats=db.stats,
                            log_split=True, phase="redo") as span:
            db.redo_log.charge_read(replay)
            for record in replay:
                if isinstance(record, PageRedoEntry):
                    cache[record.page_id] = record.image
                else:
                    cache[record.page_id] = apply_record_image(
                        page_base(record.page_id), record.slot,
                        record.image)
                redone += 1
            span.set(applied=redone)
        return redone, 0

    def trim_log(self, db, candidates: list, archive_floor) -> int:
        """ACC bound plus a chain walk: for every page whose chain head
        is past its durable LSN, retain back to the earliest record the
        page's replay could still need.  (The checkpoint bound alone is
        unsafe here: the gate may have skipped a committed residue page
        at checkpoint time, leaving its older chain records the only
        copy of committed data.)"""
        checkpoint_lsn = None
        for record in db.redo_log.scan(CheckpointRecord):
            checkpoint_lsn = record.lsn
        if checkpoint_lsn is None:
            return 0        # committed data may exist only in the log
        candidates.append(checkpoint_lsn)
        durable = db._durable_page_lsn
        log = db.redo_log
        base = log.base_lsn
        for page, head in log.page_chain_heads().items():
            floor = durable.get(page, 0)
            lsn = head
            earliest = None
            while lsn >= base and lsn > floor:
                earliest = lsn
                lsn = log.get(lsn).prev_page_lsn
            if earliest is not None:
                candidates.append(earliest)
        return db.undo_log.truncate_before(min(candidates))


# ==================== axis 3: steal protection ====================


class RdaProtection:
    """RDA: steals ride the parity twins whenever the Figure 3 rule
    allows; undo comes from ``P_w ⊕ P_c ⊕ D_new``."""

    name = "rda"
    uses_twins = True

    def make_rda(self, db):
        return RDAManager(db.array)

    def covers_unlogged_steal(self, db, page: int, single,
                              was_residue: bool) -> bool:
        return (single is not None and not was_residue
                and db.rda.dirty_set.can_write_without_undo(
                    db.array.geometry.group_of(page), page, single))

    def note_forced_undo(self, db, page: int, single,
                         was_residue: bool) -> None:
        # why the twins could not cover this steal (the complement of
        # the model's 1 - p_l)
        if single is None:
            reason = "multi_modifier"
        elif was_residue:
            reason = "residue"
        else:
            reason = "dirty_group"
        if db.tracer.enabled:
            db.tracer.emit("wal.forced_undo", page=page, reason=reason)
        if db.metrics is not None:
            cache = db._forced_undo_children
            child = cache.get(reason)
            if child is None:
                child = cache[reason] = db.metrics.counter(
                    "rda.forced_undo").labels(reason=reason)
            child.inc()

    def write_committed(self, db, page: int, payload: bytes,
                        old_data=None) -> None:
        # the forced LSN, never the tail's: an unforced LSN is issued
        # again after a crash
        db.rda.write_committed(page, payload, old_data=old_data,
                               lsn=db.redo_log.forced_lsn)

    def write_group(self, db, group: int, writes: list,
                    before_write) -> None:
        """Restart's restore: the pages now reflect the whole recovered
        log, whose end is its forced LSN."""
        db.rda.write_group_committed(group, writes, before_write,
                                     lsn=db.redo_log.forced_lsn)

    def stage_record_undo(self, db, txn, undo) -> None:
        """Defer the before-entry: it only reaches the log if the page
        is stolen while the group cannot absorb it."""
        txn.pending_undo.append(undo)

    def maybe_promote(self, db, page: int, txn_id: int) -> None:
        """If another transaction's unlogged stolen page is about to be
        shared, materialize its before-image into the log first."""
        group = db.array.geometry.group_of(page)
        entry = db.rda.dirty_set.get(group)
        if entry is None or entry.page_id != page or entry.txn_id == txn_id:
            return

        def log_fn(owner_id, page_id, image):
            owner = db.txns.get(owner_id)
            if db.policy.logging.record_granularity:
                # Record mode: a page-level parity image must NOT reach
                # the log — undoing it would restore the whole page and
                # trample slots other transactions commit in between.
                # Flush the owner's per-slot before-entries instead;
                # rollback then re-places exactly the owner's slots on
                # the current page.
                db.policy.logging.append_steal_undo(db, owner, page_id)
            else:
                db.undo_log.append(PageBeforeImage(
                    txn_id=owner_id, page_id=page_id, image=image))
            db.undo_log.force()
            owner.undo_logged.add(page_id)
            owner.logged_stolen.add(page_id)

        db.rda.promote_to_logged(group, log_fn)
        db.counters.promotions += 1

    def commit_flips(self, db, txn_id: int):
        """Flip the transaction's dirty groups' twins (zero I/O)."""
        return db.rda.commit_txn(txn_id)

    def lose_memory(self, db) -> None:
        db.rda.lose_memory()

    def parity_undo_for_abort(self, db, txn_id: int) -> dict:
        """Rewind the transaction's unlogged stolen pages via the twins."""
        restored = db.rda.abort_txn(txn_id, buffered=db._last_written)
        for page, image in restored.items():
            if page in db._last_written:
                db._last_written[page] = image
        return restored

    def restart_parity_phase(self, db, winners: set, losers: set,
                             fault, named) -> tuple:
        """Parity undo of unlogged stolen pages (must precede log
        writes), then write-hole resync of clean groups.

        Interrupted *steals* are resolved through the twin headers
        (twin-first ordering makes them detectable and undoable); an
        interrupted *committed* write-back leaves stale parity with no
        header evidence, so the remaining clean groups are scrubbed
        against their data and repaired — the twin-substrate analogue
        of :class:`WalProtection`'s restart resync.

        ``named`` are the parity groups the log can make this restart
        write.  The twin scan keeps their current twins for the restore,
        and the third result maps their pages to the LSN the current
        twin's header says the disk holds — read once both phases are
        done, so a rewound page answers with its pre-steal entry."""
        parity_undone = 0
        with db.tracer.span("recovery.phase", stats=db.stats,
                            log_split=True, phase="parity_undo") as span:
            for entry in db.rda.crash_scan(winners, keep=named,
                                           next_lsn=db.redo_log.next_lsn):
                losers.add(entry.txn_id)
                fault(f"parity-undo group {entry.group}")
                db.rda.undo_group(entry.group)
                parity_undone += 1
            span.set(pages=parity_undone)
        holes = db.rda.find_parity_holes()
        if holes:
            with db.tracer.span("recovery.phase", stats=db.stats,
                                log_split=True,
                                phase="parity_resync") as span:
                for group in holes:
                    fault(f"parity resync group {group}")
                    db.rda.resync_group(group)
                span.set(groups=len(holes))
        return len(holes), parity_undone, db.rda.disk_page_lsns(named)

    def end_restart(self, db) -> None:
        """The twins the scan kept do not outlive the restart, however
        it ended."""
        db.rda.drop_scanned_twins()

    def media_recover(self, db, disk_id: int, on_lost_undo: str):
        report, must_commit = db.rda.rebuild_disk(
            disk_id, on_lost_undo=on_lost_undo)
        for txn_id in must_commit:
            db.txns.get(txn_id).must_commit = True
        return report


class WalProtection:
    """Classical WAL: every steal pays for a durable before-image."""

    name = "wal"
    uses_twins = False

    def make_rda(self, db):
        return None

    def covers_unlogged_steal(self, db, page: int, single,
                              was_residue: bool) -> bool:
        return False

    def note_forced_undo(self, db, page: int, single,
                         was_residue: bool) -> None:
        """Under plain WAL a logged steal is the only kind; nothing to
        explain."""

    def write_committed(self, db, page: int, payload: bytes,
                        old_data=None) -> None:
        db.array.write_page(page, payload, old_data=old_data)

    def write_group(self, db, group: int, writes: list,
                    before_write) -> None:
        db.array.write_group(group, writes, before_write)

    def stage_record_undo(self, db, txn, undo) -> None:
        db.undo_log.append(undo)
        db.counters.before_images_logged += 1

    def maybe_promote(self, db, page: int, txn_id: int) -> None:
        """No unlogged steals exist, so there is nothing to promote."""

    def commit_flips(self, db, txn_id: int):
        return ()

    def lose_memory(self, db) -> None:
        """No Dirty_Set to lose."""

    def parity_undo_for_abort(self, db, txn_id: int) -> dict:
        return {}

    def restart_parity_phase(self, db, winners: set, losers: set,
                             fault, named) -> tuple:
        """RAID write-hole resync: a crash between a small-write's data
        and parity transfers leaves the parity stale; recovery's own
        small writes assume it is current, so recompute it first.

        Detection uses uncounted peeks (the restart scrub); the repair
        writes are counted.  Clean restarts skip the phase entirely.
        No header says what the disk holds: the third result is empty.
        """
        stale = db.array.scrub()
        if not stale:
            return 0, 0, {}
        with db.tracer.span("recovery.phase", stats=db.stats,
                            log_split=True, phase="parity_resync") as span:
            for group in stale:
                fault(f"parity resync group {group}")
                data = [db.array.read_page(p)
                        for p in db.array.geometry.group_pages(group)]
                db.array.rewrite_parity(group, data)
            span.set(groups=len(stale))
        return len(stale), 0, {}

    def end_restart(self, db) -> None:
        """Nothing was kept."""

    def media_recover(self, db, disk_id: int, on_lost_undo: str):
        return db.array.rebuild_disk(disk_id)


class RedoRdaProtection(RdaProtection):
    """The RDA+REDO hybrid's protection: twin parity covers losers'
    steals exactly as in :class:`RdaProtection`, but a steal that the
    twins cannot cover is never logged — the write-behind gate keeps
    the page buffered instead.  With no undo log, a covered steal whose
    page another transaction wants to share cannot be *promoted* to
    logged; it is **un-stolen**: the twins rewind the disk to the
    pre-steal state and the page re-dirties in the buffer under its
    owner."""

    name = "rda-redo"

    def maybe_promote(self, db, page: int, txn_id: int) -> None:
        group = db.array.geometry.group_of(page)
        entry = db.rda.dirty_set.get(group)
        if entry is None or entry.page_id != page or entry.txn_id == txn_id:
            return
        owner = entry.txn_id
        # the XOR rewind needs the page's *on-disk* bytes (what the
        # steal wrote), not the live buffer, which may be newer
        on_disk = db._last_written.get(page)
        if page in db.buffer:
            current = db.buffer.get_page(page)
        elif on_disk is not None:
            current = on_disk
        else:
            current = db.array.read_page(page)
        # rewind the disk through the twins; the owner's version lives
        # on in the buffer, where the gate will hold it (the frame is
        # about to gain a second modifier)
        _, db._last_written[page] = db.rda.undo_group(group,
                                                      new_data=on_disk)
        db.buffer.put_page(page, current, owner)
        db.counters.promotions += 1
        if db.tracer.enabled:
            db.tracer.emit("redo.unsteal", page=page, txn=owner)


# ==================== the composed policy ====================

_NO_WINDOW = nullcontext()      # an untraced or one-page write-back

PAGE_LOGGING = PageLogging()
RECORD_LOGGING = RecordLogging()
REDO_PAGE_LOGGING = RedoPageLogging()
REDO_RECORD_LOGGING = RedoRecordLogging()
FORCE_TOC = ForceToc()
NOFORCE_ACC = NoForceAcc()
REDO_ONLY_DISCIPLINE = RedoOnlyDiscipline()
RDA_PROTECTION = RdaProtection()
WAL_PROTECTION = WalProtection()
REDO_RDA_PROTECTION = RedoRdaProtection()


class RecoveryPolicy:
    """One of the recovery configurations as a strategy triple: the
    paper's eight plus the beyond-paper REDO-only class."""

    def __init__(self, logging, discipline, protection) -> None:
        self.logging = logging
        self.discipline = discipline
        self.protection = protection

    @classmethod
    def for_config(cls, config) -> "RecoveryPolicy":
        if config.redo_only:
            return cls(
                REDO_RECORD_LOGGING if config.record_logging
                else REDO_PAGE_LOGGING,
                REDO_ONLY_DISCIPLINE,
                REDO_RDA_PROTECTION if config.rda else WAL_PROTECTION,
            )
        return cls(
            RECORD_LOGGING if config.record_logging else PAGE_LOGGING,
            FORCE_TOC if config.force else NOFORCE_ACC,
            RDA_PROTECTION if config.rda else WAL_PROTECTION,
        )

    @property
    def name(self) -> str:
        return (f"{self.logging.name}-{self.discipline.name}-"
                f"{self.protection.name}")

    @property
    def redo_only(self) -> bool:
        """True for the fifth (no-undo-log) recovery class."""
        return not self.logging.logs_undo

    @property
    def log_page_undo_at_first_write(self) -> bool:
        """Classical ¬FORCE WAL logs a page's before-image eagerly at
        first modification (RDA defers; FORCE can always abort from the
        buffer + logged steals; REDO-only never logs undo at all)."""
        return (self.logging.logs_undo
                and not self.protection.uses_twins
                and not self.discipline.forces_at_commit)

    def may_writeback(self, db, page: int, frame) -> bool:
        """The write-behind propagation gate (REDO-only class only —
        installed as the buffer pool's writeback filter).

        A frame with uncommitted modifiers may reach disk only as a
        twin-covered steal (the RDA hybrid); anything else waits in the
        buffer.  A committed-dirty frame may reach disk only once its
        page's redo chain is durable (``page_lsn <= durable_lsn``)."""
        if frame.modifiers:
            return self._twins_cover(db, page, frame.modifiers)
        return db.redo_log.page_chain_head(page) <= db.redo_log.durable_lsn

    def _twins_cover(self, db, page: int, modifiers) -> bool:
        """Would a steal of this page ride the parity twins right now?"""
        single = next(iter(modifiers)) if len(modifiers) == 1 else None
        return self.protection.covers_unlogged_steal(
            db, page, single, page in db._residue)

    def writeback(self, db, page: int, payload: bytes,
                  modifiers: frozenset) -> None:
        """The paper's decision point, for one page: every steal either
        rides the parity twins or pays for a durable before-image first
        (the WAL rule is enforced here)."""
        if not modifiers:
            db._residue.discard(page)
            db.counters.committed_writebacks += 1
            db._write_committed(page, payload)
            return
        single = next(iter(modifiers)) if len(modifiers) == 1 else None
        sole = db.txns.get(single) if single is not None else None
        old = db._old_disk_version(sole, page)
        was_residue = page in db._residue
        db._residue.discard(page)
        if self.protection.covers_unlogged_steal(db, page, single,
                                                 was_residue):
            db.rda.write_uncommitted(page, payload, single, old_data=old,
                                     lsn=db.redo_log.forced_lsn)
            db.counters.unlogged_steals += 1
            sole.note_steal(page)
            db._last_written[page] = payload
            db._h("steal", txn=single, page=page, logged=False)
            db._barrier("steal", page=page, txns=frozenset({single}),
                        logged=False)
            return
        # logged steal: WAL — undo information durable before the write
        self.protection.note_forced_undo(db, page, single, was_residue)
        if db.metrics is not None and not db._logged_steals_published:
            db._publish_logged_steals()
        db._ensure_undo_durable(page, modifiers)
        self.protection.write_committed(db, page, payload, old_data=old)
        db.counters.logged_steals += 1
        db._last_written[page] = payload
        for txn_id in modifiers:
            txn = db.txns.get(txn_id)
            txn.note_steal(page)
            txn.logged_stolen.add(page)
            db._h("steal", txn=txn_id, page=page, logged=True)
        db._barrier("steal", page=page, txns=frozenset(modifiers),
                    logged=True)

    def writeback_batch(self, db, entries: list) -> None:
        """The buffer pool's write-back callable: :meth:`writeback` for
        each ``(page, payload, modifiers)`` of ``entries`` in turn — one
        entry for an eviction or ``flush_page``, a FORCE commit's or a
        checkpoint's whole window in frame order.

        Each page's frame is marked clean right after its write-back,
        so frame state tracks the write schedule, and its header-cache
        and Dirty_Set updates are complete before the next page is
        decided — two pages of one parity group need no special case.
        With tracing on, a window of several pages coalesces its
        single-twin small writes into one costed event (see
        :meth:`~repro.storage.twin_array.TwinParityArray.traced_window`).
        """
        redo_only = self.redo_only
        mark_clean = db.buffer.mark_clean
        coalesce = (len(entries) > 1 and db.rda is not None
                    and db.tracer.enabled)
        with db.array.traced_window() if coalesce else _NO_WINDOW:
            for page, payload, modifiers in entries:
                if redo_only and modifiers \
                        and not self._twins_cover(db, page, modifiers):
                    # the write-behind gate admitted this frame, but an
                    # earlier page of the window claimed its parity
                    # group; with no undo log to fall back to, it stays
                    # dirty behind the gate for a later flush
                    continue
                self.writeback(db, page, payload, modifiers)
                mark_clean(page)
