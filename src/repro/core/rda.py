"""The RDA recovery manager: write policy, undo-via-parity, crash scan.

This is the paper's contribution (Section 4) as an executable policy
layer over :class:`~repro.storage.twin_array.TwinParityArray`:

* hold the Dirty_Set, whose :meth:`~repro.core.parity_group.DirtySet.
  can_write_without_undo` decides, per write-back, whether UNDO logging
  is required (the Figure 3 rule);
* perform uncommitted writes into the free parity twin
  (:meth:`write_uncommitted`), committed/logged writes in place or into
  both twins of a dirty group (:meth:`write_committed`);
* commit by flipping the in-memory current-parity bit — **zero I/O**
  (:meth:`commit_txn`);
* abort by recomputing the before-image ``D_old = P_w ⊕ P_c ⊕ D_new``
  and restoring it (:meth:`abort_txn` / :meth:`undo_group`), five to six
  page transfers per page, exactly the ``6 p_l + 5 (1 - p_l)`` term of
  the paper's cost model;
* after a crash, rebuild the Dirty_Set and the current-parity bitmap by
  scanning the twin headers against the log's commit set
  (:meth:`crash_scan`, Section 4.3 and the Figure 7/8 machinery);
* supply the Dirty_Set view that media rebuild needs
  (:meth:`dirty_info_for_rebuild`, :meth:`after_media_rebuild`).

The manager keeps a main-memory cache of twin headers (the paper's
current-parity bit map plus the twin states of Figure 8); the cache is
lost in a crash and rebuilt by :meth:`crash_scan`.

Every twin header also carries its group's **page LSNs**
(:class:`~repro.storage.page.ParityHeader`), and the vector moves
exactly with the parity: a twin write that absorbs page ``i``'s
``old ⊕ new`` sets entry ``i`` to the ``lsn`` the caller passes (the
redo log's forced LSN at the write — never an unforced one, which a
crash would re-issue) and carries the other entries over from the twin
its payload was seeded from.  A steal writes the *free* twin and parity
undo falls back to the committed one, so the vector of the twin restart
selects always describes the data version that twin's parity describes;
restart's redo reads it (:meth:`disk_page_lsns`) to skip the records the
disk already holds.  Paths that rebuild a twin from the data (resync,
media rebuild) clear the vector; none invents an entry.
"""

from __future__ import annotations

from ..errors import ParityGroupError, RecoveryError
from ..storage.page import (NO_PAGE, NO_TXN, ParityHeader, TwinState,
                            compute_parity, xor_pages)
from ..storage.twin_array import (DirtyGroupInfo, TwinParityArray,
                                  TwinUpdate, select_current_twin)
from .parity_group import DirtyEntry, DirtySet


class RDAManager:
    """Policy engine for RDA recovery over a twin-parity array.

    Tracing and metrics piggyback on the array's (``array.tracer`` /
    ``array.metrics``) so the whole storage-plus-policy stack shares one
    event stream; the manager adds the *policy* events — dirty-group
    enter/leave, zero-transfer twin flips at commit, costed undos.
    """

    def __init__(self, array: TwinParityArray, dirty_set: DirtySet | None = None) -> None:
        self.array = array
        self.dirty_set = dirty_set if dirty_set is not None else DirtySet()
        self.tracer = array.tracer
        self.metrics = array.metrics
        self.first_steals = 0          # clean groups made dirty by a steal
        self._m_commits = self._m_flips = None   # resolved at first commit
        if self.metrics is not None:
            # read when the registry is exported, not pushed per page
            self.metrics.gauge("rda.dirty_groups").add_source(
                lambda: len(self.dirty_set))
            self.metrics.counter("rda.unlogged_steals").add_source(
                lambda: self.first_steals)
        self._headers: dict = {}       # group -> [header0, header1] cache
        self._current: dict = {}       # group -> current twin index (the bit map)
        # group -> payload of its current twin as crash_scan read it,
        # for the groups the scan was asked to keep; non-empty only
        # inside a restart, and an entry goes the moment it can be stale
        self._scanned: dict = {}
        self._unknown = (0,) * array.geometry.group_size   # no page LSN known
        self.barrier_hook = None       # conformance seam (repro.check)

    # -- header cache -------------------------------------------------------------

    def _cached_headers(self, group: int) -> list:
        """Twin headers for ``group`` from the main-memory map.

        The map is maintained incrementally from array-initialization
        time (the paper keeps the current-parity bit map and twin states
        in main memory), so priming an entry consults the simulator's
        uncounted view rather than charging page transfers; after a
        crash the map is rebuilt by :meth:`crash_scan`, which *does* pay
        for its reads.
        """
        headers = self._headers.get(group)
        if headers is None:
            _, h0 = self.array.peek_twin(group, 0)
            _, h1 = self.array.peek_twin(group, 1)
            headers = [h0, h1]
            self._headers[group] = headers
            self._current.setdefault(group, select_current_twin((h0, h1)))
        return headers

    def current_twin(self, group: int) -> int:
        """Index of the twin holding the group's valid parity."""
        if group not in self._current:
            self._cached_headers(group)
        return self._current[group]

    def lose_memory(self) -> None:
        """Crash: Dirty_Set, header cache and bitmap all vanish."""
        self.dirty_set.lose_memory()
        self._headers.clear()
        self._current.clear()
        self._scanned.clear()

    def drop_scanned_twins(self) -> None:
        """End of a restart: forget every twin payload the scan kept."""
        self._scanned.clear()

    def _with_lsn(self, header: ParityHeader, index: int, lsn: int) -> tuple:
        """``header``'s page LSNs with entry ``index`` set to ``lsn``."""
        lsns = header.page_lsns or self._unknown
        return lsns[:index] + (lsn,) + lsns[index + 1:]

    # -- the two writers ------------------------------------------------------------------

    def write_uncommitted(self, page: int, payload: bytes, txn_id: int,
                          old_data: bytes | None = None, lsn: int = 0) -> None:
        """Write back, without UNDO logging, a page modified by an
        active transaction.

        The write must satisfy the Figure 3 rule (clean group, or
        re-steal of the same page by the same transaction) and is
        protected by the parity twins alone; the group becomes (or
        stays) dirty.  A steal whose UNDO record the caller has already
        made durable is a :meth:`write_committed`.  ``lsn`` is the
        page's new header entry, the others come from the source twin.

        Raises:
            ParityGroupError: the write violates the rule.
        """
        group = self.array.geometry.group_of(page)
        entry = self.dirty_set.get(group)
        if entry is None:
            # first steal: the committed twin seeds the free one
            source = self.current_twin(group)
            target = 1 - source
        elif entry.page_id == page and entry.txn_id == txn_id:
            source = target = entry.working_twin        # re-steal
        else:
            raise ParityGroupError(
                f"unlogged write of page {page} (txn {txn_id}) into dirty "
                f"group {group} (page {entry.page_id}, txn {entry.txn_id})"
            )
        headers = self._cached_headers(group)
        if self._scanned:
            self._scanned.pop(group, None)
        stamp = self.array.next_timestamp()
        index = self.array.geometry.index_in_group(page)
        # _with_lsn, inlined, and the header built positionally: every
        # page of a FORCE commit window is a steal and comes through
        # here, and a helper is a frame a page
        lsns = headers[source].page_lsns or self._unknown
        header = ParityHeader(stamp, txn_id, index, TwinState.WORKING,
                              lsns[:index] + (lsn,) + lsns[index + 1:])
        # twin_first: the working twin is the steal's only undo source,
        # so it must reach disk before the data overwrite (the parity
        # analogue of the WAL rule)
        self.array.small_write(page, payload,
                               [TwinUpdate(source, target, header)],
                               old_data=old_data, twin_first=True)
        headers[target] = header
        self.dirty_set.mark_dirty(DirtyEntry(
            group=group, txn_id=txn_id, page_id=page, page_index=index,
            working_twin=target, working_timestamp=stamp))
        if entry is not None:
            return
        self.first_steals += 1
        window = self.array.window
        if window is not None:
            # rides on the window's one costed event; the aggregator
            # expands it back into rda.group_dirty rows
            window.first_steals += 1
        elif self.tracer.enabled:
            self.tracer.emit("rda.group_dirty", group=group, page=page,
                             txn=txn_id)

    def write_committed(self, page: int, payload: bytes,
                        old_data: bytes | None = None, lsn: int = 0) -> None:
        """Write back a page whose changes are committed (or UNDO-logged):
        parity tracks the data; no undo information is consumed.  Every
        twin that absorbs the page's delta takes ``lsn`` as the page's
        header entry."""
        geometry = self.array.geometry
        group = geometry.group_of(page)
        headers = self._cached_headers(group)
        if self._scanned:
            self._scanned.pop(group, None)
        index = geometry.index_in_group(page)
        entry = self.dirty_set.get(group)
        if entry is None:
            current = self.current_twin(group)
            stamp = self.array.next_timestamp()
            # inlined and positional as in write_uncommitted: every
            # committed write-back of a ¬FORCE engine comes through here
            lsns = headers[current].page_lsns or self._unknown
            header = ParityHeader(
                stamp, NO_TXN, NO_PAGE, TwinState.COMMITTED,
                lsns[:index] + (lsn,) + lsns[index + 1:])
            self.array.small_write(page, payload,
                                   [TwinUpdate(current, current, header)],
                                   old_data=old_data)
            headers[current] = header
            return
        # dirty group: update BOTH twins so P_w ⊕ P_c stays the dirty
        # page's delta (paper Figure 6); each twin keeps its role, and
        # each now describes the page's new version
        working = entry.working_twin
        committed = 1 - working
        committed_header = headers[committed].with_(
            state=TwinState.COMMITTED,
            page_lsns=self._with_lsn(headers[committed], index, lsn))
        working_header = headers[working].with_(
            page_lsns=self._with_lsn(headers[working], index, lsn))
        self.array.small_write(page, payload, [
            TwinUpdate(committed, committed, committed_header),
            TwinUpdate(working, working, working_header),
        ], old_data=old_data)
        headers[committed] = committed_header
        headers[working] = working_header

    def write_group_committed(self, group: int, writes: list,
                              before_write, lsn: int = 0) -> None:
        """:meth:`write_committed` for several pages of one group —
        ``(page, payload, old_data)`` in page order — under one twin
        write: the current twin takes every page's delta and one fresh
        COMMITTED header whose entry for each of them is ``lsn``.  The
        twin's read is saved too when :meth:`crash_scan` kept its
        payload.  A dirty group keeps Figure 6's both-twins rule page
        by page (restart never hands one over: parity undo empties the
        Dirty_Set before the first restore write).  ``before_write`` is
        :meth:`~repro.storage.array.DiskArray.write_group`'s."""
        if group in self.dirty_set:
            for page, payload, old_data in writes:
                before_write("page", page)
                self.write_committed(page, payload, old_data=old_data,
                                     lsn=lsn)
            return
        headers = self._cached_headers(group)
        current = self.current_twin(group)
        # the group's vector, stamped in one pass
        members = self.array.geometry.group_pages(group)
        lsns = list(headers[current].page_lsns or self._unknown)
        for page, _, _ in writes:
            lsns[members.index(page)] = lsn
        header = ParityHeader(timestamp=self.array.next_timestamp(),
                              state=TwinState.COMMITTED,
                              page_lsns=tuple(lsns))
        self.array.group_small_write(
            group, writes, current, header, before_write,
            parity_in_hand=self._scanned.pop(group, None))
        headers[current] = header

    # -- EOT processing ------------------------------------------------------------------

    def commit_txn(self, txn_id: int) -> list:
        """Commit: each dirty group's working twin becomes the current
        parity.  Pure main-memory bit flips — **no page transfers**; the
        durable commit record in the log is what makes the WORKING twins
        valid at recovery time.  Returns the groups cleaned."""
        groups = self.dirty_set.groups_of(txn_id)
        for group in groups:
            entry = self.dirty_set.clean(group)
            self._current[group] = entry.working_twin
            if self.barrier_hook is not None:
                self.barrier_hook("flip", group=group, txn=txn_id,
                                  twin=entry.working_twin)
        if self.tracer.enabled:
            # the paper's headline number: committing a stolen page
            # costs zero page transfers (a main-memory bit flip).  The
            # per-group flips ride on the commit event's ``groups``
            # count; the trace aggregator expands them back into
            # ``rda.twin_flip`` rows (coalesced dispatch)
            self.tracer.emit("rda.commit", txn=txn_id, groups=len(groups),
                             reads=0, writes=0, transfers=0)
        if self.metrics is not None:
            if self._m_commits is None:
                self._m_commits = self.metrics.counter("rda.commits")
                self._m_flips = self.metrics.counter("rda.twin_flips")
            self._m_commits.inc()
            self._m_flips.inc(len(groups))
        return groups

    def abort_txn(self, txn_id: int, buffered=None) -> dict:
        """Abort: undo every unlogged stolen page of the transaction via
        the parity twins.  ``buffered`` optionally maps ``page_id`` to
        the page's current *on-disk-equivalent* contents to save the
        D_new read.  Returns ``{page_id: restored_before_image}``."""
        restored = {}
        for group in self.dirty_set.groups_of(txn_id):
            entry = self.dirty_set.entry(group)
            new_data = None if buffered is None else buffered.get(entry.page_id)
            page, image = self.undo_group(group, new_data)
            restored[page] = image
        return restored

    def undo_group(self, group: int, new_data: bytes | None = None) -> tuple:
        """Undo the unlogged stolen page of a dirty group.

        Reads both twins (2 transfers), the current page if not supplied
        (1), restores the before-image (1 write), and invalidates the
        working twin (1) — the model's 5-6 transfers per recovered page.

        Returns ``(page_id, before_image)``.
        """
        if self.metrics is not None:
            self.metrics.counter("rda.undos").inc()
        if not self.tracer.enabled:
            return self._undo_group_inner(group, new_data)
        buffered = new_data is not None
        with self.array.stats.window() as window:
            page, before = self._undo_group_inner(group, new_data)
        self.tracer.emit_costed("rda.undo", window, group=group, page=page,
                                buffered=buffered)
        self.tracer.emit("rda.group_clean", group=group, cause="undo")
        return page, before

    def _undo_group_inner(self, group: int, new_data: bytes | None) -> tuple:
        entry = self.dirty_set.entry(group)
        # the survivor becomes the current twin: whichever one the scan
        # kept (the loser's working twin, on a never-written group) is
        # not the restore's parity any more
        self._scanned.pop(group, None)
        working_payload, _ = self.array.read_twin(group, entry.working_twin)
        committed_payload, _ = self.array.read_twin(group, 1 - entry.working_twin)
        if working_payload == compute_parity(
                self.array.group_data_payloads(group)):
            # normal case: the steal fully landed, so the twin-XOR
            # identity recovers the before-image from D_new
            if new_data is None:
                new_data = self.array.read_page(entry.page_id)
            before = xor_pages(working_payload, committed_payload, new_data)
        else:
            # the steal's data write never reached the disk (crash
            # between the twin-first working-twin write and the data
            # write): the twin-XOR identity would mis-derive the
            # before-image, but the committed twin plus the group mates
            # still reconstruct it directly
            mates = [self.array.read_page(p)
                     for p in self.array.geometry.group_pages(group)
                     if p != entry.page_id]
            before = xor_pages(committed_payload, *mates) if mates \
                else committed_payload
        self.array.write_data_only(entry.page_id, before)
        invalid = ParityHeader(timestamp=entry.working_timestamp,
                               txn_id=entry.txn_id,
                               dirty_page_index=entry.page_index,
                               state=TwinState.INVALID)
        self.array.rewrite_twin_header(group, entry.working_twin, invalid)
        headers = self._cached_headers(group)
        headers[entry.working_twin] = invalid
        survivor = 1 - entry.working_twin
        if headers[survivor].state is not TwinState.COMMITTED:
            # a never-updated group's twin still wears its formatted
            # OBSOLETE header; stamp it COMMITTED so later twin selection
            # (and media reconstruction) can trust it outright
            promoted = ParityHeader(timestamp=self.array.next_timestamp(),
                                    state=TwinState.COMMITTED,
                                    page_lsns=headers[survivor].page_lsns)
            self.array.rewrite_twin_header(group, survivor, promoted)
            headers[survivor] = promoted
        self._current[group] = survivor
        self.dirty_set.clean(group)
        return entry.page_id, before

    def promote_to_logged(self, group: int, log_before_image) -> tuple:
        """Convert a dirty group's unlogged page to a logged one.

        Needed when a page stolen without logging must be written again
        in a way the parity twins cannot cover (e.g. another transaction
        modifies it under record locking).  The before-image is
        materialized from the twins, handed to ``log_before_image(txn_id,
        page_id, image)`` — which must make it durable — and only then is
        the working twin durably re-stamped as the group's committed
        parity (it matches the on-disk data).

        Returns ``(txn_id, page_id)`` of the promoted steal.
        """
        entry = self.dirty_set.entry(group)
        working_payload, _ = self.array.read_twin(group, entry.working_twin)
        committed_payload, _ = self.array.read_twin(group, 1 - entry.working_twin)
        new_data = self.array.read_page(entry.page_id)
        before = xor_pages(working_payload, committed_payload, new_data)
        log_before_image(entry.txn_id, entry.page_id, before)
        stamp = self.array.next_timestamp()
        headers = self._cached_headers(group)
        # same payload, same data version: the vector carries over
        header = ParityHeader(timestamp=stamp, state=TwinState.COMMITTED,
                              page_lsns=headers[entry.working_twin].page_lsns)
        self.array.rewrite_twin_header(group, entry.working_twin, header)
        headers[entry.working_twin] = header
        self._current[group] = entry.working_twin
        self.dirty_set.clean(group)
        if self.tracer.enabled:
            self.tracer.emit("rda.promote", group=group, txn=entry.txn_id,
                             page=entry.page_id)
            self.tracer.emit("rda.group_clean", group=group, cause="promote")
        if self.metrics is not None:
            self.metrics.counter("rda.promotions").inc()
        return entry.txn_id, entry.page_id

    # -- log-trim support ---------------------------------------------------------------------

    def seal_stale_working_headers(self) -> int:
        """Durably retire WORKING headers whose transaction has ended.

        Commit is a main-memory bit flip, so a committed steal's twin
        keeps its WORKING header on disk until the group is written
        again; :meth:`crash_scan` resolves such headers against the
        log's commit set.  Trimming the log can discard exactly those
        commit records, after which a restart would misread the stale
        header as an uncommitted steal (or refuse outright when a later
        steal put a second WORKING header on the group).  Before a trim,
        every WORKING header *not* owned by the Dirty_Set's active steal
        is therefore re-stamped — COMMITTED for the group's current
        parity, OBSOLETE for a superseded twin — keeping its timestamp
        so Figure 7 twin selection is unchanged.  Idempotent; returns
        the number of headers rewritten.
        """
        sealed = 0
        for group in range(self.array.geometry.num_groups):
            headers = self._cached_headers(group)
            entry = self.dirty_set.get(group)
            for which, header in enumerate(headers):
                if header.state is not TwinState.WORKING:
                    continue
                if entry is not None and entry.working_twin == which:
                    continue    # active unlogged steal: still load-bearing
                state = (TwinState.COMMITTED
                         if which == self.current_twin(group)
                         else TwinState.OBSOLETE)
                new_header = header.with_(state=state)
                self.array.rewrite_twin_header(group, which, new_header)
                headers[which] = new_header
                sealed += 1
        if sealed and self.tracer.enabled:
            self.tracer.emit("rda.seal_headers", headers=sealed)
        return sealed

    # -- crash recovery (Section 4.3) ---------------------------------------------------------

    def find_parity_holes(self) -> list:
        """Restart scrub: clean groups whose current parity does not
        match the XOR of their data pages.

        A committed write-back is two transfers (data page, then the
        current twin); a crash between them leaves the group's parity
        stale with nothing in the twin headers to say so — the RAID
        write hole, on the twin substrate.  Steals are immune
        (twin-first ordering plus the WORKING header make the hole
        detectable and undoable), so only groups *without* a Dirty_Set
        entry need the check.  Detection uses uncounted peeks, like the
        WAL substrate's restart scrub; call after :meth:`crash_scan`
        (which rebuilds the Dirty_Set and the current-twin bitmap).
        """
        holes = []
        geometry = self.array.geometry
        disks = self.array.disks
        dirty = self.dirty_set
        to_int = int.from_bytes
        for group in range(geometry.num_groups):
            if group in dirty:
                continue
            # a group is a stripe row: its slot on every disk
            parity = 0
            for disk in geometry.data_disks(group):
                parity ^= to_int(disks[disk].peek(group), "little")
            twin = geometry.parity_addresses(group)[self.current_twin(group)]
            if to_int(disks[twin.disk].peek(twin.slot), "little") != parity:
                holes.append(group)
        return holes

    def resync_group(self, group: int) -> None:
        """Recompute and rewrite a clean group's current parity from its
        data pages (counted reads + one twin write); the repair half of
        :meth:`find_parity_holes`."""
        data = self.array.group_data_payloads(group)
        current = self.current_twin(group)
        self._scanned.pop(group, None)      # its payload is the stale one
        # a fresh header: whatever made the hole, no page LSN is vouched
        # for by a parity recomputed from the data
        header = ParityHeader(timestamp=self.array.next_timestamp(),
                              state=TwinState.COMMITTED)
        self.array.write_twin(group, current, compute_parity(data), header)
        self._cached_headers(group)[current] = header
        if self.tracer.enabled:
            self.tracer.emit("rda.parity_resync", group=group)

    def crash_scan(self, committed_txns: set, keep=(),
                   next_lsn: int | None = None) -> list:
        """Rebuild the Dirty_Set and current-parity bitmap from disk.

        Reads both twins of every group (the background bitmap
        reconstruction the paper schedules in idle periods), classifies
        WORKING twins against the log's commit set, and re-registers
        every *loser* transaction's unlogged stolen page in the
        Dirty_Set.  Returns the loser :class:`DirtyEntry` list.

        The scan's reads are spent twice more.  For the groups in
        ``keep`` — the ones the log can send the restore to, so bounded
        by the work since the checkpoint, not by G — the current twin's
        payload is kept for :meth:`write_group_committed`.  And with
        ``next_lsn`` (the recovered redo log's next LSN) every header is
        checked against it: a page LSN at or above it names a record the
        log lost and will issue again, so it is zeroed durably (one
        counted header rewrite, in this case only) before anything is
        appended.

        Raises:
            RecoveryError: if both twins of a group claim WORKING for
                uncommitted transactions (protocol violation).
        """
        self.lose_memory()
        with self.tracer.span("recovery.twin_scan", stats=self.array.stats,
                              groups=self.array.geometry.num_groups) as span:
            losers = self._crash_scan_inner(committed_txns, keep, next_lsn)
            span.set(losers=len(losers))
        return losers

    def _crash_scan_inner(self, committed_txns: set, keep,
                          next_lsn: int | None) -> list:
        losers = []
        array = self.array
        working, committed = TwinState.WORKING, TwinState.COMMITTED
        newest = 0
        for group in range(array.geometry.num_groups):
            (p0, h0), (p1, h1) = array.read_twins(group)
            self._headers[group] = headers = [h0, h1]
            if h0.timestamp > newest:
                newest = h0.timestamp
            if h1.timestamp > newest:
                newest = h1.timestamp
            if next_lsn is not None:
                lsns = h0.page_lsns + h1.page_lsns
                if lsns and max(lsns) >= next_lsn:
                    self._zero_lost_lsns(group, headers, next_lsn)
            s0, s1 = h0.state, h1.state
            if s0 is not working and s1 is not working and (
                    s0 is committed or s1 is committed):
                # no steal to classify: Figure 7 reduces to the
                # COMMITTED twin, the newer one when both are
                if s0 is not committed:
                    current = 1
                elif s1 is not committed:
                    current = 0
                else:
                    current = 1 if h1.timestamp > h0.timestamp else 0
            else:
                current = self._classify_working(group, h0, h1,
                                                 committed_txns, losers)
            self._current[group] = current
            if group in keep:
                self._scanned[group] = p1 if current else p0
        array.observe_timestamp(newest)
        return losers

    def _zero_lost_lsns(self, group: int, headers: list,
                        next_lsn: int) -> None:
        """Durably zero every page LSN of ``group``'s twins at or above
        ``next_lsn``: it names a record the log lost and will issue
        again."""
        for which, header in enumerate(headers):
            if any(lsn >= next_lsn for lsn in header.page_lsns):
                header = header.with_(page_lsns=tuple(
                    lsn if lsn < next_lsn else 0
                    for lsn in header.page_lsns))
                self.array.rewrite_twin_header(group, which, header)
                headers[which] = header

    def _classify_working(self, group: int, h0: ParityHeader,
                          h1: ParityHeader, committed_txns: set,
                          losers: list) -> int:
        """The scan's general case — a WORKING header, or no COMMITTED
        one: Figure 7 against the commit set.  Registers an uncommitted
        owner's steal in the Dirty_Set and ``losers``; returns the
        current twin."""
        working = TwinState.WORKING
        active_working = [
            (which, header) for which, header in enumerate((h0, h1))
            if header.state is working
            and header.txn_id not in committed_txns
            and header.txn_id != NO_TXN
        ]
        if len(active_working) > 1:
            raise RecoveryError(
                f"group {group}: both twins working for uncommitted "
                f"transactions {[h.txn_id for _, h in active_working]}"
            )
        if active_working:
            which, header = active_working[0]
            if header.dirty_page_index == NO_PAGE:
                raise RecoveryError(
                    f"group {group}: working twin lacks dirty page index")
            page = self.array.geometry.group_pages(group)[
                header.dirty_page_index]
            entry = DirtyEntry(group=group, txn_id=header.txn_id,
                               page_id=page,
                               page_index=header.dirty_page_index,
                               working_twin=which,
                               working_timestamp=header.timestamp)
            self.dirty_set.mark_dirty(entry)
            losers.append(entry)
        return select_current_twin((h0, h1), committed_txns)

    def disk_page_lsns(self, groups) -> dict:
        """``page -> LSN`` for the pages of ``groups`` the current twin's
        header vouches for: the on-disk page reflects every committed
        record for it at or below that LSN.  Read from the header cache
        :meth:`crash_scan` filled (call it first), so after parity undo
        it is the survivor's, pre-steal, vector."""
        known = {}
        geometry = self.array.geometry
        for group in groups:
            lsns = self._headers[group][self._current[group]].page_lsns
            if lsns:
                known.update(zip(geometry.group_pages(group), lsns))
        return known

    # -- media recovery hooks ----------------------------------------------------------------

    def dirty_info_for_rebuild(self) -> dict:
        """The Dirty_Set in the form ``TwinParityArray.rebuild_disk`` wants."""
        return {
            entry.group: DirtyGroupInfo(
                txn_id=entry.txn_id,
                dirty_page_index=entry.page_index,
                working_timestamp=entry.working_timestamp,
                working_twin=entry.working_twin)
            for entry in self.dirty_set.entries()
        }

    def rebuild_disk(self, disk_id: int, on_lost_undo: str = "raise"):
        """Rebuild a failed disk, passing the live Dirty_Set along, and
        reconcile the in-memory state afterwards.

        Returns ``(report, must_commit_txns)`` where ``must_commit_txns``
        are transactions whose parity-encoded before-image was lost (only
        non-empty with ``on_lost_undo="adopt"``).
        """
        report = self.array.rebuild_disk(disk_id,
                                         dirty_info=self.dirty_info_for_rebuild(),
                                         on_lost_undo=on_lost_undo)
        must_commit = set()
        for group in report.lost_undo_groups:
            entry = self.dirty_set.clean(group)
            must_commit.add(entry.txn_id)
            self._headers.pop(group, None)
            self._current.pop(group, None)
            if self.tracer.enabled:
                self.tracer.emit("rda.group_clean", group=group,
                                 cause="lost_undo", txn=entry.txn_id)
        # header cache entries for rebuilt parity slots are stale
        for group in self.array.geometry.groups_with_parity_on(disk_id):
            self._headers.pop(group, None)
            if group not in self.dirty_set:
                self._current.pop(group, None)
        return report, must_commit
