"""Twin-parity disk array (paper Section 4.2, Figures 4-6).

Each parity group has **two** parity pages ("twins") on two distinct
disks.  At any moment one twin holds the parity of the group's last
*committed* state; when an uncommitted transaction's page is written
into the group, the *other* twin receives the new parity, leaving the
committed twin untouched so that

    D_old = P_working XOR P_committed XOR D_new

can undo the write without any UNDO log record.

This module provides the *mechanics* only: twin reads/writes with
headers, the combined small-write protocol, twin selection, and media
rebuild.  The *policy* — which twin to update when, group clean/dirty
state, the Dirty_Set table, commit/abort handling — lives in
:mod:`repro.core`.

Write-cost accounting matches the paper's model:

* updating one twin: 4 page transfers (3 with the old data buffered) —
  the same ``a`` as a single-parity array;
* updating both twins (writes into a *dirty* group): 2 extra transfers,
  the model's ``a + 2`` / ``3 + 2*p_l`` term.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import UnrecoverableDataError
from .array import DiskArray
from .geometry import Geometry
from .page import (PAGE_SIZE, ParityHeader, TwinState, compute_parity,
                   xor_pages)


@dataclass(frozen=True)
class TwinUpdate:
    """One parity-twin update inside a small write.

    Attributes:
        source: twin index (0/1) whose *current contents* seed the new
            parity.  For the first steal into a clean group this is the
            committed twin; for an in-place update it equals ``target``.
        target: twin index to write the new parity into.
        header: header to stamp on the target twin.
    """

    source: int
    target: int
    header: ParityHeader


class WindowTrace:
    """An open :meth:`TwinParityArray.traced_window`: what the window
    has written so far through the inline body of ``small_write``
    (``first_steals`` is the RDA manager's count).  While entered it is
    the array's ``window``; leaving emits the window's one event."""

    __slots__ = ("_array", "pages", "buffered_pages", "first_steals")

    def __init__(self, array: "TwinParityArray") -> None:
        self._array = array
        self.pages = self.buffered_pages = self.first_steals = 0

    def __enter__(self) -> "WindowTrace":
        self._array.window = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._array.window = None
        pages = self.pages
        if pages:
            # per inline page: twin read + two writes, + the old-data
            # read unless buffered
            reads = 2 * pages - self.buffered_pages
            self._array.tracer.emit(
                "array.small_write_batch", first_steals=self.first_steals,
                pages=pages, buffered_pages=self.buffered_pages,
                reads=reads, writes=2 * pages, transfers=reads + 2 * pages)


@dataclass(frozen=True)
class RebuildReport:
    """Outcome of :meth:`TwinParityArray.rebuild_disk`.

    Attributes:
        slots_rebuilt: total slots written on the replacement disk.
        lost_undo_groups: dirty groups whose *committed* twin lived on
            the failed disk; their parity-encoded before-image is gone.
    """

    slots_rebuilt: int
    lost_undo_groups: tuple


@dataclass(frozen=True)
class DirtyGroupInfo:
    """What the core layer knows about a dirty group during rebuild.

    ``working_twin`` names the twin index currently holding the working
    parity — headers alone cannot distinguish the twins, because after a
    commit the superseded twin keeps its stale WORKING header on disk
    (commit is a main-memory bit flip; the log is the authority).
    """

    txn_id: int
    dirty_page_index: int
    working_timestamp: int
    working_twin: int


def select_current_twin(headers: tuple, committed_txns=None) -> int:
    """Index (0/1) of the twin holding the group's *valid* parity.

    Implements algorithm ``Current_Parity`` (paper Figure 7) extended
    with the four-state lifecycle of Figure 8: OBSOLETE and INVALID
    twins are never valid; a WORKING twin is valid only if its owning
    transaction is known committed (``committed_txns``) or if the caller
    passes ``committed_txns=None`` meaning "trust WORKING" (runtime use,
    where the in-memory Dirty_Set tracks ownership).

    Among valid candidates the larger timestamp wins, as in Figure 7.
    With no valid twin (e.g. a freshly formatted group), OBSOLETE twins
    are preferred over INVALID ones — an INVALID twin is *known* wrong
    (its transaction aborted), while an OBSOLETE twin on a never-updated
    group still matches the data.
    """
    candidates = []
    for index, header in enumerate(headers):
        if header.state is TwinState.COMMITTED:
            candidates.append(index)
        elif header.state is TwinState.WORKING:
            if committed_txns is None or header.txn_id in committed_txns:
                candidates.append(index)
    if not candidates:
        candidates = [i for i, h in enumerate(headers)
                      if h.state is not TwinState.INVALID]
    if not candidates:
        candidates = [0, 1]
    return max(candidates, key=lambda i: headers[i].timestamp)


class TwinParityArray(DiskArray):
    """Disk array with two parity pages per group (RDA substrate)."""

    supports_twins = True

    def __init__(self, geometry: Geometry, stats=None, tracer=None,
                 metrics=None) -> None:
        if not geometry.twin:
            raise ValueError("TwinParityArray requires a twin geometry")
        super().__init__(geometry, stats, tracer=tracer, metrics=metrics)
        self._clock = 0
        self.barrier_hook = None    # conformance seam (repro.check)
        self.window = None          # open WindowTrace (traced_window)

    # -- timestamps ---------------------------------------------------------------

    def next_timestamp(self) -> int:
        """Monotonically increasing stamp for twin ordering."""
        self._clock += 1
        return self._clock

    def observe_timestamp(self, timestamp: int) -> None:
        """Advance the clock past a stamp seen on disk (crash recovery)."""
        if timestamp > self._clock:
            self._clock = timestamp

    # -- twin I/O -------------------------------------------------------------------

    def read_twin(self, group: int, which: int) -> tuple:
        """Read one parity twin: ``(payload, header)``; 1 page transfer."""
        addr = self.geometry.parity_addresses(group)[which]
        return self.disks[addr.disk].read_with_header(addr.slot)

    def read_twins(self, group: int) -> tuple:
        """Read both twins: ``((payload, header), (payload, header))``;
        2 page transfers."""
        first, second = self.geometry.parity_addresses(group)
        return (self.disks[first.disk].read_with_header(first.slot),
                self.disks[second.disk].read_with_header(second.slot))

    def write_twin(self, group: int, which: int, payload: bytes,
                   header: ParityHeader) -> None:
        """Write one parity twin (payload + header); 1 page transfer."""
        addr = self.geometry.parity_addresses(group)[which]
        self.disks[addr.disk].write_with_header(addr.slot, payload, header)

    def rewrite_twin_header(self, group: int, which: int,
                            header: ParityHeader) -> None:
        """Rewrite a twin in place with a new header (1 page transfer).

        Used to demote a twin to INVALID after an abort; the payload is
        unchanged but the sector must be rewritten.
        """
        addr = self.geometry.parity_addresses(group)[which]
        disk = self.disks[addr.disk]
        payload = disk.read(addr.slot)
        # the read above is part of the same rewrite; refund it so the
        # operation costs one transfer, like a real read-modify-write of
        # an in-controller-cached header sector would
        self.stats.reads -= 1
        self.stats.per_disk_reads[addr.disk] -= 1
        disk.write_with_header(addr.slot, payload, header)

    def peek_twin(self, group: int, which: int) -> tuple:
        """Uncounted twin read for tests: ``(payload, header)``."""
        addr = self.geometry.parity_addresses(group)[which]
        disk = self.disks[addr.disk]
        return disk.peek(addr.slot), disk.peek_header(addr.slot)

    # -- the small-write protocol -----------------------------------------------------

    def write_page(self, page: int, new_data: bytes,
                   old_data: bytes | None = None) -> None:
        """Generic small write (the :class:`StorageBackend` surface):
        update the page and the group's *current* parity twin, stamping
        it COMMITTED.  This is the parity-tracking write a non-RDA
        engine performs on a twin substrate — twin roles never change.
        RDA's steal/undo machinery bypasses this and drives
        :meth:`small_write` with explicit :class:`TwinUpdate` lists.
        """
        group = self.geometry.group_of(page)
        headers = tuple(self.peek_twin(group, which)[1]
                        for which in range(2))
        current = select_current_twin(headers)
        header = ParityHeader(timestamp=self.next_timestamp(),
                              state=TwinState.COMMITTED)
        self.small_write(page, new_data,
                         [TwinUpdate(current, current, header)],
                         old_data=old_data)

    def small_write(self, page: int, new_data: bytes, updates: list,
                    old_data: bytes | None = None,
                    twin_first: bool = False) -> None:
        """Write a data page, updating the listed parity twins.

        Each :class:`TwinUpdate` reads its ``source`` twin, XORs in the
        data delta (``old XOR new``), and writes the result to its
        ``target`` twin with the supplied header.  Transfer cost:
        ``1 read (old data, unless supplied) + len(updates) reads +
        1 write (data) + len(updates) writes``.

        ``twin_first`` writes the parity twins *before* the data page.
        This is the RDA analogue of the WAL rule: an unlogged steal's
        only undo information is the twin pair, so the working twin must
        be durable before the data overwrite — a crash between the two
        writes then leaves a WORKING header that restart can see, rather
        than an uncommitted page no recovery source knows about.

        One twin on three healthy disks (data, source twin, target
        twin) — every unlogged steal and clean-group committed write —
        takes the body inline: the same reads, writes, order and counts
        as :meth:`_small_write_inner`, without its two-twin and
        failed-disk handling.  Anything else takes the general path.
        Degraded behaviour there: a failed twin disk is skipped (the
        group loses that twin until rebuild); a failed data disk absorbs
        the write into the surviving twins.
        """
        if len(new_data) != PAGE_SIZE:
            raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
        if not updates:
            raise ValueError("small_write needs at least one TwinUpdate")
        disks = self.disks
        addr = self.geometry.data_address(page)
        data_disk = disks[addr.disk]
        inline = len(updates) == 1 and not data_disk.failed
        if inline:
            update = updates[0]
            # a group is a stripe row: its slot on every disk
            parity = self.geometry.parity_addresses(addr.slot)
            source = parity[update.source]
            target = parity[update.target]
            source_disk = disks[source.disk]
            target_disk = disks[target.disk]
            inline = not (source_disk.failed or target_disk.failed)
        buffered = old_data is not None
        if inline:
            old = old_data if buffered else data_disk.read(addr.slot)
            twin = source_disk.read(source.slot)
            new_twin = xor_pages(old, new_data, twin)
            if twin_first:
                target_disk.write_with_header(target.slot, new_twin,
                                              update.header)
                data_disk.write(addr.slot, new_data)
            else:
                data_disk.write(addr.slot, new_data)
                target_disk.write_with_header(target.slot, new_twin,
                                              update.header)
            # twin read + two writes, + the old-data read unless buffered
            reads, writes = 2 - buffered, 2
        else:
            stats = self.stats
            reads, writes = stats.reads, stats.writes
            self._small_write_inner(page, new_data, updates, old_data,
                                    twin_first)
            reads, writes = stats.reads - reads, stats.writes - writes
        if self._xfer_hist is not None:
            self._xfer_hist.observe(reads + writes)
        if self.tracer.enabled:
            window = self.window
            if inline and window is not None:
                window.pages += 1
                window.buffered_pages += buffered
            else:
                self.tracer.emit("array.small_write", page=page,
                                 buffered=buffered, twins=len(updates),
                                 reads=reads, writes=writes,
                                 transfers=reads + writes)
        if self.barrier_hook is not None:
            self.barrier_hook("twin_write", page=page)

    def group_small_write(self, group: int, writes: list, which: int,
                          header: ParityHeader, before_write,
                          parity_in_hand: bytes | None = None) -> None:
        """Committed writes of several pages of one group, updating
        twin ``which`` in place under ``header``: one twin read — none
        when the caller holds the twin's payload, ``parity_in_hand`` —
        and one twin write for the group
        (:meth:`~repro.storage.array.DiskArray._write_group_resident`),
        the ``twin_write`` barrier once, after the twin write, when the
        group is consistent again.  With a failed disk in play each page
        takes :meth:`small_write`'s general path instead."""
        twin = self.geometry.parity_addresses(group)[which]
        if self._write_group_resident(group, writes, twin, header,
                                      before_write, parity_in_hand):
            if self.barrier_hook is not None:
                self.barrier_hook("twin_write", group=group)
            return
        updates = [TwinUpdate(which, which, header)]
        for page, new_data, old_data in writes:
            before_write("page", page)
            self.small_write(page, new_data, updates, old_data=old_data)

    def traced_window(self) -> WindowTrace:
        """Coalesce the trace of a multi-page write-back window: while
        the returned context manager is entered, inline small writes
        count themselves into it instead of emitting an event each
        (general-path writes keep theirs); leaving emits the one costed
        ``array.small_write_batch`` event the trace aggregators expand
        back into per-page rows.  Opened only with tracing on."""
        return WindowTrace(self)

    def _small_write_inner(self, page: int, new_data: bytes, updates: list,
                           old_data: bytes | None,
                           twin_first: bool = False) -> None:
        addr = self.geometry.data_address(page)
        group = self.geometry.group_of(page)
        data_disk = self.disks[addr.disk]

        if data_disk.failed:
            old = self._reconstruct_data_page(page) if old_data is None else old_data
        else:
            old = data_disk.read(addr.slot) if old_data is None else old_data
        delta = xor_pages(old, new_data)

        new_payloads = {}
        for update in updates:
            twin_addr = self.geometry.parity_addresses(group)[update.source]
            if self.disks[twin_addr.disk].failed:
                continue
            if update.source in new_payloads and update.source == update.target:
                source_payload = new_payloads[update.source]
            else:
                source_payload, _ = self.read_twin(group, update.source)
            new_payloads[update.target] = xor_pages(source_payload, delta)

        if not twin_first and not data_disk.failed:
            data_disk.write(addr.slot, new_data)
        for update in updates:
            if update.target not in new_payloads:
                continue  # its source twin was on a failed disk
            target_addr = self.geometry.parity_addresses(group)[update.target]
            if self.disks[target_addr.disk].failed:
                continue
            self.write_twin(group, update.target, new_payloads[update.target],
                            update.header)
        if twin_first and not data_disk.failed:
            data_disk.write(addr.slot, new_data)

    def write_data_only(self, page: int, payload: bytes) -> None:
        """Write a data page WITHOUT touching parity (1 page transfer).

        Only correct when the parity already reflects ``payload`` — the
        undo-via-parity path: restoring ``D_old`` makes the data match
        the committed twin again, so no parity update is needed.
        """
        if len(payload) != PAGE_SIZE:
            raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
        addr = self.geometry.data_address(page)
        self.disks[addr.disk].write(addr.slot, payload)

    def full_stripe_write(self, group: int, payloads: list,
                          header: ParityHeader | None = None) -> None:
        """Bulk-load a whole group: N data pages + both twins.

        Twin 0 is stamped COMMITTED with a fresh timestamp, twin 1
        OBSOLETE; pass ``header`` to override twin 0's header.
        """
        pages = self.geometry.group_pages(group)
        if len(payloads) != len(pages):
            raise ValueError(
                f"group {group} has {len(pages)} data pages, got {len(payloads)}"
            )
        for page, payload in zip(pages, payloads):
            self._write_at(self.geometry.data_address(page), payload)
        parity = compute_parity(payloads)
        stamp = self.next_timestamp()
        committed = header if header is not None else ParityHeader(
            timestamp=stamp, state=TwinState.COMMITTED)
        self.write_twin(group, 0, parity, committed)
        self.write_twin(group, 1, parity,
                        ParityHeader(timestamp=0, state=TwinState.OBSOLETE))

    # -- reconstruction ------------------------------------------------------------------

    def _group_parity_for_reconstruction(self, group: int) -> bytes:
        """Twin payload matching the group's *current on-disk* data.

        The newest trusted twin (runtime ``select_current_twin`` rule)
        reflects the on-disk state: a WORKING twin includes the latest
        write, committed or stolen, and commit never rewrites the
        superseded twin — so stale WORKING and COMMITTED headers coexist
        and the timestamp is the authority.
        """
        (p0, h0), (p1, h1) = self.read_twins(group)
        which = select_current_twin((h0, h1))
        return (p0, p1)[which]

    def _group_consistent(self, group: int) -> bool:
        """Scrub check: the newest trusted twin must match the data
        (same selection rule as reconstruction)."""
        expected = compute_parity(self.group_data_payloads(group))
        payloads = []
        headers = []
        for which in range(2):
            payload, header = self.peek_twin(group, which)
            payloads.append(payload)
            headers.append(header)
        which = select_current_twin(tuple(headers))
        return payloads[which] == expected

    def rebuild_disk(self, disk_id: int, dirty_info: dict | None = None,
                     on_lost_undo: str = "raise") -> RebuildReport:
        """Replace ``disk_id`` and rebuild data slots and parity twins.

        Args:
            disk_id: the failed disk to replace.
            dirty_info: mapping ``group -> DirtyGroupInfo`` for groups
                currently dirty (supplied by the core layer's Dirty_Set);
                groups absent from the mapping are treated as clean.
            on_lost_undo: what to do when the failed disk held the
                *committed* twin of a dirty group (the parity-encoded
                before-image is unrecoverable): ``"raise"`` raises
                :class:`~repro.errors.UnrecoverableDataError`;
                ``"adopt"`` re-stamps a recomputed twin as COMMITTED
                (adopting the uncommitted contents) and reports the group
                in ``lost_undo_groups`` so the caller can pin the owning
                transaction to commit.

        Returns a :class:`RebuildReport`.
        """
        if on_lost_undo not in ("raise", "adopt"):
            raise ValueError("on_lost_undo must be 'raise' or 'adopt'")
        dirty_info = dirty_info or {}
        self._check_disk(disk_id)
        with self.tracer.span("array.rebuild", stats=self.stats,
                              disk=disk_id) as span:
            disk = self.disks[disk_id]
            disk.replace()
            rebuilt = 0
            lost_undo = []
            for slot, page in self.geometry.pages_on_disk(disk_id):
                payload = self._reconstruct_data_page(page)
                disk.write(slot, payload)
                rebuilt += 1
            for group in self.geometry.groups_with_parity_on(disk_id):
                addrs = self.geometry.parity_addresses(group)
                which_failed = next(i for i, a in enumerate(addrs)
                                    if a.disk == disk_id)
                lost = self._rebuild_twin(group, which_failed,
                                          dirty_info.get(group), on_lost_undo)
                if lost:
                    lost_undo.append(group)
                rebuilt += 1
            span.set(slots=rebuilt, lost_undo_groups=len(lost_undo))
        if self.metrics is not None:
            self.metrics.counter("array.rebuilds").inc()
        return RebuildReport(slots_rebuilt=rebuilt, lost_undo_groups=tuple(lost_undo))

    def _rebuild_twin(self, group: int, which: int, info, on_lost_undo: str) -> bool:
        """Recompute one twin of ``group``; returns True if undo was lost."""
        data = [self.read_page(p) for p in self.geometry.group_pages(group)]
        parity = compute_parity(data)
        _, survivor_header = self.read_twin(group, 1 - which)
        if info is None:
            # clean group: the recomputed twin becomes the committed one
            stamp = max(self.next_timestamp(), survivor_header.timestamp + 1)
            self.observe_timestamp(stamp)
            self.write_twin(group, which, parity,
                            ParityHeader(timestamp=stamp, state=TwinState.COMMITTED))
            return False
        if which == info.working_twin:
            # the failed twin was the WORKING one: recompute it (the data
            # already contains the stolen page, so parity-from-data IS the
            # working parity)
            self.write_twin(group, which, parity, ParityHeader(
                timestamp=info.working_timestamp,
                txn_id=info.txn_id,
                dirty_page_index=info.dirty_page_index,
                state=TwinState.WORKING,
            ))
            return False
        # the failed twin held the committed parity of a dirty group: the
        # parity-encoded before-image is gone
        if on_lost_undo == "raise":
            raise UnrecoverableDataError(
                f"group {group}: committed parity twin lost while dirty "
                f"(txn {info.txn_id}); before-image unrecoverable"
            )
        stamp = max(self.next_timestamp(), survivor_header.timestamp + 1)
        self.observe_timestamp(stamp)
        self.write_twin(group, which, parity,
                        ParityHeader(timestamp=stamp, state=TwinState.COMMITTED))
        return True
