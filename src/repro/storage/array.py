"""Disk arrays: redundancy mechanics over a set of simulated disks.

:class:`DiskArray` owns the disks, the geometry, and the shared I/O
counters, and implements everything both parity organizations share:
degraded reads, scrubbing, disk failure and rebuild.

:class:`SingleParityArray` adds the classical RAID small-write protocol
(read old data, read old parity, XOR, write data, write parity — four
page transfers, three when the old data is already in the caller's
buffer), which is the ``a ∈ {3, 4}`` constant of the paper's cost model,
plus full-stripe writes for bulk loading.

The twin-parity variant used by RDA recovery lives in
:mod:`repro.storage.twin_array`.

All parity arithmetic routes through the vectorized page kernels
(:mod:`repro.storage.kernels`): reconstruction and rebuild paths gather
their operands and reduce them in one batched k-page XOR rather than
k-1 pairwise passes.
"""

from __future__ import annotations

from ..errors import (AddressError, ArrayDegradedError, LatentSectorError,
                      UnrecoverableDataError)
from ..obs.tracer import NULL_TRACER
from .disk import SimulatedDisk
from .geometry import Geometry, PhysAddr
from .iostats import IOStats
from .page import PAGE_SIZE, ParityHeader, compute_parity, xor_pages


def unwatched(what: str, number: int) -> None:
    """The ``before_write`` of a :meth:`DiskArray.write_group` nobody
    interrupts."""


class DiskArray:
    """Base array: disks + geometry + shared accounting.

    Args:
        geometry: the :class:`~repro.storage.geometry.Geometry` to realize.
        stats: shared :class:`IOStats`; a fresh one is created if omitted.
        tracer: event tracer (default: the shared disabled tracer).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    #: capability flag checked by the recovery layer instead of
    #: isinstance/hasattr probes; :class:`~repro.storage.twin_array.
    #: TwinParityArray` overrides it to True
    supports_twins = False

    def __init__(self, geometry: Geometry, stats: IOStats | None = None,
                 tracer=None, metrics=None) -> None:
        self.geometry = geometry
        self.stats = stats if stats is not None else IOStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self._xfer_hist = (metrics.histogram("array.small_write_transfers")
                           if metrics is not None else None)
        self.disks = [
            SimulatedDisk(d, geometry.capacity_per_disk, self.stats)
            for d in range(geometry.num_disks)
        ]

    # -- basic addressing ------------------------------------------------------

    @property
    def num_data_pages(self) -> int:
        """Number of logical data pages (S)."""
        return self.geometry.num_data_pages

    def failed_disks(self) -> list:
        """Ids of disks currently failed."""
        return [d.disk_id for d in self.disks if d.failed]

    def _read_at(self, addr: PhysAddr) -> bytes:
        return self.disks[addr.disk].read(addr.slot)

    def _write_at(self, addr: PhysAddr, payload: bytes) -> None:
        self.disks[addr.disk].write(addr.slot, payload)

    # -- reads (including degraded mode) ----------------------------------------

    def read_page(self, page: int) -> bytes:
        """Read logical data page ``page``.

        If its disk has failed, the contents are reconstructed from the
        surviving group members and the group's parity (a *degraded
        read*, costing N page transfers instead of 1).
        """
        addr = self.geometry.data_address(page)
        if not self.disks[addr.disk].failed:
            return self._read_at(addr)
        if not self.tracer.enabled:
            return self._reconstruct_data_page(page)
        with self.stats.window() as window:
            payload = self._reconstruct_data_page(page)
        self.tracer.emit_costed("array.degraded_read", window, page=page)
        return payload

    def _reconstruct_data_page(self, page: int) -> bytes:
        group = self.geometry.group_of(page)
        pieces = []
        for mate in self.geometry.group_pages(group):
            if mate == page:
                continue
            mate_addr = self.geometry.data_address(mate)
            if self.disks[mate_addr.disk].failed:
                raise UnrecoverableDataError(
                    f"two failed data disks in group {group}; page {page} lost"
                )
            pieces.append(self._read_at(mate_addr))
        pieces.append(self._group_parity_for_reconstruction(group))
        return xor_pages(*pieces)

    def _group_parity_for_reconstruction(self, group: int) -> bytes:
        """Parity payload to use when reconstructing a lost data page.

        Single-parity arrays read their one parity page; the twin array
        overrides this to pick the twin that reflects the current on-disk
        data.
        """
        (addr,) = self.geometry.parity_addresses(group)
        if self.disks[addr.disk].failed:
            raise UnrecoverableDataError(
                f"group {group}: both a data disk and the parity disk are failed"
            )
        return self._read_at(addr)

    # -- failure handling --------------------------------------------------------

    def fail_disk(self, disk_id: int) -> None:
        """Inject a fail-stop failure on ``disk_id``."""
        self._check_disk(disk_id)
        self.disks[disk_id].fail()

    def rebuild_disk(self, disk_id: int) -> int:
        """Replace ``disk_id`` with a blank disk and rebuild its contents.

        Data slots are reconstructed from group mates + parity; parity
        slots are recomputed from the group's data.  Returns the number
        of slots rebuilt.  Raises
        :class:`~repro.errors.UnrecoverableDataError` if a second failure
        makes some slot unrecoverable.
        """
        self._check_disk(disk_id)
        with self.tracer.span("array.rebuild", stats=self.stats,
                              disk=disk_id) as span:
            disk = self.disks[disk_id]
            disk.replace()
            rebuilt = 0
            for slot, page in self.geometry.pages_on_disk(disk_id):
                payload = self._reconstruct_data_page(page)
                disk.write(slot, payload)
                rebuilt += 1
            for group in self.geometry.groups_with_parity_on(disk_id):
                rebuilt += self._rebuild_parity_slot(disk_id, group)
            span.set(slots=rebuilt)
        if self.metrics is not None:
            self.metrics.counter("array.rebuilds").inc()
        return rebuilt

    def _rebuild_parity_slot(self, disk_id: int, group: int) -> int:
        """Recompute the parity slot(s) of ``group`` living on ``disk_id``."""
        data = [self.read_page(p) for p in self.geometry.group_pages(group)]
        parity = compute_parity(data)
        written = 0
        for addr in self.geometry.parity_addresses(group):
            if addr.disk == disk_id:
                self.disks[disk_id].write_with_header(addr.slot, parity, ParityHeader())
                written += 1
        return written

    def rewrite_parity(self, group: int, data: list,
                       disk_id: int | None = None) -> None:
        """Rewrite the parity page(s) of ``group`` from its data payloads.

        Used by restart parity resync and sector repair, which already
        hold the group's data in hand.  With ``disk_id`` set, only the
        parity page(s) living on that disk are rewritten (sector repair);
        otherwise every parity address of the group is refreshed.
        Backends with richer parity (RAID-6's P+Q) override this to write
        each page its own encoding.
        """
        parity = compute_parity(data)
        for addr in self.geometry.parity_addresses(group):
            if disk_id is not None and addr.disk != disk_id:
                continue
            self.disks[addr.disk].write(addr.slot, parity)

    # -- several pages of one group (restart's restore loop) -------------------

    def write_group(self, group: int, writes: list,
                    before_write=unwatched) -> None:
        """Parity-tracking write of pages of one group: ``writes`` holds
        ``(page, new_data, old_data)`` in page order, ``old_data`` the
        page's on-disk bytes or None.  ``before_write("page", page)`` /
        ``before_write("parity group", group)`` is called immediately
        before each physical write it can name (recovery's fault seam).

        The default is a small write per page, parity written with each
        — what RAID-6, a non-RDA engine on twin parity, and any group
        with a failed disk in play take.
        """
        for page, new_data, old_data in writes:
            before_write("page", page)
            self.write_page(page, new_data, old_data=old_data)

    def _write_group_resident(self, group: int, writes: list,
                              parity_addr: PhysAddr, header,
                              before_write, parity_in_hand=None) -> bool:
        """The group-resident body: read the parity page at
        ``parity_addr`` once — unless the caller holds its bytes,
        ``parity_in_hand`` — fold ``old ⊕ new`` of every page of
        ``writes`` into it, write the data pages in order, then write
        the parity once (under ``header`` on a twin array) —
        ``2·k + 2 − buffered − in_hand`` transfers where k small writes
        cost ``4·k − buffered``, and exactly a small write's for k = 1.

        Data-then-parity, the order of every committed small write: a
        crash inside the body leaves up to k data pages newer than the
        parity, the write hole the restart scrub resyncs.  Returns
        False, having touched nothing, when a disk in play has failed
        (the caller's per-page path knows the degraded cases).
        """
        disks = self.disks
        parity_disk = disks[parity_addr.disk]
        addrs = [self.geometry.data_address(page) for page, _, _ in writes]
        if parity_disk.failed or any(disks[addr.disk].failed
                                     for addr in addrs):
            return False
        operands = []
        buffered = 0
        for (_, new_data, old_data), addr in zip(writes, addrs):
            if old_data is None:
                old_data = disks[addr.disk].read(addr.slot)
            else:
                buffered += 1
            operands += (old_data, new_data)
        in_hand = parity_in_hand is not None
        parity = xor_pages(parity_in_hand if in_hand
                           else parity_disk.read(parity_addr.slot), *operands)
        for (page, new_data, _), addr in zip(writes, addrs):
            before_write("page", page)
            disks[addr.disk].write(addr.slot, new_data)
        before_write("parity group", group)
        if header is None:
            parity_disk.write(parity_addr.slot, parity)
        else:
            parity_disk.write_with_header(parity_addr.slot, parity, header)
        pages = len(writes)
        reads = pages + 1 - buffered - in_hand
        if self._xfer_hist is not None:
            self._xfer_hist.observe(reads + pages + 1)
        if self.tracer.enabled:
            # one costed event for the group, not a small-write row per
            # page that would price the shared twin k times
            self.tracer.emit("array.group_write", group=group, pages=pages,
                             buffered_pages=buffered,
                             parity_in_hand=int(in_hand), reads=reads,
                             writes=pages + 1, transfers=reads + pages + 1)
        return True

    def _check_disk(self, disk_id: int) -> None:
        if not 0 <= disk_id < len(self.disks):
            raise AddressError(f"disk {disk_id} out of range")

    def scrub_repair(self) -> list:
        """Background scrub: read every data page (CRC-checked) and
        repair any latent sector errors from parity.  Returns the pages
        repaired.  Run it periodically, like a real array's patrol read
        — latent errors found *before* a disk failure are repairable;
        found during a rebuild they would be data loss."""
        repaired = []
        for page in range(self.num_data_pages):
            try:
                self.read_page(page)
            except LatentSectorError:
                self.repair_page(page)
                repaired.append(page)
        return repaired

    def provision_spares(self, count: int) -> None:
        """Stock ``count`` hot-spare drives."""
        if count < 0:
            raise ValueError("spare count must be non-negative")
        self._spares = getattr(self, "_spares", 0) + count

    @property
    def spare_count(self) -> int:
        """Hot spares remaining."""
        return getattr(self, "_spares", 0)

    def rebuild_with_spare(self, disk_id: int, **kwargs):
        """Rebuild a failed disk onto a hot spare (consumes one).

        Raises:
            ArrayDegradedError: no spare in stock — the array stays
                degraded until one is provisioned.
        """
        if self.spare_count < 1:
            raise ArrayDegradedError(
                f"disk {disk_id} failed and no hot spare is available")
        self._spares -= 1
        return self.rebuild_disk(disk_id, **kwargs)

    def repair_page(self, page: int) -> bytes:
        """Repair a latent sector error on one data page.

        Reconstructs the page from its group mates + parity and rewrites
        it in place (checksummed again).  Returns the repaired payload.
        Works while the sector is corrupt but the disk is otherwise
        healthy — the RAID answer to checksum-mismatch reads.
        """
        payload = self._reconstruct_data_page(page)
        addr = self.geometry.data_address(page)
        self.disks[addr.disk].write(addr.slot, payload)
        return payload

    def read_page_healing(self, page: int) -> bytes:
        """Read a page, transparently repairing a latent sector error."""
        try:
            return self.read_page(page)
        except LatentSectorError:
            return self.repair_page(page)

    # -- verification (uncounted; used by tests and the scrubber) ----------------

    def peek_page(self, page: int) -> bytes:
        """Read a data page without accounting or failure checks (tests)."""
        addr = self.geometry.data_address(page)
        return self.disks[addr.disk].peek(addr.slot)

    def group_data_payloads(self, group: int) -> list:
        """Uncounted payloads of all data pages of ``group`` (tests)."""
        return [self.peek_page(p) for p in self.geometry.group_pages(group)]

    def scrub(self) -> list:
        """Return the list of groups whose parity does not match the data.

        Uses uncounted peeks: scrubbing is a verification aid, not part
        of the modeled workload.
        """
        bad = []
        for group in range(self.geometry.num_groups):
            if not self._group_consistent(group):
                bad.append(group)
        return bad

    def _group_consistent(self, group: int) -> bool:
        expected = compute_parity(self.group_data_payloads(group))
        (addr,) = self.geometry.parity_addresses(group)
        return self.disks[addr.disk].peek(addr.slot) == expected


class SingleParityArray(DiskArray):
    """Classical RAID array: one parity page per group, updated in place."""

    def write_page(self, page: int, new_data: bytes,
                   old_data: bytes | None = None) -> None:
        """Small write: update ``page`` and its group parity.

        Costs 4 page transfers, or 3 when ``old_data`` (the page's
        current on-disk contents) is supplied by the caller's buffer —
        exactly the model's ``a`` constant.  When recomputing the parity
        from the group's *other* members is strictly cheaper than the
        read-modify-write (only possible for two-page groups with the
        old data unbuffered: N-1 reads < 2 reads), the write switches to
        the classical *reconstruct-write* and costs N+1 transfers.

        Degraded cases: if the parity disk is failed the data is written
        without a parity update; if the data disk is failed the write is
        absorbed into parity alone (the page stays reconstructable).
        """
        if len(new_data) != PAGE_SIZE:
            raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
        stats = self.stats
        reads, writes = stats.reads, stats.writes
        mode, degraded = self._write_page_inner(page, new_data, old_data)
        reads, writes = stats.reads - reads, stats.writes - writes
        if self._xfer_hist is not None:
            self._xfer_hist.observe(reads + writes)
        if self.tracer.enabled:
            self.tracer.emit("array.small_write", page=page, mode=mode,
                             buffered=old_data is not None,
                             degraded=degraded, reads=reads, writes=writes,
                             transfers=reads + writes)

    def _write_page_inner(self, page: int, new_data: bytes,
                          old_data: bytes | None) -> tuple:
        """The write itself; returns ``(mode, degraded)`` for tracing."""
        addr = self.geometry.data_address(page)
        group = self.geometry.group_of(page)
        (parity_addr,) = self.geometry.parity_addresses(group)
        data_disk = self.disks[addr.disk]
        parity_disk = self.disks[parity_addr.disk]

        if data_disk.failed:
            if parity_disk.failed:
                raise UnrecoverableDataError(
                    f"group {group}: data and parity disks both failed"
                )
            old = self._reconstruct_data_page(page) if old_data is None else old_data
            old_parity = self._read_at(parity_addr)
            new_parity = xor_pages(old_parity, old, new_data)
            self._write_at(parity_addr, new_parity)
            return "small", True

        if parity_disk.failed:
            self._write_at(addr, new_data)
            return "small", True

        # small write reads {old data?, old parity}; reconstruct-write
        # reads the N-1 group mates — take the cheaper plan
        small_reads = (2 if old_data is None else 1)
        if self.geometry.group_size - 1 < small_reads \
                and not any(d.failed for d in self.disks):
            mates = [self._read_at(self.geometry.data_address(mate))
                     for mate in self.geometry.group_pages(group)
                     if mate != page]
            self._write_at(addr, new_data)
            self._write_at(parity_addr, compute_parity([*mates, new_data]))
            return "reconstruct", False

        old = self._read_at(addr) if old_data is None else old_data
        old_parity = self._read_at(parity_addr)
        new_parity = xor_pages(old_parity, old, new_data)
        self._write_at(addr, new_data)
        self._write_at(parity_addr, new_parity)
        return "small", False

    def write_group(self, group: int, writes: list,
                    before_write=unwatched) -> None:
        """One parity read and one parity write for the whole group
        (:meth:`_write_group_resident`).  Two-page groups keep the
        per-page path, whose reconstruct-write is the cheaper plan
        there."""
        (parity_addr,) = self.geometry.parity_addresses(group)
        if self.geometry.group_size < 3 or not self._write_group_resident(
                group, writes, parity_addr, None, before_write):
            super().write_group(group, writes, before_write)

    def full_stripe_write(self, group: int, payloads: list) -> None:
        """Write every data page of ``group`` plus fresh parity.

        Costs N+1 page transfers (no reads) — the large-access case the
        paper mentions but does not model; used for bulk loading.
        """
        pages = self.geometry.group_pages(group)
        if len(payloads) != len(pages):
            raise ValueError(
                f"group {group} has {len(pages)} data pages, got {len(payloads)} payloads"
            )
        for page, payload in zip(pages, payloads):
            self._write_at(self.geometry.data_address(page), payload)
        parity = compute_parity(payloads)
        (parity_addr,) = self.geometry.parity_addresses(group)
        self._write_at(parity_addr, parity)
