"""A simulated disk.

Each :class:`SimulatedDisk` stores fixed-size page payloads plus the
out-of-band parity headers described in :mod:`repro.storage.page`.  It
supports *fail-stop* failure injection (:meth:`fail` / :meth:`replace`)
so that media-recovery code paths can be exercised for real: a failed
disk raises :class:`~repro.errors.DiskFailedError` on every access and a
replaced disk comes back blank, forcing the array layer to rebuild its
contents from parity.

All I/O is counted against an :class:`~repro.storage.iostats.IOStats`
instance, which is the cost model's unit of measure.
"""

from __future__ import annotations

import zlib

from ..errors import AddressError, DiskFailedError, LatentSectorError
from .iostats import IOStats
from .page import PAGE_SIZE, ZERO_PAGE, ParityHeader


class SimulatedDisk:
    """One disk of ``capacity`` page slots.

    Args:
        disk_id: identifier used in addressing and statistics.
        capacity: number of page slots on the disk.
        stats: shared I/O counter; a private one is created if omitted.
    """

    def __init__(self, disk_id: int, capacity: int, stats: IOStats | None = None) -> None:
        if capacity <= 0:
            raise ValueError("disk capacity must be positive")
        self.disk_id = disk_id
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStats()
        self._pages: dict = {}
        self._headers: dict = {}
        # Checksum bookkeeping is lazy: a full ``slot -> crc32`` map
        # maintained on every write costs a crc per page transfer, yet
        # only matters for slots whose stored bytes may differ from what
        # the writer intended.  ``_suspect`` maps exactly those slots
        # (fault-hook replacements, injected corruption) to the crc of
        # the *intended* contents; ``_written`` records which slots ever
        # stored a checksum, preserving the legacy rule that corrupting
        # a never-written slot has no checksum to contradict.
        self._suspect: dict = {}
        self._written: set = set()
        self.failed = False     # fail-stop state; fail()/replace()/revive()
        self.on_access = None   # optional hook: (disk_id, slot, kind)
        # fault-injection seam: called before a write lands with
        # (disk_id, slot, payload); may raise to abort the write (nothing
        # lands or is counted) or return replacement bytes to store — the
        # checksum recorded is always that of the *intended* payload, so
        # a mangled replacement surfaces as a LatentSectorError on read.
        self.fault_hook = None

    # -- failure injection -------------------------------------------------

    def fail(self) -> None:
        """Fail the disk (fail-stop): contents become inaccessible."""
        self.failed = True

    def replace(self) -> None:
        """Swap in a blank replacement disk.

        The old contents are gone; the array layer must rebuild them from
        the surviving disks' parity.
        """
        self._pages.clear()
        self._headers.clear()
        self._suspect.clear()
        self._written.clear()
        self.failed = False

    def slot_written(self, slot: int) -> bool:
        """True when the slot has ever stored checksummed bytes.

        Corruption injected into a never-written slot is *undetectable*
        (there is no checksum to contradict), so fault injectors that
        need the scrubber to find their damage should target written
        slots only."""
        return slot in self._written

    def corrupt(self, slot: int) -> None:
        """Inject a latent sector error: flip bits without updating the
        checksum, so the next read raises
        :class:`~repro.errors.LatentSectorError`."""
        if slot in self._written and slot not in self._suspect:
            # the recorded checksum is that of the currently stored
            # bytes; pin it before they are flipped
            self._suspect[slot] = zlib.crc32(self._pages.get(slot, ZERO_PAGE))
        payload = bytearray(self._pages.get(slot, ZERO_PAGE))
        payload[0] ^= 0xFF
        payload[-1] ^= 0xFF
        self._pages[slot] = bytes(payload)
        # checksum left stale on purpose

    def revive(self) -> None:
        """Un-fail the disk *keeping* its contents (transient fault model)."""
        self.failed = False

    # -- I/O ----------------------------------------------------------------

    def _check(self, slot: int, operation: str) -> None:
        if self.failed:
            raise DiskFailedError(self.disk_id, operation)
        if not 0 <= slot < self.capacity:
            raise AddressError(
                f"slot {slot} out of range on disk {self.disk_id} (capacity {self.capacity})"
            )

    def read(self, slot: int) -> bytes:
        """Read the payload at ``slot`` (zero page if never written).

        Raises:
            LatentSectorError: stored checksum does not match — a latent
                sector error the caller should repair from redundancy.
        """
        if self.failed:
            raise DiskFailedError(self.disk_id, "read")
        if not 0 <= slot < self.capacity:
            self._check(slot, "read")
        stats = self.stats       # record_read(disk_id), inlined
        stats.reads += 1
        per_disk = stats.per_disk_reads
        per_disk[self.disk_id] = per_disk.get(self.disk_id, 0) + 1
        if self.on_access is not None:
            self.on_access(self.disk_id, slot, "read")
        payload = self._pages.get(slot, ZERO_PAGE)
        if self._suspect:
            expected = self._suspect.get(slot)
            if expected is not None and zlib.crc32(payload) != expected:
                raise LatentSectorError(self.disk_id, slot)
        return payload

    def write(self, slot: int, payload: bytes) -> None:
        """Write a full-page payload at ``slot``."""
        if self.failed:
            raise DiskFailedError(self.disk_id, "write")
        if not 0 <= slot < self.capacity:
            self._check(slot, "write")
        if len(payload) != PAGE_SIZE:
            raise ValueError(f"payload must be {PAGE_SIZE} bytes, got {len(payload)}")
        stored = payload
        if self.fault_hook is not None:
            replacement = self.fault_hook(self.disk_id, slot, payload)
            if replacement is not None:
                stored = replacement
        stats = self.stats       # record_write(disk_id), inlined
        stats.writes += 1
        per_disk = stats.per_disk_writes
        per_disk[self.disk_id] = per_disk.get(self.disk_id, 0) + 1
        if self.on_access is not None:
            self.on_access(self.disk_id, slot, "write")
        self._pages[slot] = bytes(stored)
        self._written.add(slot)
        if stored is not payload and stored != payload:
            # a mangled replacement landed: record the intended crc so
            # the mismatch surfaces as a LatentSectorError on read
            self._suspect[slot] = zlib.crc32(payload)
        elif self._suspect:
            self._suspect.pop(slot, None)   # clean overwrite heals

    def read_header(self, slot: int) -> ParityHeader:
        """Read the out-of-band parity header stored with ``slot``.

        Header reads ride along with the page transfer in a real system
        (the header occupies the first bytes of the sector), so they are
        *not* counted as extra transfers; call sites that read only the
        header still pay for the page via :meth:`read`.
        """
        self._check(slot, "read header")
        return self._headers.get(slot, ParityHeader())

    def write_header(self, slot: int, header: ParityHeader) -> None:
        """Write the out-of-band parity header for ``slot`` (no transfer
        counted: it travels with the page write)."""
        self._check(slot, "write header")
        self._headers[slot] = header

    def read_with_header(self, slot: int) -> tuple:
        """Read payload and header in one page transfer."""
        payload = self.read(slot)
        return payload, self._headers.get(slot, ParityHeader())

    def write_with_header(self, slot: int, payload: bytes, header: ParityHeader) -> None:
        """Write payload and header in one page transfer."""
        self.write(slot, payload)
        self._headers[slot] = header

    # -- introspection (no transfer cost; test/debug only) -------------------

    def peek(self, slot: int) -> bytes:
        """Read payload without failure checks or accounting (tests only)."""
        return self._pages.get(slot, ZERO_PAGE)

    def peek_header(self, slot: int) -> ParityHeader:
        """Read header without failure checks or accounting (tests only)."""
        return self._headers.get(slot, ParityHeader())

    def written_slots(self) -> list:
        """Sorted list of slots that have ever been written."""
        return sorted(self._pages)

    def bad_sectors(self) -> list:
        """Sorted slots whose stored bytes no longer match their checksum
        (latent sector errors awaiting repair).  No transfer cost: this
        models the media scan a restart performs against sector CRCs."""
        return sorted(slot for slot, expected in self._suspect.items()
                      if zlib.crc32(self._pages.get(slot, ZERO_PAGE))
                      != expected)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "FAILED" if self.failed else "ok"
        return f"SimulatedDisk(id={self.disk_id}, capacity={self.capacity}, {state})"
