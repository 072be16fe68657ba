"""The TWIST twin-page store.

Every logical page owns two physical slots on the simulated disks (on
different disks, so a single media failure loses at most one twin).
Writes by a transaction go to the twin *not* holding the current
version, stamped with ``(timestamp, txn_id)``; the current-twin choice
lives in a main-memory bit map, exactly like the parity twins of RDA:

* **commit** — flip the bits for the transaction's pages (no I/O);
* **abort** — leave the bits alone (no I/O at all: the old twin never
  moved); re-stamp the written twins INVALID lazily on next write;
* **crash** — scan the twin headers against the log's commit set to
  rebuild the bit map (like ``Current_Parity``, Figure 7 of the paper).

A page may carry uncommitted data from at most one transaction at a
time (the second twin is the committed fallback); the store enforces
this, mirroring the dirty-group rule of RDA.

Costs: read = 1 transfer, write = 1 transfer (*no* read-modify-write:
there is no parity), undo = 0 transfers.  Storage = 2x.
"""

from __future__ import annotations

from ..errors import ParityGroupError, RecoveryError
from ..storage.disk import SimulatedDisk
from ..storage.iostats import IOStats
from ..storage.page import PAGE_SIZE, ParityHeader, TwinState, ZERO_PAGE


class TwistStore:
    """Twin-page data storage over a pair-per-page disk layout.

    Args:
        num_pages: logical pages.
        num_disks: disks to spread the twins over (>= 2 so a page's
            twins never share a disk).
        stats: shared transfer counters.
    """

    def __init__(self, num_pages: int, num_disks: int = 4,
                 stats: IOStats | None = None) -> None:
        if num_pages < 1:
            raise ValueError("need at least one page")
        if num_disks < 2:
            raise ValueError("twins need at least two disks")
        self.num_pages = num_pages
        self.stats = stats if stats is not None else IOStats()
        slots_per_disk = -(-2 * num_pages // num_disks)
        self.disks = [SimulatedDisk(d, slots_per_disk, self.stats)
                      for d in range(num_disks)]
        self._clock = 0
        self._current = [0] * num_pages          # the main-memory bit map
        self._owner: dict = {}                   # page -> uncommitted txn
        self._pages_of: dict = {}                # txn -> set of pages

    # -- addressing -----------------------------------------------------------------

    def _address(self, page: int, twin: int):
        index = 2 * page + twin
        disk = index % len(self.disks)
        slot = index // len(self.disks)
        return disk, slot

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.num_pages:
            raise ValueError(f"page {page} out of range")

    def _stamp(self) -> int:
        self._clock += 1
        return self._clock

    # -- I/O ----------------------------------------------------------------------------

    def load(self, payloads: dict) -> None:
        """Bulk-load committed initial contents (outside any txn)."""
        for page, payload in payloads.items():
            self._check_page(page)
            if len(payload) != PAGE_SIZE:
                raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
            twin = self._current[page]
            disk, slot = self._address(page, twin)
            header = ParityHeader(timestamp=self._stamp(),
                                  state=TwinState.COMMITTED)
            self.disks[disk].write(slot, payload, header)

    def read(self, page: int) -> bytes:
        """Current contents of a logical page (1 transfer)."""
        self._check_page(page)
        twin = self._current[page]
        if page in self._owner:
            twin = 1 - twin                      # uncommitted version is live
        disk, slot = self._address(page, twin)
        return self.disks[disk].read(slot)

    def read_committed(self, page: int) -> bytes:
        """Last committed contents, even mid-transaction (1 transfer)."""
        self._check_page(page)
        disk, slot = self._address(page, self._current[page])
        return self.disks[disk].read(slot)

    def write(self, page: int, payload: bytes, txn_id: int) -> None:
        """Write an uncommitted version into the free twin (1 transfer).

        Raises:
            ParityGroupError: another transaction's uncommitted version
                already occupies the free twin.
        """
        self._check_page(page)
        if len(payload) != PAGE_SIZE:
            raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
        owner = self._owner.get(page)
        if owner is not None and owner != txn_id:
            raise ParityGroupError(
                f"page {page} already holds uncommitted data of txn {owner}")
        twin = 1 - self._current[page]
        disk, slot = self._address(page, twin)
        header = ParityHeader(timestamp=self._stamp(), txn_id=txn_id,
                              dirty_page_index=page, state=TwinState.WORKING)
        self.disks[disk].write(slot, payload, header)
        self._owner[page] = txn_id
        self._pages_of.setdefault(txn_id, set()).add(page)

    # -- EOT ---------------------------------------------------------------------------------

    def commit(self, txn_id: int) -> list:
        """Flip the bit map for the transaction's pages; zero I/O.
        Returns the pages committed."""
        pages = sorted(self._pages_of.pop(txn_id, ()))
        for page in pages:
            self._current[page] = 1 - self._current[page]
            del self._owner[page]
        return pages

    def abort(self, txn_id: int) -> list:
        """Abandon the transaction's twins; zero I/O (TWIST's headline).
        Returns the pages rolled back."""
        pages = sorted(self._pages_of.pop(txn_id, ()))
        for page in pages:
            del self._owner[page]
        return pages

    # -- crash ------------------------------------------------------------------------------------

    def crash(self) -> None:
        """Lose the main-memory bit map and ownership tables."""
        self._owner.clear()
        self._pages_of.clear()
        self._current = [0] * self.num_pages

    def recover(self, committed_txns: set) -> dict:
        """Rebuild the bit map by scanning both twins of every page
        (2 transfers per page), trusting WORKING twins only when their
        transaction is in ``committed_txns`` — the TWIST analogue of the
        paper's ``Current_Parity``.

        Returns ``{"losers": sorted set of uncommitted txn ids seen}``.
        """
        losers = set()
        for page in range(self.num_pages):
            headers = []
            for twin in range(2):
                disk, slot = self._address(page, twin)
                self.disks[disk].read(slot)      # pay for the scan
                headers.append(self.disks[disk].read_header(slot))
            best, best_stamp = 0, -1
            for twin, header in enumerate(headers):
                trusted = (header.state is TwinState.COMMITTED
                           or (header.state is TwinState.WORKING
                               and header.txn_id in committed_txns))
                if trusted and header.timestamp > best_stamp:
                    best, best_stamp = twin, header.timestamp
                if (header.state is TwinState.WORKING
                        and header.txn_id not in committed_txns
                        and header.txn_id >= 0):
                    losers.add(header.txn_id)
            if best_stamp < 0:
                best = 0                         # never-written page
            self._current[page] = best
            self._clock = max(self._clock,
                              max(h.timestamp for h in headers))
        return {"losers": sorted(losers)}

    # -- introspection --------------------------------------------------------------------------------

    def storage_overhead(self) -> float:
        """Fraction of raw capacity spent on redundancy: always 1/2."""
        return 0.5

    def uncommitted_pages(self) -> list:
        """Pages currently holding an uncommitted version."""
        return sorted(self._owner)
