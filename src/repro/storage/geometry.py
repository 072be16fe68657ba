"""Array geometries: how logical pages map onto disks.

The paper considers two organizations (Section 3):

* **Data striping** (RAID-5 with rotated parity, Figure 1): consecutive
  logical pages are interleaved round-robin across the disks; the parity
  of each stripe rotates over the disks to avoid a parity hot spot.
* **Parity striping** (Gray et al., Figure 2): data is laid out
  *sequentially* on each disk (preserving large sequential runs on a
  single arm); only the parity areas rotate.

Each comes in a single-parity form (one parity page per group, ``N+1``
disks) and a **twin-parity** form used by RDA recovery (two parity pages
per group on two distinct disks, ``N+2`` disks — Figures 4 and 5).

A :class:`Geometry` answers, for every logical data page: which disk and
slot it lives on, which *parity group* it belongs to, who its group
mates are, and where the group's parity page(s) live.  Groups are
"stripe rows": group ``g`` owns slot ``g`` on every disk; its parity
lives on disk ``g mod D`` (and ``(g+1) mod D`` for the twin), its data
on the remaining ``N`` disks.

Mappings are precomputed at construction: the arrays are small (the
paper's largest configuration is S = 5000 pages) and an explicit table
is immune to off-by-one rotation bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from ..errors import AddressError


class Placement(Enum):
    """Logical-page numbering discipline."""

    STRIPED = "striped"        # RAID-5 style round-robin interleave
    SEQUENTIAL = "sequential"  # parity-striping style, runs stay on one disk


@dataclass(frozen=True)
class PhysAddr:
    """A physical page location: ``(disk, slot)``."""

    disk: int
    slot: int


class PageLocation(NamedTuple):
    """Everything the small-write path needs to know about one logical
    page, from one lookup (:meth:`Geometry.locate`).

    Attributes:
        group: the page's parity group (its slot on every disk).
        index: the page's member index (0..N-1) within the group.
        data: the page's :class:`PhysAddr`.
        parity: the group's parity address(es), as
            :meth:`Geometry.parity_addresses` gives them.
    """

    group: int
    index: int
    data: PhysAddr
    parity: tuple


class Geometry:
    """Mapping between logical data pages and physical locations.

    Args:
        group_size: N, the number of data pages per parity group.
        num_groups: G, the number of parity groups (= disk capacity in slots).
        twin: if True, two parity pages per group on distinct disks.
        placement: :class:`Placement` numbering discipline.

    The array has ``N + 1`` disks (``N + 2`` with twins) and stores
    ``S = N * G`` logical data pages numbered ``0 .. S-1``.
    """

    def __init__(self, group_size: int, num_groups: int, twin: bool = False,
                 placement: Placement = Placement.STRIPED) -> None:
        if group_size < 2:
            raise ValueError("group_size (N) must be at least 2")
        if num_groups < 1:
            raise ValueError("num_groups (G) must be at least 1")
        self.group_size = group_size
        self.num_groups = num_groups
        self.twin = twin
        self.placement = Placement(placement)
        self.num_disks = group_size + (2 if twin else 1)
        self.capacity_per_disk = num_groups
        self.num_data_pages = group_size * num_groups

        self._parity_addrs: list = []
        self._group_data_disks: list = []
        for g in range(num_groups):
            parity_disks = self._parity_disks_for(g)
            self._parity_addrs.append(tuple(PhysAddr(d, g) for d in parity_disks))
            data_disks = [d for d in range(self.num_disks) if d not in parity_disks]
            self._group_data_disks.append(data_disks)

        # logical page <-> physical address tables.  ``locations[page]``
        # is what locate(page) returns, unchecked: a caller may index it
        # for a page that entered the engine through a checked lookup
        # (a buffered frame's), where a hot loop would pay a frame a
        # page for locate's range check
        self.locations: list = [None] * self.num_data_pages
        self._addr_to_page: dict = {}
        self._group_pages: list = [[None] * group_size for _ in range(num_groups)]
        if self.placement is Placement.STRIPED:
            self._number_striped()
        else:
            self._number_sequential()

    # -- construction helpers ------------------------------------------------

    def _parity_disks_for(self, group: int) -> tuple:
        if self.twin:
            return (group % self.num_disks, (group + 1) % self.num_disks)
        return (group % self.num_disks,)

    def _place(self, page: int, group: int, member: int, disk: int) -> None:
        self.locations[page] = PageLocation(
            group, member, PhysAddr(disk, group), self._parity_addrs[group])
        self._addr_to_page[(disk, group)] = page
        self._group_pages[group][member] = page

    def _number_striped(self) -> None:
        """Round-robin: group g holds logical pages g*N .. g*N+N-1."""
        for g in range(self.num_groups):
            for j, disk in enumerate(self._group_data_disks[g]):
                self._place(g * self.group_size + j, g, j, disk)

    def _number_sequential(self) -> None:
        """Disk-major: consecutive logical pages fill one disk's data
        slots (in group order) before moving to the next disk."""
        page = 0
        for disk in range(self.num_disks):
            for g in range(self.num_groups):
                data_disks = self._group_data_disks[g]
                if disk in data_disks:
                    member = data_disks.index(disk)
                    self._place(page, g, member, disk)
                    page += 1
        assert page == self.num_data_pages

    # -- queries ---------------------------------------------------------------

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.num_data_pages:
            raise AddressError(
                f"logical page {page} out of range 0..{self.num_data_pages - 1}"
            )

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.num_groups:
            raise AddressError(f"group {group} out of range 0..{self.num_groups - 1}")

    def locate(self, page: int) -> PageLocation:
        """Group, member index, data address and parity addresses of
        logical data page ``page``, precomputed: the one lookup a small
        write makes."""
        if 0 <= page < self.num_data_pages:
            return self.locations[page]
        self._check_page(page)
        raise AssertionError("unreachable")

    def data_address(self, page: int) -> PhysAddr:
        """Physical location of logical data page ``page``."""
        if 0 <= page < self.num_data_pages:
            return self.locations[page].data
        self._check_page(page)
        raise AssertionError("unreachable")

    def page_at(self, addr: PhysAddr) -> int | None:
        """Logical page stored at ``addr``, or None for a parity slot."""
        return self._addr_to_page.get((addr.disk, addr.slot))

    def group_of(self, page: int) -> int:
        """Parity group containing logical page ``page``."""
        if 0 <= page < self.num_data_pages:
            return self.locations[page].group
        self._check_page(page)
        raise AssertionError("unreachable")

    def index_in_group(self, page: int) -> int:
        """Member index (0..N-1) of ``page`` within its parity group."""
        if 0 <= page < self.num_data_pages:
            return self.locations[page].index
        self._check_page(page)
        raise AssertionError("unreachable")

    def group_pages(self, group: int) -> list:
        """Logical pages of ``group`` in member order."""
        self._check_group(group)
        return list(self._group_pages[group])

    def parity_addresses(self, group: int) -> tuple:
        """Physical locations of the group's parity page(s).

        A 1-tuple for single-parity geometries, a 2-tuple (the twins, on
        distinct disks) for twin geometries.
        """
        self._check_group(group)
        return self._parity_addrs[group]

    def data_disks(self, group: int) -> list:
        """Disks carrying the data pages of ``group`` (member order)."""
        self._check_group(group)
        return list(self._group_data_disks[group])

    def groups_with_parity_on(self, disk: int) -> list:
        """Groups whose parity page (either twin) lives on ``disk``."""
        return [g for g in range(self.num_groups)
                if any(a.disk == disk for a in self._parity_addrs[g])]

    def pages_on_disk(self, disk: int) -> list:
        """``(slot, logical_page)`` pairs of data pages stored on ``disk``."""
        out = []
        for g in range(self.num_groups):
            page = self._addr_to_page.get((disk, g))
            if page is not None:
                out.append((g, page))
        return out

    def storage_overhead(self) -> float:
        """Fraction of raw capacity spent on parity.

        The paper notes the extra storage for twin-parity RDA is about
        ``(100/N)%`` *beyond* a single-parity array; equivalently twin
        arrays spend ``2/(N+2)`` of raw capacity on parity.
        """
        parity_slots = (2 if self.twin else 1) * self.num_groups
        total_slots = self.num_disks * self.capacity_per_disk
        return parity_slots / total_slots

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "twin" if self.twin else "single"
        return (f"Geometry(N={self.group_size}, G={self.num_groups}, "
                f"{kind} parity, {self.placement.value}, disks={self.num_disks})")


def raid5_geometry(group_size: int, num_groups: int, twin: bool = False) -> Geometry:
    """RAID-5 with rotated parity (paper Figure 1; Figure 4 when ``twin``)."""
    return Geometry(group_size, num_groups, twin=twin, placement=Placement.STRIPED)


def parity_striping_geometry(group_size: int, num_groups: int,
                             twin: bool = False) -> Geometry:
    """Gray-style parity striping (paper Figure 2; Figure 5 when ``twin``)."""
    return Geometry(group_size, num_groups, twin=twin, placement=Placement.SEQUENTIAL)
