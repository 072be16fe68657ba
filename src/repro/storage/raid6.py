"""RAID-6: double parity, surviving any two simultaneous failures.

An extension beyond the paper (which stops at single parity ± a twin):
each group of N data pages carries a P page (XOR) and a Q page
(Reed-Solomon over GF(2^8)), rotated like RAID-5.  Small writes update
data, P and Q (six transfers; five with the old data buffered); any two
lost devices in a group are recoverable.

This tier slots into the reliability story of `repro.model.reliability`:
it trades two pages per group for an MTTDL another factor of
~MTTF/MTTR above RAID-5.  RDA-style twin parity is orthogonal — this
module is redundancy only, a substrate for the comparison benches.
"""

from __future__ import annotations

from ..errors import UnrecoverableDataError
from . import kernels as _kernels
from .array import DiskArray
from .geometry import Geometry, Placement
from .gf256 import (GEN_POWERS, gf_div, page_mul, page_xor, q_parity,
                    solve_two_erasures)
from .iostats import IOStats
from .page import PAGE_SIZE, xor_pages


def _gen_coeff(index: int) -> int:
    """``g^index`` (g = 2) from the precomputed power table — the
    Reed-Solomon weight of group member ``index``, cached instead of
    recomputed on every small write, degraded read, and recovery call."""
    return GEN_POWERS[index % 255]


def raid6_geometry(group_size: int, num_groups: int) -> Geometry:
    """Geometry with two parity slots per group (reusing the twin
    layout: slot 0 = P, slot 1 = Q, on distinct disks)."""
    return Geometry(group_size, num_groups, twin=True,
                    placement=Placement.STRIPED)


class Raid6Array(DiskArray):
    """Double-parity array: P = XOR, Q = Σ g^i·D_i."""

    def __init__(self, geometry: Geometry, stats: IOStats | None = None,
                 tracer=None, metrics=None) -> None:
        if not geometry.twin:
            raise ValueError("RAID-6 needs the two-parity-slot geometry")
        super().__init__(geometry, stats, tracer=tracer, metrics=metrics)

    # -- parity addresses: slot 0 = P, slot 1 = Q ------------------------------------

    def _p_addr(self, group: int):
        return self.geometry.parity_addresses(group)[0]

    def _q_addr(self, group: int):
        return self.geometry.parity_addresses(group)[1]

    # -- writes ------------------------------------------------------------------------

    def write_page(self, page: int, new_data: bytes,
                   old_data: bytes | None = None) -> None:
        """Small write: update data, P, and Q (6 transfers; 5 with the
        old data supplied)."""
        if len(new_data) != PAGE_SIZE:
            raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
        stats = self.stats
        reads, writes = stats.reads, stats.writes
        self._write_page_inner(page, new_data, old_data)
        reads, writes = stats.reads - reads, stats.writes - writes
        if self._xfer_hist is not None:
            self._xfer_hist.observe(reads + writes)
        if self.tracer.enabled:
            self.tracer.emit("array.small_write", page=page, mode="pq",
                             buffered=old_data is not None, reads=reads,
                             writes=writes, transfers=reads + writes)

    def _write_page_inner(self, page: int, new_data: bytes,
                          old_data: bytes | None) -> None:
        addr = self.geometry.data_address(page)
        group = self.geometry.group_of(page)
        index = self.geometry.index_in_group(page)
        old = self.disks[addr.disk].read(addr.slot) if old_data is None \
            else old_data
        delta = page_xor(old, new_data)
        p_addr, q_addr = self._p_addr(group), self._q_addr(group)
        old_p = self._read_at(p_addr)
        old_q = self._read_at(q_addr)
        self._write_at(addr, new_data)
        self._write_at(p_addr, page_xor(old_p, delta))
        self._write_at(q_addr,
                       page_xor(old_q, page_mul(_gen_coeff(index), delta)))

    def full_stripe_write(self, group: int, payloads: list) -> None:
        """Write a whole group plus fresh P and Q (N + 2 transfers)."""
        pages = self.geometry.group_pages(group)
        if len(payloads) != len(pages):
            raise ValueError(
                f"group {group} has {len(pages)} data pages, "
                f"got {len(payloads)}")
        for page, payload in zip(pages, payloads):
            self._write_at(self.geometry.data_address(page), payload)
        self._write_at(self._p_addr(group), xor_pages(*payloads))
        self._write_at(self._q_addr(group), q_parity(list(payloads)))

    # -- reconstruction ------------------------------------------------------------------

    def _group_parity_for_reconstruction(self, group: int) -> bytes:
        addr = self._p_addr(group)
        if self.disks[addr.disk].failed:
            raise UnrecoverableDataError(
                f"group {group}: P parity unavailable for single-erasure "
                "reconstruction")
        return self._read_at(addr)

    def read_page(self, page: int) -> bytes:
        """Read with up-to-two-erasure reconstruction."""
        addr = self.geometry.data_address(page)
        if not self.disks[addr.disk].failed:
            return self._read_at(addr)
        group = self.geometry.group_of(page)
        failed = self._failed_members(group)
        if len(failed) == 1:
            try:
                return self._reconstruct_data_page(page)
            except UnrecoverableDataError:
                pass   # P also failed: fall through to the Q path
        return self._reconstruct_two(page, group, failed)

    def _failed_members(self, group: int) -> list:
        """Indices of failed data members of ``group``."""
        out = []
        for index, member in enumerate(self.geometry.group_pages(group)):
            member_addr = self.geometry.data_address(member)
            if self.disks[member_addr.disk].failed:
                out.append(index)
        return out

    def _reconstruct_two(self, page: int, group: int, failed: list) -> bytes:
        """Recover ``page`` when up to two of {data pages, P, Q} in its
        group are lost."""
        if len(failed) > 2:
            raise UnrecoverableDataError(
                f"group {group}: {len(failed)} data members lost; RAID-6 "
                "tolerates two failures")
        pages = self.geometry.group_pages(group)
        target_index = self.geometry.index_in_group(page)
        p_ok = not self.disks[self._p_addr(group).disk].failed
        q_ok = not self.disks[self._q_addr(group).disk].failed

        survivors = {}
        for index, member in enumerate(pages):
            if index in failed:
                continue
            survivors[index] = self._read_at(self.geometry.data_address(member))

        kernel = _kernels.get_kernel()
        if len(failed) == 1:
            index = failed[0]
            if p_ok:
                # one batched reduction over P and every survivor
                return kernel.xor_accumulate(
                    [self._read_at(self._p_addr(group)),
                     *survivors.values()], PAGE_SIZE)
            if not q_ok:
                raise UnrecoverableDataError(
                    f"group {group}: data, P and Q all unavailable")
            acc = kernel.gf_scale_accumulate(
                [(1, self._read_at(self._q_addr(group)))]
                + [(_gen_coeff(other_index), payload)
                   for other_index, payload in survivors.items()], PAGE_SIZE)
            return page_mul(gf_div(1, _gen_coeff(index)), acc)

        # two data members lost: need both P and Q
        if not (p_ok and q_ok):
            raise UnrecoverableDataError(
                f"group {group}: two data members plus a parity device lost")
        p_star = kernel.xor_accumulate(
            [self._read_at(self._p_addr(group)), *survivors.values()],
            PAGE_SIZE)
        q_star = kernel.gf_scale_accumulate(
            [(1, self._read_at(self._q_addr(group)))]
            + [(_gen_coeff(index), payload)
               for index, payload in survivors.items()], PAGE_SIZE)
        d_a, d_b = solve_two_erasures(failed[0], failed[1], p_star, q_star)
        return d_a if target_index == failed[0] else d_b

    # -- rebuild --------------------------------------------------------------------------

    def rebuild_disk(self, disk_id: int) -> int:
        """Replace and rebuild one disk (another may still be failed).

        Every payload — data *and* parity — is computed while the
        replacement is still marked failed: a blank-but-healthy disk
        would otherwise serve zeros (as data, or worse, as trusted
        parity) to its own reconstruction reads.
        """
        self._check_disk(disk_id)
        with self.tracer.span("array.rebuild", stats=self.stats,
                              disk=disk_id) as span:
            disk = self.disks[disk_id]
            disk.replace()
            disk.fail()
            payloads = {slot: self.read_page(page)
                        for slot, page in self.geometry.pages_on_disk(disk_id)}
            parity_payloads = {}
            for group in self.geometry.groups_with_parity_on(disk_id):
                data = [self.read_page(p)
                        for p in self.geometry.group_pages(group)]
                p_addr, q_addr = self._p_addr(group), self._q_addr(group)
                if p_addr.disk == disk_id:
                    parity_payloads[p_addr.slot] = xor_pages(*data)
                if q_addr.disk == disk_id:
                    parity_payloads[q_addr.slot] = q_parity(data)
            disk.revive()
            rebuilt = 0
            for slot, payload in {**payloads, **parity_payloads}.items():
                disk.write(slot, payload)
                rebuilt += 1
            span.set(slots=rebuilt)
        if self.metrics is not None:
            self.metrics.counter("array.rebuilds").inc()
        return rebuilt

    def rewrite_parity(self, group: int, data: list,
                       disk_id: int | None = None) -> None:
        """Rewrite P (XOR) and/or Q (Reed-Solomon) of ``group`` from its
        data payloads, optionally restricted to the parity on ``disk_id``."""
        p_addr, q_addr = self._p_addr(group), self._q_addr(group)
        if disk_id is None or p_addr.disk == disk_id:
            self.disks[p_addr.disk].write(p_addr.slot, xor_pages(*data))
        if disk_id is None or q_addr.disk == disk_id:
            self.disks[q_addr.disk].write(q_addr.slot, q_parity(list(data)))

    # -- verification ----------------------------------------------------------------------

    def _group_consistent(self, group: int) -> bool:
        data = self.group_data_payloads(group)
        p_addr, q_addr = self._p_addr(group), self._q_addr(group)
        p = self.disks[p_addr.disk].peek(p_addr.slot)
        q = self.disks[q_addr.disk].peek(q_addr.slot)
        return p == xor_pages(*data) and q == q_parity(data)


def make_raid6(group_size: int, num_groups: int,
               stats: IOStats | None = None, tracer=None,
               metrics=None) -> Raid6Array:
    """A RAID-6 array of N data pages + P + Q per group."""
    return Raid6Array(raid6_geometry(group_size, num_groups), stats=stats,
                      tracer=tracer, metrics=metrics)
