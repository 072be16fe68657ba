"""Latent sector errors: checksum detection and parity repair."""

import pytest

from repro.errors import LatentSectorError
from repro.storage import (make_page, make_raid5, make_twin_raid5)
from repro.storage.disk import SimulatedDisk


class TestDiskChecksums:
    def test_clean_read_passes(self):
        disk = SimulatedDisk(0, 8)
        disk.write(0, make_page(b"data"))
        assert disk.read(0) == make_page(b"data")

    def test_corruption_detected(self):
        disk = SimulatedDisk(0, 8)
        disk.write(3, make_page(b"data"))
        disk.corrupt(3)
        with pytest.raises(LatentSectorError) as info:
            disk.read(3)
        assert info.value.disk_id == 0
        assert info.value.slot == 3

    def test_unwritten_slot_never_flags(self):
        disk = SimulatedDisk(0, 8)
        disk.corrupt(5)          # corrupting a never-written slot...
        # ...has no stored checksum to contradict; read returns bytes
        payload = disk.read(5)
        assert len(payload) == 512

    def test_rewrite_heals(self):
        disk = SimulatedDisk(0, 8)
        disk.write(0, make_page(b"v1"))
        disk.corrupt(0)
        disk.write(0, make_page(b"v2"))
        assert disk.read(0) == make_page(b"v2")

    def test_replace_clears_checksums(self):
        disk = SimulatedDisk(0, 8)
        disk.write(0, make_page(b"v"))
        disk.corrupt(0)
        disk.fail()
        disk.replace()
        assert disk.read(0) == bytes(512)


class TestArrayRepair:
    @pytest.fixture(params=["single", "twin"])
    def array(self, request):
        maker = make_raid5 if request.param == "single" else make_twin_raid5
        array = maker(4, 8)
        if request.param == "single":
            for p in range(array.num_data_pages):
                array.write_page(p, make_page(bytes([p % 250 + 1])))
        else:
            for g in range(array.geometry.num_groups):
                array.full_stripe_write(
                    g, [make_page(bytes([(g * 4 + i) % 250 + 1]))
                        for i in range(4)])
        return array

    def _corrupt(self, array, page):
        addr = array.geometry.data_address(page)
        array.disks[addr.disk].corrupt(addr.slot)

    def test_corrupt_page_read_raises(self, array):
        self._corrupt(array, 5)
        with pytest.raises(LatentSectorError):
            array.read_page(5)

    def test_repair_page_restores(self, array):
        expected = array.peek_page(5)
        self._corrupt(array, 5)
        assert array.repair_page(5) == expected
        assert array.read_page(5) == expected
        assert array.scrub() == []

    def test_scrub_repair_sweep(self, array):
        expected = {p: array.peek_page(p) for p in (2, 9)}
        for page in expected:
            self._corrupt(array, page)
        repaired = array.scrub_repair()
        assert repaired == [2, 9]
        for page, payload in expected.items():
            assert array.read_page(page) == payload
        assert array.scrub_repair() == []      # second sweep is clean

    def test_repair_cost_is_reconstruction(self, array):
        self._corrupt(array, 5)
        with array.stats.window() as w:
            array.repair_page(5)
        # N-1 group mates + the parity (twin arrays read both twins to
        # pick the current one)
        expected_reads = array.geometry.group_size - 1 + \
            (2 if array.geometry.twin else 1)
        assert w.reads == expected_reads
        assert w.writes == 1
