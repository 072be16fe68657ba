"""Unit tests for the simulated disk."""

import pytest

from repro.errors import AddressError, DiskFailedError
from repro.storage.disk import SimulatedDisk
from repro.storage.iostats import IOStats
from repro.storage.page import ZERO_PAGE, ParityHeader, TwinState, make_page


@pytest.fixture
def disk():
    return SimulatedDisk(disk_id=3, capacity=16)


class TestBasicIO:
    def test_unwritten_slot_reads_zero(self, disk):
        assert disk.read(0) == ZERO_PAGE

    def test_write_read_roundtrip(self, disk):
        page = make_page(b"payload")
        disk.write(5, page)
        assert disk.read(5) == page

    def test_overwrite(self, disk):
        disk.write(5, make_page(1))
        disk.write(5, make_page(2))
        assert disk.read(5) == make_page(2)

    def test_wrong_payload_size_rejected(self, disk):
        with pytest.raises(ValueError):
            disk.write(0, b"short")

    def test_out_of_range_slot(self, disk):
        with pytest.raises(AddressError):
            disk.read(16)
        with pytest.raises(AddressError):
            disk.write(-1, make_page())

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            SimulatedDisk(0, 0)

    def test_written_slots_sorted(self, disk):
        disk.write(9, make_page(1))
        disk.write(2, make_page(2))
        assert disk.written_slots() == [2, 9]


class TestHeaders:
    def test_default_header(self, disk):
        assert disk.read_header(0) == ParityHeader()

    def test_header_roundtrip(self, disk):
        header = ParityHeader(timestamp=4, state=TwinState.COMMITTED)
        disk.write_header(7, header)
        assert disk.read_header(7) == header

    def test_write_with_a_header_is_one_transfer(self, disk):
        before = disk.stats.total
        disk.write(0, make_page(1), ParityHeader(timestamp=1))
        assert disk.stats.total - before == 1
        assert disk.peek_header(0) == ParityHeader(timestamp=1)
        # a write without one leaves the slot's header as it was
        disk.write(0, make_page(2))
        assert disk.peek_header(0) == ParityHeader(timestamp=1)

    def test_a_faulted_write_lands_neither_payload_nor_header(self, disk):
        def refuse(disk_id, slot, payload):
            raise OSError("power cut")
        disk.fault_hook = refuse
        with pytest.raises(OSError):
            disk.write(0, make_page(1), ParityHeader(timestamp=1))
        assert disk.peek(0) == ZERO_PAGE
        assert disk.peek_header(0) == ParityHeader()
        assert disk.stats.total == 0

    def test_read_with_header_single_transfer(self, disk):
        disk.write(0, make_page(1), ParityHeader(timestamp=1))
        before = disk.stats.total
        payload, header = disk.read_with_header(0)
        assert disk.stats.total - before == 1
        assert payload == make_page(1)
        assert header.timestamp == 1


class TestFailureInjection:
    def test_fail_blocks_all_io(self, disk):
        disk.write(0, make_page(1))
        disk.fail()
        assert disk.failed
        with pytest.raises(DiskFailedError):
            disk.read(0)
        with pytest.raises(DiskFailedError):
            disk.write(0, make_page(2))
        with pytest.raises(DiskFailedError):
            disk.read_header(0)
        with pytest.raises(DiskFailedError):
            disk.write_header(0, ParityHeader())

    def test_replace_blanks_contents(self, disk):
        disk.write(0, make_page(1))
        disk.write_header(0, ParityHeader(timestamp=3))
        disk.fail()
        disk.replace()
        assert not disk.failed
        assert disk.read(0) == ZERO_PAGE
        assert disk.read_header(0) == ParityHeader()

    def test_revive_keeps_contents(self, disk):
        disk.write(0, make_page(1))
        disk.fail()
        disk.revive()
        assert disk.read(0) == make_page(1)

    def test_error_carries_disk_id(self, disk):
        disk.fail()
        with pytest.raises(DiskFailedError) as info:
            disk.read(0)
        assert info.value.disk_id == 3

    def test_peek_ignores_failure(self, disk):
        disk.write(0, make_page(1))
        disk.fail()
        assert disk.peek(0) == make_page(1)


class TestAccounting:
    def test_shared_stats(self):
        stats = IOStats()
        d0 = SimulatedDisk(0, 4, stats)
        d1 = SimulatedDisk(1, 4, stats)
        d0.write(0, make_page(1))
        d1.read(0)
        d1.read(1)
        assert stats.writes == 1
        assert stats.reads == 2
        assert stats.per_disk_writes == {0: 1}
        assert stats.per_disk_reads == {1: 2}

    def test_local_counters(self, disk):
        disk.write(0, make_page(1))
        disk.read(0)
        disk.read(0)
        assert disk.stats.per_disk_writes == {disk.disk_id: 1}
        assert disk.stats.per_disk_reads == {disk.disk_id: 2}
