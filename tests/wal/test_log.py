"""Tests for the duplexed log manager."""

import pytest

from repro.errors import LogCorruptionError, UnrecoverableDataError
from repro.storage.iostats import IOStats
from repro.wal import (BOTRecord, CommitRecord, LogManager, NULL_LSN,
                       PageBeforeImage)


@pytest.fixture
def log():
    return LogManager(name="test", page_size=128, transfers_per_log_page=1)


class TestAppend:
    def test_lsns_increase(self, log):
        first = log.append(BOTRecord(txn_id=1))
        second = log.append(CommitRecord(txn_id=1))
        assert second == first + 1
        assert log.last_lsn == second

    def test_get_by_lsn(self, log):
        lsn = log.append(BOTRecord(txn_id=1))
        assert log.get(lsn).txn_id == 1

    def test_get_bad_lsn(self, log):
        with pytest.raises(LogCorruptionError):
            log.get(99)

    def test_chain_links_same_transaction(self, log):
        a = log.append(BOTRecord(txn_id=1))
        log.append(BOTRecord(txn_id=2))
        c = log.append(PageBeforeImage(txn_id=1, page_id=5, image=b"x"))
        assert log.get(c).prev_lsn == a
        assert log.get(a).prev_lsn == NULL_LSN

    def test_records_of_follows_chain_newest_first(self, log):
        log.append(BOTRecord(txn_id=1))
        log.append(BOTRecord(txn_id=2))
        log.append(PageBeforeImage(txn_id=1, page_id=5, image=b"x"))
        log.append(CommitRecord(txn_id=1))
        chain = log.records_of(1)
        assert [type(r).__name__ for r in chain] == [
            "CommitRecord", "PageBeforeImage", "BOTRecord"]

    def test_scan_filter(self, log):
        log.append(BOTRecord(txn_id=1))
        log.append(PageBeforeImage(txn_id=1, page_id=5, image=b"x"))
        records = log.records()
        assert sum(isinstance(r, PageBeforeImage) for r in records) == 1
        assert len(records) == 2


class TestAccounting:
    def test_transfers_charged_per_filled_page_per_copy(self):
        stats = IOStats()
        log = LogManager(page_size=64, transfers_per_log_page=1, stats=stats)
        # append until more than one log page fills
        while log.size_bytes < 130:
            log.append(BOTRecord(txn_id=1))
        # two filled pages on each of two mirror copies
        assert stats.writes == 4

    def test_force_charges_partial_page(self):
        stats = IOStats()
        log = LogManager(page_size=1024, transfers_per_log_page=1, stats=stats)
        log.append(BOTRecord(txn_id=1))
        assert stats.writes == 0
        log.force()
        assert stats.writes == 2    # one partial page, both copies
        assert log.forced_lsn == log.last_lsn

    def test_force_idempotent(self):
        stats = IOStats()
        log = LogManager(page_size=1024, transfers_per_log_page=1, stats=stats)
        log.append(BOTRecord(txn_id=1))
        log.force()
        log.force()
        assert stats.writes == 2

    def test_single_copy_halves_cost(self):
        stats = IOStats()
        log = LogManager(page_size=1024, transfers_per_log_page=1, stats=stats,
                         duplex=False)
        log.append(BOTRecord(txn_id=1))
        log.force()
        assert stats.writes == 1

    def test_transfer_multiplier(self):
        """Logs on a RAID array pay the small-write protocol too."""
        stats = IOStats()
        log = LogManager(page_size=1024, transfers_per_log_page=4, stats=stats)
        log.append(BOTRecord(txn_id=1))
        log.force()
        assert stats.writes == 8


class TestDuplexIntegrity:
    def test_copies_identical(self, log):
        log.append(BOTRecord(txn_id=1))
        assert log.verify_duplex()

    def test_damage_detected(self, log):
        log.append(BOTRecord(txn_id=1))
        log.damage_copy(0, 0)
        assert not log.verify_duplex()

    def test_damage_beyond_end_rejected(self, log):
        with pytest.raises(ValueError):
            log.damage_copy(0, 10_000)


class TestCrashRestart:
    def test_after_crash_recovers_records(self, log):
        log.append(BOTRecord(txn_id=1))
        log.append(PageBeforeImage(txn_id=1, page_id=3, image=b"img"))
        log.append(CommitRecord(txn_id=1))
        count = log.after_crash()
        assert count == 3
        assert [r.txn_id for r in log.records()] == [1, 1, 1]
        chain = log.records_of(1)
        assert len(chain) == 3

    def test_after_crash_lsns_continue(self, log):
        log.append(BOTRecord(txn_id=1))
        log.after_crash()
        assert log.append(BOTRecord(txn_id=2)) == 2

    def test_after_crash_uses_healthy_copy(self, log):
        log.append(BOTRecord(txn_id=1))
        log.damage_copy(0, 0)
        assert log.after_crash() == 1

    def test_after_crash_all_copies_corrupt(self, log):
        """Every copy dying on a CRC error (not a clean torn tail) must
        refuse loudly: acknowledged records past the damage may be gone,
        so adopting the longest prefix would be silent data loss."""
        log.append(BOTRecord(txn_id=1))
        log.damage_copy(0, 0)
        log.damage_copy(1, 0)
        with pytest.raises(UnrecoverableDataError):
            log.after_crash()

    def test_torn_single_copy_healed_from_duplex_mate(self, log):
        """A torn write to ONE duplex copy is healed from the other: the
        survivor parses cleanly and restart adopts its full prefix."""
        log.append(BOTRecord(txn_id=1))
        log.append(CommitRecord(txn_id=1))
        log.force()
        # tear the tail of copy 0 mid-record (CRC now fails there)
        log.damage_copy(0, log.size_bytes - 2)
        assert log.after_crash() == 2
        assert [type(r).__name__ for r in log.records()] == [
            "BOTRecord", "CommitRecord"]

    def test_torn_both_copies_detected_not_silent(self, log):
        """Tearing the SAME forced record on both copies is detected as
        unrecoverable corruption, never silently truncated away."""
        log.append(BOTRecord(txn_id=1))
        log.append(CommitRecord(txn_id=1))
        log.force()
        log.damage_copy(0, log.size_bytes - 2)
        log.damage_copy(1, log.size_bytes - 2)
        with pytest.raises(UnrecoverableDataError):
            log.after_crash()

    def test_empty_log_restart(self, log):
        assert log.after_crash() == 0
        assert log.last_lsn == NULL_LSN

    def test_torn_record_does_not_poison_later_appends(self):
        """Regression: a crash can truncate mid-record; the surviving
        fragment must be rewound at restart, or records appended after
        recovery become unparseable at the NEXT crash."""
        log = LogManager(page_size=64, transfers_per_log_page=1)
        log.append(BOTRecord(txn_id=1))
        log.force()                     # one whole durable record
        # fill past the next page boundary so truncation tears a record
        while log.size_bytes <= 128:
            log.append(PageBeforeImage(txn_id=1, page_id=1, image=b"x" * 30))
        log.crash()                     # tears the record at the boundary
        survivors = log.after_crash()
        post = log.append(CommitRecord(txn_id=2))
        log.force()
        log.crash()
        assert log.after_crash() == survivors + 1
        assert log.get(post).txn_id == 2

    def test_short_forced_log_survives_two_crashes(self):
        """Regression: the durability watermark after a rewind must
        round up, or a sub-page log evaporates at the second crash."""
        log = LogManager(page_size=2020, transfers_per_log_page=1)
        log.append(CommitRecord(txn_id=1))
        log.force()
        log.crash()
        assert log.after_crash() == 1
        log.crash()
        assert log.after_crash() == 1
        assert [r.txn_id for r in log.records()] == [1]
