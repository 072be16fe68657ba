"""Tests for archive-based media recovery (the classical baseline)."""

import pytest

from repro.db import Database, preset
from repro.db.archive import ArchiveManager
from repro.errors import RecoveryError
from repro.storage import make_page


def make_db(name="page-force-log", **kw):
    defaults = dict(group_size=4, num_groups=8, buffer_capacity=6)
    defaults.update(kw)
    db = Database(preset(name, **defaults))
    if db.config.record_logging:
        db.format_record_pages(range(db.num_data_pages))
    return db


class TestDump:
    def test_dump_covers_all_pages(self):
        db = make_db()
        t = db.begin()
        db.write_page(t, 0, make_page(b"v"))
        db.commit(t)
        copy = ArchiveManager(db).dump()
        assert len(copy.pages) == db.num_data_pages
        assert copy.pages[0] == make_page(b"v")
        assert copy.transfers >= db.num_data_pages

    def test_dump_is_action_consistent(self):
        """¬FORCE leaves committed data only in the buffer; the dump
        must flush it first."""
        db = make_db("page-noforce-log")
        t = db.begin()
        db.write_page(t, 0, make_page(b"lazy"))
        db.commit(t)
        copy = ArchiveManager(db).dump()
        assert copy.pages[0] == make_page(b"lazy")


class TestRestore:
    def test_restore_without_dump_rejected(self):
        db = make_db()
        db.media_failure(0)
        with pytest.raises(RecoveryError):
            ArchiveManager(db).restore_failed_disk(0)

    def test_restore_rejected_on_rda_database(self):
        db = make_db("page-force-rda")
        manager = ArchiveManager(db)
        manager.dump()
        with pytest.raises(RecoveryError):
            manager.restore_failed_disk(0)

    def test_restore_from_archive_alone(self):
        db = make_db()
        payloads = {}
        for page in range(0, db.num_data_pages, 2):
            t = db.begin()
            payloads[page] = make_page(bytes([page % 250 + 1]))
            db.write_page(t, page, payloads[page])
            db.commit(t)
        manager = ArchiveManager(db)
        manager.dump()
        db.media_failure(1)
        manager.restore_failed_disk(1)
        for page, payload in payloads.items():
            assert db.disk_page(page) == payload
        assert db.verify_parity() == []

    def test_restore_rolls_forward_from_log(self):
        """Updates committed AFTER the dump come back via the redo log."""
        db = make_db()
        t = db.begin()
        db.write_page(t, 0, make_page(b"old"))
        db.commit(t)
        manager = ArchiveManager(db)
        manager.dump()
        t = db.begin()
        db.write_page(t, 0, make_page(b"new"))
        db.commit(t)
        victim = db.array.geometry.data_address(0).disk
        db.media_failure(victim)
        manager.restore_failed_disk(victim)
        assert db.disk_page(0) == make_page(b"new")
        assert db.verify_parity() == []

    def test_roll_forward_decodes_only_what_follows_the_dump(self):
        """After a restart the log holds undecoded entries: the roll
        forward turns only the records past ``dump_lsn`` into objects."""
        db = make_db()
        for value in (b"a", b"b", b"c"):
            t = db.begin()
            db.write_page(t, 0, make_page(value))
            db.commit(t)
        manager = ArchiveManager(db)
        copy = manager.dump()
        t = db.begin()
        db.write_page(t, 0, make_page(b"new"))
        db.commit(t)
        db.crash()
        db.recover()
        log = db.redo_log
        assert copy.dump_lsn > log.base_lsn
        decoded = log.records_decoded
        victim = db.array.geometry.data_address(0).disk
        db.media_failure(victim)
        manager.restore_failed_disk(victim)
        # the after-image and the commit record of the one transaction
        assert log.records_decoded - decoded == log.last_lsn - copy.dump_lsn
        assert log.last_lsn - copy.dump_lsn == 2
        assert db.disk_page(0) == make_page(b"new")
        assert db.verify_parity() == []

    def test_uncommitted_post_dump_changes_not_restored(self):
        db = make_db()
        manager = ArchiveManager(db)
        manager.dump()
        loser = db.begin()
        db.write_page(loser, 0, make_page(b"loser"))
        db.buffer.flush_pages_of(loser)       # stolen to disk
        victim = db.array.geometry.data_address(0).disk
        db.media_failure(victim)
        manager.restore_failed_disk(victim)
        # archive restore resurrects the committed (pre-loser) state for
        # the lost disk; the loser's change survives only in the log
        assert db.disk_page(0) == bytes(512)

    @pytest.mark.parametrize("stolen", [False, True],
                             ids=["unflushed-commit", "active-steal"])
    def test_a_page_the_failed_disk_lacked_leaves_no_stale_parity(
            self, stolen):
        """¬FORCE: the failed disk never got a committed change, or held
        an active transaction's stolen one; either way the restored page
        differs from what the other disks' parity covers, so the restore
        recomputes that parity — no log record would name the group to
        a later restart's scrub once a checkpoint passed."""
        db = make_db("page-noforce-log")
        manager = ArchiveManager(db)
        manager.dump()
        t = db.begin()
        db.write_page(t, 0, make_page(b"new"))
        if stolen:
            db.buffer.flush_pages_of(t)
        else:
            db.commit(t)
        victim = db.array.geometry.data_address(0).disk
        assert db.array.geometry.parity_addresses(0)[0].disk != victim
        db.media_failure(victim)
        manager.restore_failed_disk(victim)
        assert db.disk_page(0) == (bytes(512) if stolen
                                   else make_page(b"new"))
        assert db.verify_parity() == []

    def test_record_mode_roll_forward(self):
        db = make_db("record-force-log")
        t = db.begin()
        slot = db.insert_record(t, 0, b"v0")
        db.commit(t)
        manager = ArchiveManager(db)
        manager.dump()
        t = db.begin()
        db.update_record(t, 0, slot, b"v1")
        db.commit(t)
        victim = db.array.geometry.data_address(0).disk
        db.media_failure(victim)
        manager.restore_failed_disk(victim)
        t = db.begin()
        assert db.read_record(t, 0, slot) == b"v1"

    def test_restore_counts_transfers(self):
        db = make_db()
        manager = ArchiveManager(db)
        manager.dump()
        db.media_failure(0)
        transfers = manager.restore_failed_disk(0)
        assert transfers > 0
