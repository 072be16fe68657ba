"""Tests for log truncation: bounded log growth without losing recovery."""

import pytest

from repro.db import ArchiveManager, Database, preset
from repro.errors import LogCorruptionError
from repro.storage import make_page


def make_db(name, **kw):
    defaults = dict(group_size=4, num_groups=8, buffer_capacity=6)
    defaults.update(kw)
    return Database(preset(name, **defaults))


class TestLogManagerTruncation:
    def test_truncate_drops_records(self):
        db = make_db("page-noforce-log")
        for i in range(3):
            t = db.begin()
            db.write_page(t, i, make_page(bytes([i + 1])))
            db.commit(t)
        log = db.undo_log
        before = len(log.records())
        dropped = log.truncate_before(log.last_lsn - 1)
        assert dropped == before - 2
        assert log.base_lsn == log.last_lsn - 1
        with pytest.raises(LogCorruptionError):
            log.get(1)

    def test_truncate_is_idempotent(self):
        db = make_db("page-noforce-log")
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.commit(t)
        log = db.undo_log
        log.truncate_before(2)
        assert log.truncate_before(2) == 0

    def test_appends_continue_after_truncation(self):
        db = make_db("page-noforce-log")
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.commit(t)
        log = db.undo_log
        last = log.last_lsn
        log.truncate_before(last + 1)       # drop everything
        t2 = db.begin()
        db.write_page(t2, 1, make_page(b"y"))
        db.commit(t2)
        assert log.last_lsn > last
        assert log.verify_duplex()

    def test_truncated_log_survives_crash(self):
        db = make_db("page-noforce-log")
        for i in range(2):
            t = db.begin()
            db.write_page(t, i, make_page(bytes([i + 1])))
            db.commit(t)
        db.checkpoint()
        db.trim_log()
        t = db.begin()
        db.write_page(t, 5, make_page(b"after-trim"))
        db.commit(t)
        db.crash()
        db.recover()
        t2 = db.begin()
        assert db.read_page(t2, 5) == make_page(b"after-trim")
        assert db.read_page(t2, 0) == make_page(bytes([1]))


class TestDatabaseTrim:
    def test_noforce_requires_checkpoint(self):
        db = make_db("page-noforce-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.commit(t)
        assert db.trim_log() == 0           # no checkpoint yet: no trim

    def test_noforce_trims_to_checkpoint(self):
        db = make_db("page-noforce-rda")
        for i in range(3):
            t = db.begin()
            db.write_page(t, i, make_page(bytes([i + 1])))
            db.commit(t)
        db.checkpoint()
        dropped = db.trim_log()
        assert dropped > 0
        # recovery still works
        t = db.begin()
        db.write_page(t, 5, make_page(b"post"))
        db.commit(t)
        db.crash()
        db.recover()
        t2 = db.begin()
        for i in range(3):
            assert db.read_page(t2, i) == make_page(bytes([i + 1]))
        assert db.read_page(t2, 5) == make_page(b"post")

    def test_active_transaction_blocks_its_undo(self):
        db = make_db("page-noforce-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"mine"))
        db.checkpoint()
        db.trim_log()
        # the active transaction can still abort after the trim
        db.abort(t)
        t2 = db.begin()
        assert db.read_page(t2, 0) == bytes(512)

    def test_force_trims_undo_log(self):
        db = make_db("page-force-rda")
        for i in range(3):
            t = db.begin()
            db.write_page(t, i, make_page(bytes([i + 1])))
            db.commit(t)
        assert db.trim_log() > 0
        db.crash()
        db.recover()
        t2 = db.begin()
        for i in range(3):
            assert db.read_page(t2, i) == make_page(bytes([i + 1]))

    def test_force_loser_after_trim_still_undone(self):
        db = make_db("page-force-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"old"))
        db.commit(t)
        db.trim_log()
        loser = db.begin()
        db.write_page(loser, 0, make_page(b"loser"))
        db.buffer.flush_pages_of(loser)
        db.crash()
        db.recover()
        t2 = db.begin()
        assert db.read_page(t2, 0) == make_page(b"old")

    def test_quiescent_force_trim_respects_archive(self):
        db = make_db("page-force-log")
        t = db.begin()
        db.write_page(t, 0, make_page(b"v1"))
        db.commit(t)
        manager = ArchiveManager(db)
        copy = manager.dump()
        t = db.begin()
        db.write_page(t, 0, make_page(b"v2"))
        db.commit(t)
        db.trim_log(archive_floor=copy.dump_lsn)
        victim = db.array.geometry.data_address(0).disk
        db.media_failure(victim)
        manager.restore_failed_disk(victim)
        assert db.disk_page(0) == make_page(b"v2")

    def test_nonquiescent_force_keeps_redo(self):
        db = make_db("page-force-log")
        t = db.begin()
        db.write_page(t, 0, make_page(b"v1"))
        db.commit(t)
        pin = db.begin()
        db.write_page(pin, 1, make_page(b"active"))
        before = db.redo_log.records()
        db.trim_log(archive_floor=0)
        # the archive floor keeps every record; the trim adds its anchor
        assert db.redo_log.records()[:-1] == before
        assert db.redo_log.anchor == db.redo_log.last_lsn
        db.abort(pin)
