"""Behavioral tests for the Database facade in page-logging mode."""

import pytest

from repro.db import Database, preset
from repro.errors import DeadlockError, TransactionError
from repro.db.database import LockWait
from repro.storage import make_page


def make_db(name, **kw):
    defaults = dict(group_size=4, num_groups=8, buffer_capacity=6)
    defaults.update(kw)
    return Database(preset(name, **defaults))


PAGE_PRESETS = ["page-force-rda", "page-force-log",
                "page-noforce-rda", "page-noforce-log"]


@pytest.fixture(params=PAGE_PRESETS)
def db(request):
    return make_db(request.param)


class TestReadWrite:
    def test_initial_pages_zero(self, db):
        t = db.begin()
        assert db.read_page(t, 0) == bytes(len(db.read_page(t, 0)))

    def test_write_visible_to_same_txn(self, db):
        t = db.begin()
        db.write_page(t, 3, make_page(b"mine"))
        assert db.read_page(t, 3) == make_page(b"mine")

    def test_commit_makes_durable_view(self, db):
        t = db.begin()
        db.write_page(t, 3, make_page(b"v"))
        db.commit(t)
        t2 = db.begin()
        assert db.read_page(t2, 3) == make_page(b"v")

    def test_load_pages_bulk(self, db):
        db.load_pages({0: make_page(b"a"), 5: make_page(b"b")})
        t = db.begin()
        assert db.read_page(t, 0) == make_page(b"a")
        assert db.read_page(t, 5) == make_page(b"b")
        assert db.verify_parity() == []

    def test_record_api_rejected_in_page_mode(self, db):
        t = db.begin()
        with pytest.raises(TransactionError):
            db.read_record(t, 0, 0)

    def test_wrong_page_size_rejected(self, db):
        t = db.begin()
        with pytest.raises(ValueError):
            db.write_page(t, 0, b"small")


class TestAbort:
    def test_abort_in_buffer_only(self, db):
        db.load_pages({0: make_page(b"base")})
        t = db.begin()
        db.write_page(t, 0, make_page(b"changed"))
        db.abort(t)
        t2 = db.begin()
        assert db.read_page(t2, 0) == make_page(b"base")

    def test_abort_after_steal(self, db):
        db.load_pages({0: make_page(b"base")})
        t = db.begin()
        db.write_page(t, 0, make_page(b"changed"))
        spill = db.begin()
        for p in range(1, 14):
            db.write_page(spill, p, make_page(bytes([p])))
        db.commit(spill)
        assert db.disk_page(0) == make_page(b"changed")   # stolen
        db.abort(t)
        assert db.disk_page(0) == make_page(b"base")
        assert db.verify_parity() == []

    def test_abort_read_only(self, db):
        t = db.begin()
        db.read_page(t, 0)
        db.abort(t)   # no log traffic required; must not raise

    def test_abort_releases_locks(self, db):
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.abort(t)
        t2 = db.begin()
        db.write_page(t2, 0, make_page(b"y"))   # no LockWait
        db.commit(t2)

    def test_abort_restores_multiple_pages(self, db):
        db.load_pages({p: make_page(bytes([100 + p])) for p in range(4)})
        t = db.begin()
        for p in range(4):
            db.write_page(t, p, make_page(b"bad"))
        spill = db.begin()
        for p in range(8, 20):
            db.write_page(spill, p, make_page(bytes([p])))
        db.commit(spill)
        db.abort(t)
        t2 = db.begin()
        for p in range(4):
            assert db.read_page(t2, p) == make_page(bytes([100 + p]))


class TestLocking:
    def test_write_conflict_waits(self, db):
        a, b = db.begin(), db.begin()
        db.write_page(a, 0, make_page(b"a"))
        with pytest.raises(LockWait):
            db.write_page(b, 0, make_page(b"b"))
        db.commit(a)
        db.write_page(b, 0, make_page(b"b"))    # grant arrived with release
        db.commit(b)

    def test_readers_share(self, db):
        a, b = db.begin(), db.begin()
        db.read_page(a, 0)
        db.read_page(b, 0)
        db.commit(a)
        db.commit(b)

    def test_deadlock_detected(self, db):
        a, b = db.begin(), db.begin()
        db.write_page(a, 0, make_page(b"a"))
        db.write_page(b, 1, make_page(b"b"))
        with pytest.raises(LockWait):
            db.write_page(a, 1, make_page(b"a"))
        with pytest.raises(DeadlockError):
            db.write_page(b, 0, make_page(b"b"))
        db.abort(b)        # victim aborts; a's waiting write is granted
        db.write_page(a, 1, make_page(b"a"))
        db.commit(a)


class TestForceDiscipline:
    def test_force_flushes_at_commit(self):
        db = make_db("page-force-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"forced"))
        db.commit(t)
        assert db.disk_page(0) == make_page(b"forced")

    def test_noforce_leaves_dirty(self):
        db = make_db("page-noforce-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"lazy"))
        db.commit(t)
        assert db.disk_page(0) != make_page(b"lazy")
        assert db.buffer.is_dirty(0)

    def test_checkpoint_flushes_residue(self):
        db = make_db("page-noforce-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"lazy"))
        db.commit(t)
        db.checkpoint()
        assert db.disk_page(0) == make_page(b"lazy")
        assert not db.buffer.is_dirty(0)

    def test_force_mode_has_no_checkpoints(self):
        db = make_db("page-force-rda")
        with pytest.raises(TransactionError):
            db.checkpoint()


class TestRDASpecifics:
    def test_unlogged_steal_counted(self):
        db = make_db("page-force-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.commit(t)            # FORCE: flush = steal while active
        assert db.counters.unlogged_steals >= 1
        assert db.counters.before_images_logged == 0

    def test_baseline_logs_before_images(self):
        db = make_db("page-force-log")
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.commit(t)
        assert db.counters.before_images_logged >= 1

    def test_two_pages_same_group_second_is_logged(self):
        db = make_db("page-force-rda")
        group_pages = db.array.geometry.group_pages(0)
        t = db.begin()
        db.write_page(t, group_pages[0], make_page(b"a"))
        db.write_page(t, group_pages[1], make_page(b"b"))
        db.commit(t)
        assert db.counters.unlogged_steals == 1
        assert db.counters.logged_steals == 1
        assert db.counters.before_images_logged == 1

    def test_pages_in_distinct_groups_all_unlogged(self):
        db = make_db("page-force-rda")
        geo = db.array.geometry
        t = db.begin()
        for g in range(3):
            db.write_page(t, geo.group_pages(g)[0], make_page(bytes([g + 1])))
        db.commit(t)
        assert db.counters.unlogged_steals == 3
        assert db.counters.logged_steals == 0


class TestNoStealDiscipline:
    def test_no_steal_never_logs_undo(self):
        db = make_db("page-force-log", steal=False, buffer_capacity=20)
        t = db.begin()
        for p in range(6):
            db.write_page(t, p, make_page(bytes([p + 1])))
        # nothing reached disk before commit, so no undo info was needed
        assert all(db.disk_page(p) == bytes(512) for p in range(6))
        assert db.counters.steals == 0
        db.commit(t)
        for p in range(6):
            assert db.disk_page(p) == make_page(bytes([p + 1]))

    def test_no_steal_buffer_exhaustion(self):
        from repro.errors import BufferFullError
        db = make_db("page-force-log", steal=False, buffer_capacity=4)
        t = db.begin()
        with pytest.raises(BufferFullError):
            for p in range(10):
                db.write_page(t, p, make_page(bytes([p + 1])))

    def test_no_steal_abort_is_pure_memory(self):
        db = make_db("page-force-rda", steal=False, buffer_capacity=20)
        db.load_pages({0: make_page(b"base")})
        t = db.begin()
        db.write_page(t, 0, make_page(b"scratch"))
        def data_writes():
            return sum(n for disk_id, n in db.stats.per_disk_writes.items()
                       if disk_id >= 0)     # log devices draw negative ids
        data_writes_before = data_writes()
        with db.stats.window() as w:
            db.abort(t)
        # only the duplexed abort record hits storage; no data-page I/O
        assert data_writes() == data_writes_before
        assert w.reads == 0
        t2 = db.begin()
        assert db.read_page(t2, 0) == make_page(b"base")


class TestMustCommitPin:
    def test_lost_undo_forbids_abort(self):
        db = make_db("page-force-rda")
        db.load_pages({0: make_page(b"base")})
        t = db.begin()
        db.write_page(t, 0, make_page(b"stolen"))
        # force a steal without committing
        spill = db.begin()
        for p in range(4, 18):
            db.write_page(spill, p, make_page(bytes([p])))
        db.commit(spill)
        group = db.array.geometry.group_of(0)
        entry = db.rda.dirty_set.get(group)
        assert entry is not None and entry.txn_id == t
        committed_twin = 1 - entry.working_twin
        disk = db.array.geometry.parity_addresses(group)[committed_twin].disk
        db.media_failure(disk)
        db.media_recover(disk, on_lost_undo="adopt")
        from repro.errors import RecoveryError
        with pytest.raises(RecoveryError):
            db.abort(t)
        db.commit(t)   # committing is still fine
