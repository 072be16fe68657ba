"""Behavioral tests for the Database facade in record-logging mode."""

import pytest

from repro.db import Database, HeapFile, PageFullError, preset
from repro.check import verify_database
from repro.db.database import LockWait
from repro.errors import TransactionError


def make_db(name, **kw):
    defaults = dict(group_size=4, num_groups=8, buffer_capacity=6)
    defaults.update(kw)
    db = Database(preset(name, **defaults))
    db.format_record_pages(range(db.num_data_pages))
    return db


RECORD_PRESETS = ["record-force-rda", "record-force-log",
                  "record-noforce-rda", "record-noforce-log"]


@pytest.fixture(params=RECORD_PRESETS)
def db(request):
    return make_db(request.param)


class TestRecordCRUD:
    def test_insert_read(self, db):
        t = db.begin()
        slot = db.insert_record(t, 0, b"rec")
        assert db.read_record(t, 0, slot) == b"rec"
        db.commit(t)

    def test_update(self, db):
        t = db.begin()
        slot = db.insert_record(t, 0, b"old")
        db.commit(t)
        t2 = db.begin()
        db.update_record(t2, 0, slot, b"new")
        db.commit(t2)
        t3 = db.begin()
        assert db.read_record(t3, 0, slot) == b"new"

    def test_delete(self, db):
        t = db.begin()
        slot = db.insert_record(t, 0, b"temp")
        db.commit(t)
        t2 = db.begin()
        assert db.delete_record(t2, 0, slot) == b"temp"
        db.commit(t2)
        t3 = db.begin()
        with pytest.raises(KeyError):
            db.read_record(t3, 0, slot)

    def test_page_write_rejected_in_record_mode(self, db):
        t = db.begin()
        with pytest.raises(TransactionError):
            db.write_page(t, 0, bytes(512))


class TestRecordAbort:
    def test_abort_update(self, db):
        t = db.begin()
        slot = db.insert_record(t, 0, b"v0")
        db.commit(t)
        t2 = db.begin()
        db.update_record(t2, 0, slot, b"v1")
        db.abort(t2)
        t3 = db.begin()
        assert db.read_record(t3, 0, slot) == b"v0"

    def test_abort_insert_removes_record(self, db):
        t = db.begin()
        slot = db.insert_record(t, 0, b"ghost")
        db.abort(t)
        t2 = db.begin()
        with pytest.raises(KeyError):
            db.read_record(t2, 0, slot)

    def test_abort_delete_restores_record(self, db):
        t = db.begin()
        slot = db.insert_record(t, 0, b"keep")
        db.commit(t)
        t2 = db.begin()
        db.delete_record(t2, 0, slot)
        db.abort(t2)
        t3 = db.begin()
        assert db.read_record(t3, 0, slot) == b"keep"

    def test_abort_after_steal(self, db):
        t = db.begin()
        slot = db.insert_record(t, 0, b"v0")
        db.commit(t)
        loser = db.begin()
        db.update_record(loser, 0, slot, b"v1")
        if db.checkpointer is not None:
            db.checkpoint()     # flush committed residue first
        spill = db.begin()
        for p in range(1, 14):
            db.insert_record(spill, p, b"spill")
        db.commit(spill)
        db.abort(loser)
        t3 = db.begin()
        assert db.read_record(t3, 0, slot) == b"v0"
        assert db.verify_parity() == []

    def test_abort_preserves_other_txn_changes_on_page(self, db):
        """Record locking: two active transactions share a page; aborting
        one must keep the other's buffered changes."""
        setup = db.begin()
        a = db.insert_record(setup, 0, b"aaa")
        b = db.insert_record(setup, 0, b"bbb")
        db.commit(setup)
        t1, t2 = db.begin(), db.begin()
        db.update_record(t1, 0, a, b"A-1")
        db.update_record(t2, 0, b, b"B-2")
        db.abort(t1)
        assert db.read_record(t2, 0, b) == b"B-2"
        assert db.read_record(t2, 0, a) == b"aaa"
        db.commit(t2)
        t3 = db.begin()
        assert db.read_record(t3, 0, a) == b"aaa"
        assert db.read_record(t3, 0, b) == b"B-2"


class TestPromotion:
    def test_second_txn_on_stolen_page_triggers_promotion(self):
        db = make_db("record-force-rda", buffer_capacity=4)
        setup = db.begin()
        a = db.insert_record(setup, 0, b"aaa")
        b = db.insert_record(setup, 0, b"bbb")
        db.commit(setup)
        t1 = db.begin()
        db.update_record(t1, 0, a, b"A-1")
        # spill to force an unlogged steal of page 0
        spill = db.begin()
        for p in range(1, 10):
            db.insert_record(spill, p, b"spill")
        db.commit(spill)
        group = db.array.geometry.group_of(0)
        assert db.rda.dirty_set.is_dirty(group)
        # now a different transaction touches the same page
        t2 = db.begin()
        db.update_record(t2, 0, b, b"B-2")
        assert db.counters.promotions == 1
        assert not db.rda.dirty_set.is_dirty(group)
        # both abort paths still restore correctly
        db.abort(t1)
        db.abort(t2)
        t3 = db.begin()
        assert db.read_record(t3, 0, a) == b"aaa"
        assert db.read_record(t3, 0, b) == b"bbb"
        assert db.verify_parity() == []


class TestRecordLocking:
    def test_distinct_records_no_conflict(self, db):
        setup = db.begin()
        a = db.insert_record(setup, 0, b"aaa")
        b = db.insert_record(setup, 0, b"bbb")
        db.commit(setup)
        t1, t2 = db.begin(), db.begin()
        db.update_record(t1, 0, a, b"A")
        db.update_record(t2, 0, b, b"B")   # no LockWait
        db.commit(t1)
        db.commit(t2)

    def test_same_record_conflicts(self, db):
        setup = db.begin()
        a = db.insert_record(setup, 0, b"aaa")
        db.commit(setup)
        t1, t2 = db.begin(), db.begin()
        db.update_record(t1, 0, a, b"A")
        with pytest.raises(LockWait):
            db.update_record(t2, 0, a, b"B")
        db.commit(t1)
        db.update_record(t2, 0, a, b"B")
        db.commit(t2)


class TestHeapFile:
    def test_insert_scan(self, db):
        heap = HeapFile(db, range(4))
        t = db.begin()
        rids = [heap.insert(t, f"r{i}".encode()) for i in range(10)]
        db.commit(t)
        t2 = db.begin()
        found = dict(heap.scan(t2))
        assert len(found) == 10
        for i, rid in enumerate(rids):
            assert found[rid] == f"r{i}".encode()
        assert heap.record_count(t2) == 10

    def test_update_delete_via_heap(self, db):
        heap = HeapFile(db, range(2))
        t = db.begin()
        rid = heap.insert(t, b"x")
        heap.update(t, rid, b"y")
        assert heap.read(t, rid) == b"y"
        assert heap.delete(t, rid) == b"y"
        db.commit(t)

    def test_overflow_to_next_page(self, db):
        heap = HeapFile(db, range(2))
        t = db.begin()
        pages = set()
        for i in range(6):
            rid = heap.insert(t, b"z" * 150)
            pages.add(rid[0])
        db.commit(t)
        assert len(pages) == 2

    def test_full_heap_raises(self, db):
        heap = HeapFile(db, [0])
        t = db.begin()
        with pytest.raises(PageFullError):
            for _ in range(10):
                heap.insert(t, b"z" * 150)

    def test_empty_heap_rejected(self, db):
        with pytest.raises(ValueError):
            HeapFile(db, [])


@pytest.mark.parametrize("name", ["record-force-rda", "record-noforce-rda"])
def test_an_abort_at_two_frames_leaves_no_steal_of_its_own(name):
    """Group size 4, two buffer frames: T1 updates pages 0, 4, 0 and
    commits; T2 updates 8, 12, 0 and aborts.  The database must be
    consistent before the crash, and page 0 must hold T1's value after
    the restart — not T2's aborted one."""
    db = make_db(name, num_groups=4, buffer_capacity=2)
    seed = db.begin()
    for page in (0, 4, 8, 12):
        assert db.insert_record(seed, page, b"s%d" % page) == 0
    db.commit(seed)
    t1 = db.begin()
    for page, value in ((0, b"t1a"), (4, b"t1b"), (0, b"t1c")):
        db.update_record(t1, page, 0, value)
    db.commit(t1)
    t2 = db.begin()
    for page, value in ((8, b"t2a"), (12, b"t2b"), (0, b"t2c")):
        db.update_record(t2, page, 0, value)
    db.abort(t2)
    assert verify_database(db) == []
    db.crash()
    db.recover()
    reader = db.begin()
    assert db.read_record(reader, 0, 0) == b"t1c"


@pytest.mark.parametrize("name", ["record-force-rda", "record-noforce-rda"])
def test_an_abort_undoes_a_promoted_steal_under_its_re_steal(name):
    """T steals page 0, U's update of another slot promotes that steal
    to logged undo, U commits, and T updates and steals the page again.
    The abort's parity undo rewinds only the re-steal: the restored
    bytes still hold T's first value, which only the logged entry
    undoes.  Slot 0 must read the seed and slot 1 U's value, after the
    abort and after a restart."""
    db = make_db(name, num_groups=4, buffer_capacity=2)
    seed = db.begin()
    for value in (b"s0", b"s1"):
        db.insert_record(seed, 0, value)
    db.commit(seed)
    db.buffer.flush_page(0)
    t, u = db.begin(), db.begin()
    db.update_record(t, 0, 0, b"t-first")
    db.buffer.flush_page(0)                   # T's unlogged steal
    db.update_record(u, 0, 1, b"u")           # promotes it
    db.commit(u)
    db.buffer.flush_page(0)
    db.update_record(t, 0, 0, b"t-again")
    db.buffer.flush_page(0)                   # T's unlogged re-steal
    assert db.counters.promotions == 1
    assert 0 in db.txns.get(t).logged_stolen
    assert db.rda.dirty_set.get(0).txn_id == t
    db.abort(t)
    reader = db.begin()
    assert [db.read_record(reader, 0, slot) for slot in (0, 1)] == [b"s0",
                                                                   b"u"]
    db.commit(reader)
    assert verify_database(db) == []
    db.crash()
    db.recover()
    reader = db.begin()
    assert [db.read_record(reader, 0, slot) for slot in (0, 1)] == [b"s0",
                                                                   b"u"]
    db.commit(reader)
    assert verify_database(db) == []
