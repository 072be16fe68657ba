"""Crash- and media-recovery tests across all eight configurations.

The invariant: after any crash + restart, the database equals the serial
effects of committed transactions only (atomicity + durability).
"""

import pytest

from repro.db import Database, preset
from repro.storage import make_page

PAGE_PRESETS = ["page-force-rda", "page-force-log",
                "page-noforce-rda", "page-noforce-log"]
RECORD_PRESETS = ["record-force-rda", "record-force-log",
                  "record-noforce-rda", "record-noforce-log"]


def make_db(name, **kw):
    defaults = dict(group_size=4, num_groups=8, buffer_capacity=6)
    defaults.update(kw)
    db = Database(preset(name, **defaults))
    if db.config.record_logging:
        db.format_record_pages(range(db.num_data_pages))
    return db


@pytest.fixture(params=PAGE_PRESETS)
def pdb(request):
    return make_db(request.param)


@pytest.fixture(params=RECORD_PRESETS)
def rdb(request):
    return make_db(request.param)


class TestPageModeCrash:
    def test_committed_survives(self, pdb):
        t = pdb.begin()
        pdb.write_page(t, 0, make_page(b"durable"))
        pdb.commit(t)
        pdb.crash()
        stats = pdb.recover()
        assert t in stats["winners"]
        t2 = pdb.begin()
        assert pdb.read_page(t2, 0) == make_page(b"durable")

    def test_uncommitted_buffered_vanishes(self, pdb):
        t = pdb.begin()
        pdb.write_page(t, 0, make_page(b"ghost"))
        pdb.crash()
        pdb.recover()
        t2 = pdb.begin()
        assert pdb.read_page(t2, 0) == bytes(512)

    def test_uncommitted_stolen_rolled_back(self, pdb):
        pdb.load_pages({0: make_page(b"base")})
        loser = pdb.begin()
        pdb.write_page(loser, 0, make_page(b"stolen"))
        spill = pdb.begin()
        for p in range(4, 18):
            pdb.write_page(spill, p, make_page(bytes([p])))
        pdb.commit(spill)
        assert pdb.disk_page(0) == make_page(b"stolen")
        pdb.crash()
        stats = pdb.recover()
        assert loser in stats["losers"]
        t2 = pdb.begin()
        assert pdb.read_page(t2, 0) == make_page(b"base")
        assert pdb.verify_parity() == []

    def test_mixed_winners_and_losers_same_group(self, pdb):
        pages = pdb.array.geometry.group_pages(0)
        winner = pdb.begin()
        pdb.write_page(winner, pages[0], make_page(b"win"))
        pdb.commit(winner)
        loser = pdb.begin()
        pdb.write_page(loser, pages[1], make_page(b"lose"))
        spill = pdb.begin()
        for p in range(8, 20):
            pdb.write_page(spill, p, make_page(bytes([p])))
        pdb.commit(spill)
        pdb.crash()
        pdb.recover()
        t = pdb.begin()
        assert pdb.read_page(t, pages[0]) == make_page(b"win")
        assert pdb.read_page(t, pages[1]) == bytes(512)
        assert pdb.verify_parity() == []

    def test_double_crash(self, pdb):
        t = pdb.begin()
        pdb.write_page(t, 0, make_page(b"v"))
        pdb.commit(t)
        pdb.crash()
        pdb.recover()
        pdb.crash()
        pdb.recover()
        t2 = pdb.begin()
        assert pdb.read_page(t2, 0) == make_page(b"v")

    def test_recovery_is_idempotent_under_repeat(self, pdb):
        loser = pdb.begin()
        pdb.write_page(loser, 0, make_page(b"x"))
        spill = pdb.begin()
        for p in range(4, 18):
            pdb.write_page(spill, p, make_page(bytes([p])))
        pdb.commit(spill)
        pdb.crash()
        first = pdb.recover()
        pdb.crash()
        second = pdb.recover()
        assert loser not in second["losers"]    # abort record persisted
        t = pdb.begin()
        assert pdb.read_page(t, 0) == bytes(512)

    def test_work_after_recovery(self, pdb):
        t = pdb.begin()
        pdb.write_page(t, 0, make_page(b"a"))
        pdb.commit(t)
        pdb.crash()
        pdb.recover()
        t2 = pdb.begin()
        pdb.write_page(t2, 0, make_page(b"b"))
        pdb.commit(t2)
        t3 = pdb.begin()
        assert pdb.read_page(t3, 0) == make_page(b"b")
        assert pdb.verify_parity() == []


class TestNoForceSpecifics:
    @pytest.fixture(params=["page-noforce-rda", "page-noforce-log"])
    def db(self, request):
        return make_db(request.param)

    def test_committed_unflushed_redone(self, db):
        t = db.begin()
        db.write_page(t, 0, make_page(b"only-in-log"))
        db.commit(t)
        assert db.disk_page(0) != make_page(b"only-in-log")
        db.crash()
        stats = db.recover()
        assert stats["redo_applied"] >= 1
        assert db.disk_page(0) == make_page(b"only-in-log")

    def test_checkpoint_bounds_redo(self, db):
        for i in range(3):
            t = db.begin()
            db.write_page(t, i, make_page(bytes([i + 1])))
            db.commit(t)
        db.checkpoint()
        t = db.begin()
        db.write_page(t, 5, make_page(b"after-cp"))
        db.commit(t)
        db.crash()
        stats = db.recover()
        assert stats["redo_applied"] == 1     # only the post-checkpoint txn
        t2 = db.begin()
        for i in range(3):
            assert db.read_page(t2, i) == make_page(bytes([i + 1]))
        assert db.read_page(t2, 5) == make_page(b"after-cp")

    def test_residue_after_loser_steal_recovers(self, db):
        """Committed-unflushed data under a loser's stolen page."""
        t = db.begin()
        db.write_page(t, 0, make_page(b"committed"))
        db.commit(t)                                  # residue on page 0
        loser = db.begin()
        db.write_page(loser, 0, make_page(b"loser"))
        spill = db.begin()
        for p in range(4, 18):
            db.write_page(spill, p, make_page(bytes([p])))
        db.commit(spill)
        db.crash()
        db.recover()
        t2 = db.begin()
        assert db.read_page(t2, 0) == make_page(b"committed")
        assert db.verify_parity() == []


class TestRecordModeCrash:
    def test_committed_record_survives(self, rdb):
        t = rdb.begin()
        slot = rdb.insert_record(t, 0, b"durable")
        rdb.commit(t)
        rdb.crash()
        rdb.recover()
        t2 = rdb.begin()
        assert rdb.read_record(t2, 0, slot) == b"durable"

    def test_loser_update_rolled_back(self, rdb):
        t = rdb.begin()
        slot = rdb.insert_record(t, 0, b"v0")
        rdb.commit(t)
        if rdb.checkpointer is not None:
            rdb.checkpoint()
        loser = rdb.begin()
        rdb.update_record(loser, 0, slot, b"v1")
        spill = rdb.begin()
        for p in range(1, 14):
            rdb.insert_record(spill, p, b"spill")
        rdb.commit(spill)
        rdb.crash()
        rdb.recover()
        t2 = rdb.begin()
        assert rdb.read_record(t2, 0, slot) == b"v0"
        assert rdb.verify_parity() == []

    def test_interleaved_txns_on_one_page(self, rdb):
        setup = rdb.begin()
        a = rdb.insert_record(setup, 0, b"aaa")
        b = rdb.insert_record(setup, 0, b"bbb")
        rdb.commit(setup)
        winner, loser = rdb.begin(), rdb.begin()
        rdb.update_record(winner, 0, a, b"WIN")
        rdb.update_record(loser, 0, b, b"LOSE")
        rdb.commit(winner)
        rdb.crash()
        rdb.recover()
        t = rdb.begin()
        assert rdb.read_record(t, 0, a) == b"WIN"
        assert rdb.read_record(t, 0, b) == b"bbb"

    def test_loser_insert_and_delete_undone(self, rdb):
        setup = rdb.begin()
        keep = rdb.insert_record(setup, 0, b"keep")
        rdb.commit(setup)
        if rdb.checkpointer is not None:
            rdb.checkpoint()
        loser = rdb.begin()
        ghost = rdb.insert_record(loser, 0, b"ghost")
        rdb.delete_record(loser, 0, keep)
        spill = rdb.begin()
        for p in range(1, 14):
            rdb.insert_record(spill, p, b"spill")
        rdb.commit(spill)
        rdb.crash()
        rdb.recover()
        t = rdb.begin()
        assert rdb.read_record(t, 0, keep) == b"keep"
        with pytest.raises(KeyError):
            rdb.read_record(t, 0, ghost)


def test_restore_reads_each_page_once():
    """What a record-mode restart transfers: the twin scan (2 per
    group), the log reads redo charges, and per restored page one read
    to apply the record images to plus an a = 3 small write — what
    ``page_base`` read is the write's old data (it was read again by
    the write, a = 4)."""
    db = make_db("record-noforce-rda")
    setup = db.begin()
    slots = {page: db.insert_record(setup, page, b"v0") for page in (0, 5, 9)}
    db.commit(setup)
    db.checkpoint()
    for page, slot in slots.items():
        t = db.begin()
        db.update_record(t, page, slot, b"v1")
        db.commit(t)                    # ¬FORCE: durable in the log only
    db.crash()
    log_before = db.stats.log_transfers
    stats = db.recover()
    log_reads = db.stats.log_transfers - log_before
    assert stats["redo_applied"] == 3 and log_reads > 0
    groups = db.array.geometry.num_groups
    assert stats["page_transfers"] == (2 * groups + (1 + 3) * len(slots)
                                       + log_reads)
    t = db.begin()
    for page, slot in slots.items():
        assert db.read_record(t, page, slot) == b"v1"
    assert db.verify_parity() == []


@pytest.mark.parametrize("name, parent_transfers",
                         [("record-noforce-rda", 41),
                          ("record-noforce-log", 25)])
def test_restore_reads_and_writes_each_groups_parity_once(name,
                                                          parent_transfers):
    """Six restored pages in three parity groups ({0, 1, 2}, {5, 6},
    {9}): the restart transfers 2 × (pages − groups) fewer than the
    per-page restore loop did on this script (41 on the twin array — a
    16-transfer twin scan, one log read, 1 + 3 per page — and 25 on
    single parity), the same saving on either substrate."""
    db = make_db(name)
    pages = (0, 1, 2, 5, 6, 9)
    setup = db.begin()
    slots = {page: db.insert_record(setup, page, b"v0") for page in pages}
    db.commit(setup)
    db.checkpoint()
    for page, slot in slots.items():
        t = db.begin()
        db.update_record(t, page, slot, b"v1")
        db.commit(t)                    # ¬FORCE: durable in the log only
    db.crash()
    stats = db.recover()
    assert stats["redo_applied"] == len(pages)
    groups = {db.array.geometry.group_of(page) for page in pages}
    assert stats["page_transfers"] == \
        parent_transfers - 2 * (len(pages) - len(groups))
    t = db.begin()
    for page, slot in slots.items():
        assert db.read_record(t, page, slot) == b"v1"
    assert db.verify_parity() == []


class TestMediaRecovery:
    @pytest.mark.parametrize("name", PAGE_PRESETS)
    def test_single_disk_failure_full_rebuild(self, name):
        db = make_db(name)
        for p in range(0, db.num_data_pages, 3):
            t = db.begin()
            db.write_page(t, p, make_page(bytes([p % 250 + 1])))
            db.commit(t)
        if db.checkpointer is not None:
            db.checkpoint()
        else:
            db.buffer.flush_all_dirty()
        db.media_failure(2)
        db.media_recover(2)
        for p in range(0, db.num_data_pages, 3):
            assert db.disk_page(p) == make_page(bytes([p % 250 + 1])), (name, p)
        assert db.verify_parity() == []

    def test_degraded_reads_while_failed(self):
        db = make_db("page-force-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"v"))
        db.commit(t)
        victim = db.array.geometry.data_address(0).disk
        db.media_failure(victim)
        t2 = db.begin()
        assert db.read_page(t2, 0) == make_page(b"v")   # degraded read
        db.media_recover(victim)
        assert db.disk_page(0) == make_page(b"v")

    def test_rebuild_with_active_dirty_group(self):
        db = make_db("page-force-rda")
        db.load_pages({0: make_page(b"base")})
        t = db.begin()
        db.write_page(t, 0, make_page(b"active"))
        spill = db.begin()
        for p in range(4, 18):
            db.write_page(spill, p, make_page(bytes([p])))
        db.commit(spill)
        group = db.array.geometry.group_of(0)
        assert db.rda.dirty_set.is_dirty(group)
        victim = db.array.geometry.data_address(0).disk
        db.media_failure(victim)
        db.media_recover(victim)
        # undo capability survived the rebuild
        db.abort(t)
        assert db.disk_page(0) == make_page(b"base")
