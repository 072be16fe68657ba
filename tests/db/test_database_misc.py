"""Odds-and-ends coverage for the Database facade."""

import gc
import weakref

import pytest

from repro.db import Database, ShardedDatabase, preset
from repro.errors import (DatabaseClosedError, InvalidTransactionState,
                          TransactionError)
from repro.storage import make_page


def make_db(name="page-force-rda", **kw):
    defaults = dict(group_size=4, num_groups=8, buffer_capacity=6)
    defaults.update(kw)
    return Database(preset(name, **defaults))


class TestViews:
    def test_committed_view_prefers_buffer(self):
        db = make_db("page-noforce-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"buffered"))
        db.commit(t)
        assert db.committed_view(0) == make_page(b"buffered")
        assert db.disk_page(0) != make_page(b"buffered")   # lazy

    def test_committed_view_falls_back_to_disk(self):
        db = make_db()
        db.load_pages({3: make_page(b"ondisk")})
        assert db.committed_view(3) == make_page(b"ondisk")

    def test_num_data_pages(self):
        db = make_db()
        assert db.num_data_pages == 32


class TestLoadPages:
    def test_load_skips_all_zero_groups(self):
        db = make_db()
        before = db.stats.total
        db.load_pages({})
        assert db.stats.total == before

    def test_load_maintains_parity(self):
        db = make_db()
        db.load_pages({p: make_page(p + 1) for p in range(10)})
        assert db.verify_parity() == []

    def test_format_record_pages_only_listed(self):
        db = make_db("record-force-rda")
        db.format_record_pages([0, 5])
        from repro.db import SlottedPage
        assert SlottedPage.from_bytes(db.disk_page(0)).record_count == 0
        assert db.verify_parity() == []


class TestTransactionSurface:
    def test_operations_on_finished_txn_rejected(self):
        db = make_db()
        t = db.begin()
        db.commit(t)
        with pytest.raises(InvalidTransactionState):
            db.write_page(t, 0, make_page(b"x"))
        with pytest.raises(InvalidTransactionState):
            db.read_page(t, 0)
        with pytest.raises(InvalidTransactionState):
            db.commit(t)
        with pytest.raises(InvalidTransactionState):
            db.abort(t)

    def test_read_only_commit_writes_no_log(self):
        db = make_db()
        t = db.begin()
        db.read_page(t, 0)
        before = db.undo_log.last_lsn, db.redo_log.last_lsn
        db.commit(t)
        assert (db.undo_log.last_lsn, db.redo_log.last_lsn) == before

    def test_read_only_abort(self):
        db = make_db()
        t = db.begin()
        db.read_page(t, 0)
        db.abort(t)
        assert db.counters.transactions_aborted == 1

    def test_grants_for_reports_waiting(self):
        from repro.db.database import LockWait
        db = make_db()
        a, b = db.begin(), db.begin()
        db.write_page(a, 0, make_page(b"a"))
        with pytest.raises(LockWait):
            db.write_page(b, 0, make_page(b"b"))
        assert not db.grants_for(b)
        db.commit(a)
        assert db.grants_for(b)
        db.abort(b)


class TestCounters:
    def test_commit_abort_counts(self):
        db = make_db()
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.commit(t)
        t = db.begin()
        db.write_page(t, 1, make_page(b"y"))
        db.abort(t)
        assert db.counters.transactions_committed == 1
        assert db.counters.transactions_aborted == 1

    def test_unlogged_fraction_zero_without_steals(self):
        db = make_db("page-noforce-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.commit(t)
        assert db.counters.unlogged_fraction == 0.0
        assert db.counters.steals == 0


class TestStatistics:
    def test_snapshot_keys_and_values(self):
        db = make_db()
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.commit(t)
        stats = db.statistics()
        assert stats["transactions_committed"] == 1
        assert stats["page_transfers"] > 0
        assert stats["undo_log_bytes"] > 0
        assert stats["active_transactions"] == 0
        assert 0.0 <= stats["buffer_hit_ratio"] <= 1.0

    def test_dirty_groups_tracked(self):
        db = make_db()
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.buffer.flush_pages_of(t)
        assert db.statistics()["dirty_groups"] == 1
        db.commit(t)
        assert db.statistics()["dirty_groups"] == 0

    def test_baseline_reports_zero_dirty_groups(self):
        db = make_db("page-force-log")
        assert db.statistics()["dirty_groups"] == 0


class TestResidueInteraction:
    def test_residue_steal_is_logged_even_with_rda(self):
        """Committed-but-unflushed data under a new uncommitted change
        must not ride the parity twins (the rewind would lose it)."""
        db = make_db("page-noforce-rda", buffer_capacity=4)
        t = db.begin()
        db.write_page(t, 0, make_page(b"committed"))
        db.commit(t)                            # residue on page 0
        loser = db.begin()
        db.write_page(loser, 0, make_page(b"uncommitted"))
        db.buffer.flush_page(0)                 # steal with residue
        assert db.counters.logged_steals >= 1
        assert db.counters.unlogged_steals == 0
        db.abort(loser)
        assert db.committed_view(0) == make_page(b"committed")


class TestClose:
    @pytest.mark.parametrize("name", ["page-force-rda", "record-noforce-rda",
                                      "page-noforce-log", "page-noforce-redo",
                                      "page-force-raid6"])
    def test_close_frees_buffer_and_array_without_the_collector(self, name):
        # a closed engine still referenced (a caller holding it across
        # the next set-up) must not keep its pages alive until the
        # cyclic collector happens to run
        db = make_db(name)
        txn = db.begin()
        if db.config.record_logging:
            db.format_record_pages(range(4))
            db.insert_record(txn, 1, b"rec")
        else:
            db.write_page(txn, 1, make_page(b"page"))
        db.commit(txn)
        refs = [weakref.ref(db.buffer), weakref.ref(db.array)]
        gc.disable()
        try:
            db.close()
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_every_operation_after_close_raises(self):
        db = make_db("page-noforce-rda")
        txn = db.begin()
        db.close()
        for call in (db.begin, lambda: db.read_page(txn, 0),
                     lambda: db.write_page(txn, 0, make_page(b"x")),
                     lambda: db.commit(txn), lambda: db.abort(txn),
                     db.checkpoint, db.trim_log, db.crash, db.recover,
                     db.statistics, db.verify_parity,
                     lambda: db.committed_view(0),
                     lambda: db.grants_for(txn)):
            with pytest.raises(DatabaseClosedError):
                call()
        db.close()      # idempotent

    def test_record_operations_after_close_raise(self):
        db = make_db("record-noforce-rda")
        db.format_record_pages(range(2))
        txn = db.begin()
        db.close()
        for call in (lambda: db.read_record(txn, 0, 0),
                     lambda: db.insert_record(txn, 0, b"x"),
                     lambda: db.update_record(txn, 0, 0, b"x"),
                     lambda: db.delete_record(txn, 0, 0)):
            with pytest.raises(DatabaseClosedError):
                call()

    def test_in_process_sharded_facade_closes_its_shards(self):
        db = ShardedDatabase(preset("page-force-rda", group_size=4,
                                    num_groups=8, buffer_capacity=8),
                             shards=2)
        refs = [weakref.ref(shard.buffer) for shard in db.shards]
        gc.disable()
        try:
            db.close()
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
        with pytest.raises(DatabaseClosedError):
            db.begin()
