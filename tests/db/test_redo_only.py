"""The REDO-only recovery class end to end.

Covers the fifth recovery class on both presets: the pure page-mode
class (``page-noforce-redo``, no steals at all) and the RDA+REDO
hybrid (``record-noforce-rda-redo``, twin-covered steals with
**un-steal** instead of promotion).  The invariants under test:

* no undo is ever logged — per-page chains hold committed work only;
* the write-behind gate keeps uncommitted data off the disk (pure
  class) or behind a parity twin (hybrid);
* the durable page marker advances on *every* committed write-back
  path — per-page and batched — and bounds both restart replay and
  chain-walk trimming;
* a latent sector repair schedules single-page recovery: the page's
  retained chain is replayed even though its marker said up-to-date;
* the exhaustive crash-point fault sweep (clean / torn / latent)
  recovers at every point once buffer pressure puts data writes into
  the schedule.
"""

import pytest

from repro.db import Database, preset, verify_database
from repro.db.slotted_page import SlottedPage
from repro.errors import BufferFullError, RecoveryError
from repro.sim import (default_fault_workload, record_fault_setup,
                       record_fault_workload, run_sweep)
from repro.storage import make_page
from repro.storage.page import ZERO_PAGE
from repro.wal.records import CheckpointRecord

SIZES = dict(group_size=5, num_groups=12, buffer_capacity=8)


def pure_db(**overrides):
    config = dict(SIZES, **overrides)
    return Database(preset("page-noforce-redo", **config))


def hybrid_db(**overrides):
    """A seeded hybrid database: every page holds ``b"seed"`` in slot 0,
    committed group by group so seeding survives a small buffer."""
    config = dict(SIZES, **overrides)
    db = Database(preset("record-noforce-rda-redo", **config))
    db.format_record_pages(range(db.num_data_pages))
    geometry = db.array.geometry
    for group in range(db.config.num_groups):
        txn = db.begin()
        for page in geometry.group_pages(group):
            db.insert_record(txn, page, b"seed")
        db.commit(txn)
    db.checkpoint()
    return db


def slot0(page_bytes: bytes) -> bytes:
    return SlottedPage.from_bytes(page_bytes).read(0)


class TestPureClass:
    def test_commit_crash_recover(self):
        db = pure_db()
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"durable"))
        db.commit(txn)
        db.crash()
        stats = db.recover()
        assert stats["log_undo_applied"] == 0       # REDO-only: no undo
        t = db.begin()
        assert db.read_page(t, 0) == make_page(b"durable")
        assert verify_database(db) == []

    def test_uncommitted_data_never_reaches_disk(self):
        db = pure_db()
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"volatile"))
        db.buffer.flush_all_dirty()                 # the gate holds it
        assert db.disk_page(0) == ZERO_PAGE
        db.crash()
        db.recover()
        t = db.begin()
        assert db.read_page(t, 0) == ZERO_PAGE

    def test_no_chained_records_for_losers(self):
        """Chains hold committed work only: an aborted transaction
        leaves at most an abort record, never redo entries."""
        db = pure_db()
        txn = db.begin()
        db.write_page(txn, 3, make_page(b"doomed"))
        db.abort(txn)
        assert [r for r in db.redo_log.records()
                if r.txn_id == txn and r.page_chained] == []

    def test_gate_fills_the_buffer_rather_than_steal(self):
        db = pure_db(buffer_capacity=4)
        txn = db.begin()
        for page in range(4):
            db.write_page(txn, page, make_page(b"held"))
        with pytest.raises(BufferFullError):
            db.write_page(txn, 4, make_page(b"one too many"))

    def test_steal_undo_request_is_a_bug(self):
        db = pure_db()
        with pytest.raises(RecoveryError):
            db.policy.logging.append_steal_undo(db, 1, 0)

    def test_durable_marker_advances_and_survives_crash(self):
        db = pure_db()
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"v1"))
        db.commit(txn)
        db.checkpoint()                             # committed write-back
        head = db.redo_log.page_chain_head(0)
        assert db._durable_page_lsn[0] == head
        db.crash()
        assert db._durable_page_lsn[0] == head      # it models on-disk state
        stats = db.recover()
        assert stats["redo_applied"] == 0           # nothing past the marker


class TestHybrid:
    def steal_page0(self, db):
        """Dirty page 0 under one transaction, then flood other groups
        so the pool steals it through the parity twins."""
        owner = db.begin()
        db.update_record(owner, 0, 0, b"stolen")
        flood = db.begin()
        geometry = db.array.geometry
        for group in (2, 3, 4):
            for page in geometry.group_pages(group)[:2]:
                db.update_record(flood, page, 0, b"flood")
        db.commit(flood)
        return owner

    def test_commit_crash_recover(self):
        db = hybrid_db()
        txn = db.begin()
        db.update_record(txn, 0, 0, b"final")
        db.commit(txn)
        db.crash()
        stats = db.recover()
        assert stats["log_undo_applied"] == 0
        t = db.begin()
        assert db.read_record(t, 0, 0) == b"final"
        assert verify_database(db) == []

    def test_covered_steal_and_abort_rewind(self):
        db = hybrid_db(buffer_capacity=5)
        owner = self.steal_page0(db)
        assert db.rda.dirty_set.is_dirty(0)         # page 0's group
        assert slot0(db.disk_page(0)) == b"stolen"
        db.abort(owner)                             # twins rewind the disk
        assert slot0(db.disk_page(0)) == b"seed"
        assert not db.rda.dirty_set.is_dirty(0)
        assert verify_database(db) == []

    def test_unsteal_on_page_sharing(self):
        db = hybrid_db(buffer_capacity=5)
        owner = self.steal_page0(db)
        sharer = db.begin()
        db.insert_record(sharer, 0, b"also here")   # second modifier
        assert db.counters.promotions >= 1          # un-stolen, not logged
        assert slot0(db.disk_page(0)) == b"seed"    # disk rewound
        assert not db.rda.dirty_set.is_dirty(0)
        db.commit(owner)
        db.commit(sharer)
        db.crash()
        db.recover()
        t = db.begin()
        assert db.read_record(t, 0, 0) == b"stolen"
        assert verify_database(db) == []

    def test_batched_writeback_advances_marker(self):
        """Regression: a checkpoint window's committed write-backs must
        advance the durable page marker like a single flush does, or
        trim never frees the chains and restart replays them forever."""
        db = hybrid_db()
        txn = db.begin()
        pages = [0, 5, 10]
        for page in pages:
            db.update_record(txn, page, 0, b"batched")
        db.commit(txn)
        db.checkpoint()                 # flush_all_dirty: one window
        for page in pages:
            assert db._durable_page_lsn[page] == \
                db.redo_log.page_chain_head(page)
        db.crash()
        stats = db.recover()
        assert stats["redo_applied"] == 0

    def test_trim_drops_reflected_chains(self):
        db = hybrid_db()
        txn = db.begin()
        db.update_record(txn, 0, 0, b"v2")
        db.commit(txn)
        db.checkpoint()                 # marker catches up to the head
        assert db.trim_log() > 0
        db.crash()
        db.recover()
        t = db.begin()
        assert db.read_record(t, 0, 0) == b"v2"
        assert verify_database(db) == []

    def test_trim_retains_unreflected_chains(self):
        """A committed chain whose page has not reached disk yet must
        survive trimming — it is the only copy of the committed data."""
        db = hybrid_db()
        txn = db.begin()
        db.update_record(txn, 0, 0, b"log only")
        db.commit(txn)                  # ¬FORCE: page still dirty
        head = db.redo_log.page_chain_head(0)
        checkpoints = [r.lsn for r in db.redo_log.scan(CheckpointRecord)]
        if checkpoints and min(checkpoints) > head:
            db.trim_log()
            assert db.redo_log.base_lsn <= head
        db.crash()
        db.recover()
        t = db.begin()
        assert db.read_record(t, 0, 0) == b"log only"


class TestSinglePageRecovery:
    @pytest.mark.parametrize("name", ["page-noforce-redo",
                                      "record-noforce-rda-redo"])
    def test_latent_sector_replays_the_chain(self, name):
        if name == "record-noforce-rda-redo":
            db = hybrid_db()
            txn = db.begin()
            db.update_record(txn, 0, 0, b"repairme")
            db.commit(txn)
        else:
            db = pure_db()
            txn = db.begin()
            db.write_page(txn, 0, make_page(b"repairme"))
            db.commit(txn)
        db.checkpoint()                 # page durable, marker at head
        addr = db.array.geometry.data_address(0)
        db.array.disks[addr.disk].corrupt(addr.slot)
        db.crash()
        stats = db.recover()
        assert stats["sectors_repaired"] == 1
        # the repair popped the marker, so restart replayed the page's
        # retained chain even though the marker had said "up to date"
        assert stats["redo_applied"] >= 1
        t = db.begin()
        if db.config.record_logging:
            assert db.read_record(t, 0, 0) == b"repairme"
        else:
            assert db.read_page(t, 0) == make_page(b"repairme")
        assert verify_database(db) == []


class TestFaultSweeps:
    """Exhaustive crash points under buffer pressure, so the schedule
    contains data writes (a pressureless REDO-only run is log-only)."""

    def test_pure_class_sweep_clean(self):
        def factory():
            return Database(preset("page-noforce-redo", group_size=4,
                                   num_groups=8, buffer_capacity=4,
                                   checkpoint_interval=2))
        ops = default_fault_workload(transactions=3, group_size=4)
        report = run_sweep(factory, ops)
        assert any(w.kind == "data" for w in report.schedule)
        assert report.clean, [str(v) for v in report.violations]
        assert report.counts["recovered"] == len(report.results)

    def test_hybrid_sweep_clean(self):
        def factory():
            return Database(preset("record-noforce-rda-redo", group_size=4,
                                   num_groups=10, buffer_capacity=4,
                                   checkpoint_interval=6))
        ops = record_fault_workload(transactions=3, group_size=4)
        report = run_sweep(factory, ops, setup=record_fault_setup(ops))
        assert any(w.kind == "data" for w in report.schedule)
        assert report.clean, [str(v) for v in report.violations]
        assert report.counts["recovered"] == len(report.results)
