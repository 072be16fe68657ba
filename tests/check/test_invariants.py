"""The online invariant engine: clean runs stay clean, every mutant
is caught by its rule, and barriers fire where the protocol says."""

import pytest

from repro.check import (DirtySetBoundRule, InvariantEngine,
                         LsnMonotonicityRule, MutantError, TwinPageLsnRule,
                         TwinParityIdentityRule, WalBeforeDataRule,
                         WriteBehindRule, check_restart, default_rules)
from repro.db import Database, preset
from repro.storage import make_page


def make_db(name="page-force-rda", engine=True, **kw):
    defaults = dict(group_size=5, num_groups=12, buffer_capacity=8)
    defaults.update(kw)
    db = Database(preset(name, **defaults))
    if engine:
        InvariantEngine.attach(db)
    return db


def dirty_db(name="page-force-rda"):
    """A database with one unlogged-stolen page (dirty group 0)."""
    db = make_db(name)
    txn = db.begin()
    db.write_page(txn, 0, make_page(b"stolen"))
    db.buffer.flush_pages_of(txn)
    assert db.rda.dirty_set.is_dirty(0)
    return db, txn


class TestEngineWiring:
    def test_attach_sets_hooks(self):
        db = make_db()
        assert db.invariants is not None
        assert db.rda.barrier_hook == db.invariants.barrier
        assert db.array.barrier_hook == db.invariants.barrier

    def test_attach_without_rda(self):
        db = make_db("page-force-log")
        assert db.invariants is not None

    def test_unknown_barrier_rejected(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.invariants.barrier("teatime")

    def test_barriers_fire_through_a_transaction(self):
        db, txn = dirty_db()
        db.commit(txn)
        counts = db.invariants.barrier_counts
        assert counts["steal"] >= 1
        assert counts["twin_write"] >= 1
        assert counts["flip"] >= 1
        assert counts["commit"] == 1
        assert db.invariants.clean
        db.invariants.assert_clean()

    def test_restart_barrier_fires(self):
        db, _txn = dirty_db()
        db.crash()
        db.recover()
        assert db.invariants.barrier_counts["restart"] == 1
        assert db.invariants.clean

    def test_checkpoint_barrier_fires(self):
        db = make_db("page-noforce-rda")
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"a"))
        db.commit(txn)
        db.checkpoint()
        assert db.invariants.barrier_counts["checkpoint"] == 1
        assert db.invariants.clean

    def test_abort_barrier_fires(self):
        db, txn = dirty_db()
        db.abort(txn)
        assert db.invariants.barrier_counts["abort"] == 1
        assert db.invariants.clean

    def test_assert_clean_raises_on_violation(self):
        db, _txn = dirty_db()
        TwinParityIdentityRule().mutate(db)
        db.invariants.barrier("commit", txn=0)
        with pytest.raises(AssertionError):
            db.invariants.assert_clean()

    def test_check_restart_on_recovered_db(self):
        db, _txn = dirty_db()
        db.crash()
        db.recover()
        assert check_restart(db) == []

    def test_default_rules_cover_all_six(self):
        names = {rule.name for rule in default_rules()}
        assert names == {"twin-parity-identity", "dirty-set-bound",
                         "wal-before-data", "lsn-monotonicity",
                         "write-behind", "twin-page-lsn"}


class TestTwinParityIdentityRule:
    def test_clean_dirty_group_passes(self):
        db, _txn = dirty_db()
        assert TwinParityIdentityRule().check(db, "commit", {}) == []

    def test_mutant_caught(self):
        db, _txn = dirty_db()
        rule = TwinParityIdentityRule()
        rule.mutate(db)
        found = rule.check(db, "commit", {})
        assert found
        assert all(v.kind == "twin-parity-identity" for v in found)

    def test_mutant_caught_at_next_live_barrier(self):
        # while the group is still dirty, any commit barrier re-checks
        # the identity and catches the corruption
        db, txn = dirty_db()
        TwinParityIdentityRule().mutate(db)
        other = db.begin()
        db.write_page(other, 30, make_page(b"elsewhere"))
        db.commit(other)
        assert not db.invariants.clean
        assert db.rda.dirty_set.is_dirty(0)     # victim group untouched

    def test_mutant_needs_a_dirty_group(self):
        db = make_db()
        with pytest.raises(MutantError):
            TwinParityIdentityRule().mutate(db)

    def test_header_disagreement_caught(self):
        db, _txn = dirty_db()
        entry = db.rda.dirty_set.entries()[0]
        _p, header = db.array.peek_twin(entry.group, entry.working_twin)
        db.array.rewrite_twin_header(entry.group, entry.working_twin,
                                     header.with_(txn_id=999))
        found = TwinParityIdentityRule().check(db, "commit", {})
        assert any("header" in v.detail for v in found)


class TestFlipWithForgottenOwner:
    """The flip check asks the registry about the two twin-header
    owners only.  An owner the registry has forgotten must neither
    raise a false alarm nor blind the rule."""

    @staticmethod
    def restolen_group():
        """Group 0 with two WORKING headers: a stale one whose
        committed owner is already forgotten (no trim, so no seal), and
        the live steal of a second transaction."""
        db, first = dirty_db()
        db.commit(first)
        db.txns.forget_finished()
        second = db.begin()
        db.write_page(second, 0, make_page(b"stolen again"))
        db.buffer.flush_pages_of(second)
        owners = {db.array.peek_twin(0, which)[1].txn_id
                  for which in (0, 1)}
        assert owners == {first, second}
        assert not db.txns.is_committed(first)
        return db, second

    def test_clean_flip_raises_no_alarm(self):
        db, second = self.restolen_group()
        db.commit(second)
        assert db.invariants.barrier_counts["flip"] == 2
        assert db.invariants.clean

    def test_mutant_still_caught_at_the_flip_barrier(self):
        db, second = self.restolen_group()
        TwinParityIdentityRule().mutate(db)
        found = db.invariants.barrier("flip", group=0, txn=second)
        assert found and not db.invariants.clean

    def test_wrong_flip_still_caught(self):
        db, second = self.restolen_group()
        db.commit(second)
        db.rda._current[0] = 1 - db.rda.current_twin(0)
        found = TwinParityIdentityRule()._check_flip(
            db, {"group": 0, "txn": second})
        assert {v.kind for v in found} == {"twin-flip-order"}


class TestDirtySetBoundRule:
    def test_clean_dirty_group_passes(self):
        db, _txn = dirty_db()
        assert DirtySetBoundRule().check(db, "commit", {}) == []

    def test_mutant_caught(self):
        db, _txn = dirty_db()
        rule = DirtySetBoundRule()
        rule.mutate(db)
        found = rule.check(db, "commit", {})
        assert found
        assert all(v.kind == "dirty-set-bound" for v in found)

    def test_mutant_needs_a_dirty_group(self):
        db = make_db()
        with pytest.raises(MutantError):
            DirtySetBoundRule().mutate(db)

    def test_no_rda_is_vacuously_clean(self):
        db = make_db("page-force-log")
        assert DirtySetBoundRule().check(db, "commit", {}) == []


class TestWalBeforeDataRule:
    def test_logged_steal_passes(self):
        db = make_db("page-force-log")
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"a"))
        db.buffer.flush_pages_of(txn)   # logged steal, force intact
        assert db.invariants.clean
        assert db.invariants.barrier_counts["steal"] >= 1

    def test_mutant_caught(self):
        db = make_db("page-force-log")
        WalBeforeDataRule().mutate(db)
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"a"))
        db.buffer.flush_pages_of(txn)
        assert any(v.kind == "wal-before-data"
                   for v in db.invariants.violations)

    def test_mutant_caught_in_record_mode(self):
        db = make_db("record-noforce-log")
        db.format_record_pages(range(4))
        WalBeforeDataRule().mutate(db)
        txn = db.begin()
        db.insert_record(txn, 0, b"x")
        db.buffer.flush_pages_of(txn)
        assert any(v.kind == "wal-before-data"
                   for v in db.invariants.violations)

    def test_unlogged_steal_covered_by_dirty_set(self):
        db, _txn = dirty_db()
        assert not [v for v in db.invariants.violations
                    if v.kind == "wal-before-data"]


class TestWriteBehindRule:
    def redo_db(self, name="page-noforce-redo", **kw):
        """A REDO-only database with one committed page flushed to disk
        (so ``_durable_page_lsn`` has a marker to judge)."""
        db = make_db(name, checkpoint_interval=None, **kw)
        txn = db.begin()
        if db.config.record_logging:
            db.format_record_pages([0])
            db.insert_record(txn, 0, b"chained")
        else:
            db.write_page(txn, 0, make_page(b"chained"))
        db.commit(txn)
        db.checkpoint()
        return db

    def test_vacuous_outside_redo_only(self):
        db, _txn = dirty_db()
        assert WriteBehindRule().check(db, "commit", {}) == []

    def test_clean_checkpointed_run_passes(self):
        for name in ("page-noforce-redo", "record-noforce-rda-redo"):
            db = self.redo_db(name)
            assert db._durable_page_lsn        # the marker is being judged
            assert WriteBehindRule().check(db, "checkpoint", {}) == []
            assert db.invariants.clean

    def test_mutant_caught(self):
        db = self.redo_db()
        rule = WriteBehindRule()
        rule.mutate(db)
        found = rule.check(db, "checkpoint", {})
        assert found
        assert all(v.kind == "write-behind" for v in found)

    def test_mutant_refuses_undo_logging_classes(self):
        db, _txn = dirty_db()
        with pytest.raises(MutantError):
            WriteBehindRule().mutate(db)

    def test_mutant_needs_a_flushed_page(self):
        db = make_db("page-noforce-redo", checkpoint_interval=None)
        with pytest.raises(MutantError):
            WriteBehindRule().mutate(db)

    def test_pure_class_steal_flagged(self):
        db = self.redo_db()
        found = WriteBehindRule().check(db, "steal",
                                        {"page": 3, "logged": False,
                                         "txns": {1}})
        assert any("stolen under the pure" in v.detail for v in found)

    def test_logged_steal_flagged_under_hybrid(self):
        db = self.redo_db("record-noforce-rda-redo")
        found = WriteBehindRule().check(db, "steal",
                                        {"page": 3, "logged": True,
                                         "txns": {1}})
        assert any("logged undo records" in v.detail for v in found)


class TestTwinPageLsnRule:
    """The page LSNs on the twin headers never claim more than the disk
    holds (PR 23)."""

    @staticmethod
    def stamped_db(name="record-noforce-rda"):
        """Pages 0 and 1 (group 0) committed and flushed, so the current
        twin vouches for both records; page 1 then stolen unlogged by an
        active transaction: group 0 is dirty."""
        db = make_db(name)
        db.format_record_pages(range(db.num_data_pages))
        setup = db.begin()
        slots = {page: db.insert_record(setup, page, b"v0")
                 for page in (0, 1)}
        db.commit(setup)
        for page in slots:
            assert db.buffer.flush_page(page)
        thief = db.begin()
        db.update_record(thief, 1, slots[1], b"v1")
        assert db.buffer.flush_page(1)
        assert db.rda.dirty_set.is_dirty(0)
        return db, thief

    def test_a_stamped_run_is_clean_at_every_barrier(self):
        db, thief = self.stamped_db()
        current = db.array.peek_twin(0, db.rda.current_twin(0))[1]
        assert current.page_lsns[0] > 0          # something is judged
        db.abort(thief)
        db.checkpoint()
        db.crash()
        db.recover()
        counts = db.invariants.barrier_counts
        assert all(counts[name] for name in ("twin_write", "steal", "abort",
                                             "checkpoint", "restart"))
        assert db.invariants.clean

    def test_an_entry_past_the_durable_lsn_is_caught(self):
        db, _thief = self.stamped_db()
        rule = TwinPageLsnRule()
        assert rule.check(db, "checkpoint", {}) == []
        rule.mutate(db)
        found = rule.check(db, "checkpoint", {})
        assert found and all(v.kind == "twin-page-lsn" for v in found)
        assert "beyond the redo log" in found[0].detail

    def test_an_entry_the_trimmed_log_once_issued_is_not(self):
        """A quiescent trim empties the log and resets its forced LSN:
        the stamps on disk are above it, and legal — the records they
        name are gone, not pending."""
        db = make_db("page-force-rda")
        for version in (b"a", b"b"):
            txn = db.begin()
            db.write_page(txn, 0, make_page(version))
            db.commit(txn)
        db.trim_log(archive_floor=1 << 62)
        assert db.redo_log.durable_lsn == 0 < max(
            db.array.peek_twin(0, db.rda.current_twin(0))[1].page_lsns)
        assert TwinPageLsnRule().check(db, "checkpoint", {}) == []

    def test_a_one_sided_stamp_in_a_dirty_group_is_caught(self):
        db, _thief = self.stamped_db()
        rule = TwinPageLsnRule()
        rule.mutate_one_sided_stamp(db)
        found = rule.check(db, "steal", {})
        assert found and all("twins disagree" in v.detail for v in found)

    def test_the_real_dirty_group_write_stamps_both_twins(self):
        """The write the mutant imitates, done right: a logged steal of
        page 0 into the dirty group (two modifiers, so the twins cannot
        cover it) stamps both twins."""
        db, thief = self.stamped_db()
        setup = db.begin()
        second = db.insert_record(setup, 0, b"v0")
        db.commit(setup)
        db.update_record(thief, 0, 0, b"t1")
        db.update_record(db.begin(), 0, second, b"t2")
        before = [db.array.peek_twin(0, which)[1].page_lsns[0]
                  for which in (0, 1)]
        assert db.buffer.flush_page(0)
        after = [db.array.peek_twin(0, which)[1].page_lsns[0]
                 for which in (0, 1)]
        assert after[0] == after[1] == db.redo_log.forced_lsn > max(before)
        assert db.invariants.clean

    def test_a_stamp_the_disk_does_not_back_is_caught(self):
        """The current twin vouches for page 0's committed record; put
        the page's older bytes back under it."""
        db, thief = self.stamped_db()
        db.abort(thief)
        rule = TwinPageLsnRule()
        assert rule.check(db, "restart", {}) == []
        addr = db.array.geometry.data_address(0)
        empty = make_db("record-noforce-rda", engine=False)
        empty.format_record_pages([0])
        db.array.disks[addr.disk].write(addr.slot, empty.disk_page(0))
        found = rule.check(db, "restart", {})
        assert [v.detail for v in found if "disk lacks" in v.detail]

    def test_mutants_need_their_state(self):
        with pytest.raises(MutantError):
            TwinPageLsnRule().mutate(make_db("page-force-log"))
        with pytest.raises(MutantError):
            TwinPageLsnRule().mutate_one_sided_stamp(make_db())


class TestLsnMonotonicityRule:
    def test_clean_log_passes(self):
        db, txn = dirty_db()
        db.commit(txn)
        assert LsnMonotonicityRule().check(db, "commit", {}) == []

    def test_mutant_caught(self):
        db = make_db("page-force-log")
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"a"))
        db.write_page(txn, 1, make_page(b"b"))
        db.buffer.flush_pages_of(txn)
        rule = LsnMonotonicityRule()
        rule.mutate(db)
        found = rule.check(db, "commit", {})
        assert found
        assert all(v.kind == "lsn-monotonicity" for v in found)

    def test_mutant_needs_records(self):
        db = make_db()
        with pytest.raises(MutantError):
            LsnMonotonicityRule().mutate(db)

    def test_survives_crash_reconciliation(self):
        db = make_db("page-noforce-log")
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"a"))
        db.commit(txn)
        db.crash()
        db.recover()
        assert db.invariants.clean
