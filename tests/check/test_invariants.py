"""The online invariant engine: clean runs stay clean, every mutant
is caught by its rule, and barriers fire where the protocol says."""

import pytest

from repro.check import (BufferModifierRule, DirtySetBoundRule,
                         InvariantEngine, LsnMonotonicityRule, MutantError,
                         ParityRule, SlottedPageRule, TwinPageLsnRule,
                         TwinParityIdentityRule, WalBeforeDataRule,
                         WorkingOwnerRule, WritebackNamedRule,
                         WriteBehindRule, default_rules, verify_database)
from repro.db import (Database, extended_preset_names, make_sharded,
                      preset)
from repro.db.recovery import named_pages
from repro.errors import InvalidTransactionState
from repro.sim import Simulator, WorkloadSpec
from repro.storage import TwinState, make_page
from repro.wal import AbortRecord, BOTRecord, CommitRecord


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
        assert db.array.barrier_hook == db.invariants.barrier

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

    def test_verify_database_on_recovered_db(self):
        db, _txn = dirty_db()
        db.crash()
        db.recover()
        assert verify_database(db) == []

    def test_default_rules_cover_all_eleven(self):
        names = {rule.name for rule in default_rules()}
        assert names == {"twin-parity-identity", "dirty-set-bound",
                         "wal-before-data", "lsn-monotonicity",
                         "write-behind", "twin-page-lsn", "working-owner",
                         "writeback-named", "parity", "buffer-modifiers",
                         "slotted-pages"}

    def test_whole_database_sweeps_cost_nothing_per_commit(self):
        for rule in (ParityRule(), BufferModifierRule(), SlottedPageRule()):
            assert rule.barriers == ("restart",)


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
    """The flip check takes a twin-header owner no longer active to have
    committed — the premise restart's ``Committed`` uses.  An owner a
    trim made the registry forget must neither raise a false alarm nor
    blind the rule."""

    @staticmethod
    def restolen_group():
        """Group 0 with two WORKING headers: a stale one whose
        committed owner a trim forgot (the trim leaves the header as it
        is), and the live steal of a second transaction."""
        db, first = dirty_db()
        db.commit(first)
        db.trim_log()
        second = db.begin()
        db.write_page(second, 0, make_page(b"stolen again"))
        db.buffer.flush_pages_of(second)
        owners = {db.array.peek_twin(0, which)[1].txn_id
                  for which in (0, 1)}
        assert owners == {first, second}
        with pytest.raises(InvalidTransactionState):
            db.txns.get(first)
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
        """A quiescent trim with no archive floor to keep drops the log
        before its anchor, the record the trim appended: the stamps on
        disk are below the retained log, and legal — the records they
        name are gone, not pending."""
        db = make_db("page-force-rda")
        for version in (b"a", b"b"):
            txn = db.begin()
            db.write_page(txn, 0, make_page(version))
            db.commit(txn)
        db.trim_log(archive_floor=1 << 62)
        log = db.redo_log
        assert log.base_lsn == log.anchor == log.durable_lsn > max(
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


class TestWorkingOwnerRule:
    """An anchored restart trusts a WORKING header whose owner finished
    before the checkpoint, so no WORKING header may name an abort."""

    # every twin preset: page / record × FORCE / ¬FORCE RDA, and the
    # REDO-only hybrid
    TWIN_PRESETS = ["page-force-rda", "page-noforce-rda", "record-force-rda",
                    "record-noforce-rda", "record-noforce-rda-redo"]

    @pytest.mark.parametrize("shards", [1, 2], ids=["k1", "k2"])
    @pytest.mark.parametrize("name", TWIN_PRESETS)
    def test_silent_through_work_and_crashes_and_its_mutant_is_caught(
            self, name, shards):
        config = preset(name, group_size=4, num_groups=8, buffer_capacity=6)
        db = (make_sharded(config, shards=shards, workers=False)
              if shards > 1 else Database(config))
        engine = InvariantEngine.attach(db)
        simulator = Simulator(db, WorkloadSpec(concurrency=3,
                                               pages_per_txn=4), seed=5)
        if simulator.record_mode:
            simulator.seed_records()
        simulator.run(24, crash_every=10)
        assert engine.barrier_counts["restart"] > 0
        assert engine.clean, [str(v) for v in engine.violations]
        target = db.shards[0] if shards > 1 else db

        def stolen_then_aborted():
            """An unlogged steal on the target, then its abort."""
            txn = db.begin()
            if simulator.record_mode:
                db.update_record(txn, 0, 0, b"stolen")
            else:
                db.write_page(txn, 0, make_page(b"stolen"))
            target.buffer.flush_pages_of(txn)
            assert target.rda.dirty_set.groups_of(txn)
            db.abort(txn)
            return txn

        # done right first: the group's current twin is COMMITTED, and
        # older than the steal the mutant leaves WORKING
        stolen_then_aborted()
        assert engine.clean, [str(v) for v in engine.violations]
        if db.checkpointer is not None:
            db.checkpoint()             # the anchor the trim cuts at
        detail = WorkingOwnerRule().mutate(target)
        txn = stolen_then_aborted()
        assert "working-owner" in kinds(engine.violations), detail
        # a trim leaves the aborted owner's WORKING header on disk, and
        # the rule still fires: from the abort record where the trim
        # keeps it (¬FORCE: it follows the anchor), and where a FORCE
        # trim dropped it, from the premise — wherever a restart would
        # trust the header.  A record-mode rollback rewrites the current
        # twin after the steal, so a restart would not
        db.trim_log()
        assert (TwinState.WORKING, txn) in {
            (header.state, header.txn_id) for header in
            (target.array.peek_twin(0, which)[1] for which in (0, 1))}
        found = WorkingOwnerRule().check(target, "restart", {})
        assert found or (simulator.record_mode
                         and db.config.force), detail

    def test_a_restart_demotes_its_losers_before_their_abort_records(self):
        db, thief = dirty_db("page-noforce-rda")
        db.crash()
        db.recover()
        assert thief in db.undo_log.txn_ids(AbortRecord)
        assert WorkingOwnerRule().check(db, "restart", {}) == []

    @pytest.mark.parametrize("name", ["page-noforce-rda",
                                      "record-noforce-rda"])
    def test_a_restart_checks_the_same_records_with_the_rules_attached(
            self, name):
        """The rule reads only the aborts since the anchor, so judging
        the restart's twin writes checks no record below it — nor does
        any other default rule but ``twin-page-lsn``, which judges a
        stamp against its page's whole history and so reads the whole
        log by design."""
        def crashed(engine):
            db = Database(preset(name, group_size=4, num_groups=8,
                                 buffer_capacity=6))
            if engine:
                InvariantEngine.attach(db, [
                    rule for rule in default_rules()
                    if not isinstance(rule, TwinPageLsnRule)])
            simulator = Simulator(db, WorkloadSpec(concurrency=3,
                                                   pages_per_txn=4), seed=5)
            if simulator.record_mode:
                simulator.seed_records()
            simulator.run(40)
            db.checkpoint()
            # a loser whose stolen pages the restart writes back, and a
            # winner whose force carries the anchor
            loser, winner = db.begin(), db.begin()
            for page in (0, 1, 2):
                if simulator.record_mode:
                    db.update_record(loser, page, 0, b"lost")
                else:
                    db.write_page(loser, page, make_page(b"lost"))
            db.buffer.flush_pages_of(loser)
            if simulator.record_mode:
                db.update_record(winner, 3, 0, b"won")
            else:
                db.write_page(winner, 3, make_page(b"won"))
            db.commit(winner)
            db.crash()
            return db

        plain, judged = crashed(False), crashed(True)
        before = judged.invariants.barrier_counts["twin_write"]
        stats = judged.recover()
        assert judged.invariants.barrier_counts["twin_write"] > before
        assert judged.invariants.clean
        assert judged.redo_log.anchor
        assert stats["log_records"] == plain.recover()["log_records"]

    def test_mutant_needs_twins(self):
        with pytest.raises(MutantError):
            WorkingOwnerRule().mutate(make_db("page-force-log"))


class TestWritebackNamedRule:
    """The restart scrub's bound: a data-then-parity write that changes
    a page lands on one the next restart would name."""

    # the five recovery classes, each on twin parity (RDA) and on single
    # parity
    CLASSES = ["page-force-rda", "page-force-log", "page-noforce-rda",
               "page-noforce-log", "record-force-rda", "record-force-log",
               "record-noforce-rda", "record-noforce-log",
               "record-noforce-rda-redo", "page-noforce-redo"]

    @pytest.mark.parametrize("shards", [1, 2], ids=["k1", "k2"])
    @pytest.mark.parametrize("name", CLASSES)
    def test_silent_through_work_and_crashes_and_its_mutant_is_caught(
            self, name, shards):
        config = preset(name, group_size=4, num_groups=8, buffer_capacity=6)
        db = (make_sharded(config, shards=shards, workers=False)
              if shards > 1 else Database(config))
        engine = InvariantEngine.attach(db)
        simulator = Simulator(db, WorkloadSpec(concurrency=3,
                                               pages_per_txn=4), seed=5)
        if simulator.record_mode:
            simulator.seed_records()
        simulator.run(24, crash_every=10)
        assert engine.barrier_counts["twin_write"] > 0
        assert engine.clean, [str(v) for v in engine.violations]
        target = db.shards[0] if shards > 1 else db
        if target.checkpointer is not None:
            target.checkpoint()         # ¬FORCE: its log names every page
        detail = WritebackNamedRule().mutate(target)
        assert "writeback-named" in kinds(engine.violations), detail

    def test_a_restore_writes_only_pages_its_log_names(self):
        db, _thief = TestTwinPageLsnRule.stamped_db("record-noforce-rda")
        winner = db.begin()
        db.update_record(winner, 0, 0, b"v2")
        db.commit(winner)
        db.crash()
        counts = db.invariants.barrier_counts
        before = counts["twin_write"]
        db.recover()
        assert counts["twin_write"] > before        # the restore wrote
        assert db.invariants.clean

    @pytest.mark.parametrize("name", CLASSES)
    def test_a_restart_decodes_the_same_with_the_rule_attached(self, name):
        """The rule asks the restart's own question, so judging the
        restore's writes decodes no record the restart would not."""
        def crashed(engine):
            db = Database(preset(name, group_size=4, num_groups=8,
                                 buffer_capacity=6))
            if engine:
                InvariantEngine.attach(db, [WritebackNamedRule()])
            simulator = Simulator(db, WorkloadSpec(concurrency=3,
                                                   pages_per_txn=4), seed=5)
            if simulator.record_mode:
                simulator.seed_records()
            simulator.run(40)
            # a loser whose stolen pages the restore writes back
            loser = db.begin()
            for page in (0, 1, 2):
                if simulator.record_mode:
                    db.update_record(loser, page, 0, b"lost")
                else:
                    db.write_page(loser, page, make_page(b"lost"))
            db.buffer.flush_pages_of(loser)
            db.crash()
            return db

        plain, judged = crashed(False), crashed(True)
        before = judged.invariants.barrier_counts["twin_write"]
        stats = judged.recover()
        assert judged.invariants.barrier_counts["twin_write"] > before
        assert judged.invariants.clean
        assert stats["log_decoded"] == plain.recover()["log_decoded"]

    def test_what_cannot_leave_a_hole_is_exempt(self):
        db = make_db("page-noforce-log")
        rule = WritebackNamedRule()
        assert 5 not in named_pages(db)
        assert rule.check(db, "twin_write", {"page": 5})
        assert rule.check(db, "twin_write", {"page": 5,
                                             "changed": False}) == []
        assert rule.check(db, "twin_write", {"page": 5,
                                             "twin_first": True}) == []

    def test_a_committed_page_is_named_until_the_next_checkpoint(self):
        db = make_db("page-noforce-rda")
        txn = db.begin()
        db.write_page(txn, 5, make_page(b"a"))
        db.commit(txn)
        assert 5 in named_pages(db)
        db.checkpoint()
        assert 5 not in named_pages(db)
        assert db.invariants.clean

    def test_the_mutant_needs_an_unnamed_page_off_the_buffer(self):
        db = make_db("page-force-log", group_size=2, num_groups=2)
        txn = db.begin()
        for page in range(db.num_data_pages):
            db.read_page(txn, page)
        with pytest.raises(MutantError):
            WritebackNamedRule().mutate(db)


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


def kinds(violations):
    return {violation.kind for violation in violations}


class TestVerifyDatabase:
    """The one-shot judge: clean wherever the engine is consistent, and
    each corruption of the whole-database sweeps is a mutant it flags."""

    CELLS = [(name, 1, False) for name in extended_preset_names()] + [
        ("record-noforce-rda", 2, False), ("record-noforce-rda", 2, True)]

    @pytest.mark.parametrize(
        "name,shards,workers", CELLS,
        ids=[name if shards == 1 else f"{name}@k{shards}"
             + ("-workers" if workers else "")
             for name, shards, workers in CELLS])
    def test_clean_through_work_a_live_steal_and_crashes(self, name, shards,
                                                          workers):
        config = preset(name, group_size=4, num_groups=8, buffer_capacity=6)
        db = (make_sharded(config, shards=shards, workers=workers)
              if shards > 1 else Database(config))
        try:
            assert verify_database(db) == []
            simulator = Simulator(db, WorkloadSpec(concurrency=3,
                                                   pages_per_txn=4),
                                  seed=5)
            if simulator.record_mode:
                simulator.seed_records()
            simulator.run(24, crash_every=10)
            assert verify_database(db) == []
            txn = db.begin()
            if simulator.record_mode:
                db.update_record(txn, 0, 0, b"in flight")
            else:
                db.write_page(txn, 0, make_page(b"in flight"))
            if shards == 1 and db.rda is not None:
                db.buffer.flush_pages_of(txn)   # unlogged: group dirty
            assert verify_database(db) == []
            db.crash()
            db.recover()
            assert verify_database(db) == []
        finally:
            if hasattr(db, "close"):
                db.close()

    @pytest.mark.parametrize("name", ["page-force-rda", "page-force-log",
                                      "page-force-raid6"])
    def test_parity_mutant_caught_on_every_array(self, name):
        db = make_db(name, engine=False)
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"x"))
        db.commit(txn)
        db.buffer.flush_all_dirty()
        ParityRule().mutate(db)
        assert kinds(verify_database(db)) == {"parity"}

    def test_lost_dirty_set_entry_caught(self):
        db, _txn = dirty_db()
        db.rda.dirty_set.clean(0)
        found = verify_database(db)
        assert kinds(found) == {"dirty-set-bound"}
        assert "has no Dirty_Set entry" in found[0].detail

    def test_duplex_divergence_caught(self):
        db = make_db(engine=False)
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"x"))
        db.commit(txn)
        db.undo_log.damage_copy(0, 0)
        found = verify_database(db)
        assert kinds(found) == {"log-shape"}
        assert "duplex" in found[0].detail

    def test_transaction_shape_caught(self):
        db = make_db(engine=False)
        for record in (BOTRecord(txn_id=77), BOTRecord(txn_id=77),
                       CommitRecord(txn_id=77), AbortRecord(txn_id=77)):
            db.undo_log.append(record)
        details = [v.detail for v in verify_database(db)
                   if v.kind == "log-shape"]
        assert len(details) == 2
        assert "BOT of txn 77 is not its first record" in details[0]
        assert "record after EOT for txn 77" in details[1]
        # the shape is judged where the log is whole, not per commit
        assert LsnMonotonicityRule().check(db, "commit", {}) == []

    def test_buffer_modifier_mutant_caught(self):
        db = make_db(engine=False)
        with pytest.raises(MutantError):
            BufferModifierRule().mutate(db)
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"x"))
        BufferModifierRule().mutate(db)
        found = verify_database(db)
        assert kinds(found) == {"buffer-modifiers"}
        assert f"finished txn {txn}" in found[0].detail

    def test_slotted_page_mutant_caught(self):
        db = make_db("record-force-rda", engine=False)
        db.format_record_pages(range(db.num_data_pages))
        assert verify_database(db) == []
        SlottedPageRule().mutate(db)
        found = [v for v in verify_database(db) if v.kind == "slotted-pages"]
        assert found and "page 0: unparseable" in found[0].detail
        with pytest.raises(MutantError):
            SlottedPageRule().mutate(make_db(engine=False))
