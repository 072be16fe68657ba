"""History independence of the transaction registry: what it holds,
what it costs and which ids it accepts depend on live work only —
never on how many transactions have already finished.  Count-based;
no wall clock."""

import os
import tracemalloc

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.db import Database, ShardedDatabase, preset
from repro.errors import InvalidTransactionState
from repro.sim import Simulator, WorkloadSpec
from repro.storage import make_page
from repro.txn import Transaction, TransactionManager, TxnState

TXN_SOURCES = os.path.join("repro", "txn", "")


def txn_bytes() -> int:
    """Live bytes allocated by, or on behalf of, ``src/repro/txn/``."""
    return sum(trace.size for trace in tracemalloc.take_snapshot().traces
               if any(TXN_SOURCES in frame.filename
                      for frame in trace.traceback))


@pytest.mark.parametrize("name", ["page-force-rda", "page-noforce-rda"])
def test_registry_holds_only_live_work(name):
    db = Database(preset(name, group_size=5, num_groups=20,
                         buffer_capacity=32))
    pages = db.num_data_pages
    elders, finished, at_2000 = [], [], None
    for n in range(1, 4001):
        if n == 2000:
            tracemalloc.start(2)
        if not elders:
            # two long-runners straddle the trims: forgetting spares them
            elders = [db.begin(), db.begin()]
            for txn, page in zip(elders, (pages - 1, pages - 2)):
                db.write_page(txn, page, make_page(b"elder"))
        txn = db.begin()
        db.write_page(txn, n % (pages - 2), make_page(b"v%d" % n))
        if n % 50 == 0:
            db.abort(txn)
        else:
            db.commit(txn)
        finished.append(txn)
        if n % 125:
            continue
        straddler = db.begin()
        if db.checkpointer is not None:
            db.checkpoint()
        db.trim_log()
        live = elders + [straddler]
        assert [t.txn_id for t in db.txns.active_transactions()] == live
        assert db.statistics()["active_transactions"] == 3
        for txn_id in finished:
            with pytest.raises(InvalidTransactionState):
                db.txns.get(txn_id)
        db.commit(straddler)
        finished = [straddler]
        if n % 1000:
            continue
        # a quiescent trim with no archive copy to roll forward from
        # lets a FORCE engine drop its redo log too, whose records are
        # what keeps the finished ids' int objects alive
        for txn in elders:
            db.commit(txn)
        finished += elders
        elders = []
        db.trim_log(archive_floor=db.redo_log.last_lsn)
        assert db.txns.active_transactions() == []
        if n == 2000:
            at_2000 = txn_bytes()
    grown = txn_bytes() - at_2000
    tracemalloc.stop()
    assert grown < 64 * 1024
    assert db.verify_parity() == []


class TestIdsAreAcceptedOnce:
    def test_manager_rejects_a_forgotten_id(self):
        tm = TransactionManager()
        tm.begin(txn_id=7)
        tm.finish(7, TxnState.COMMITTED)
        with pytest.raises(InvalidTransactionState):
            tm.begin(txn_id=7)          # finished, still remembered
        tm.forget_finished()
        with pytest.raises(InvalidTransactionState):
            tm.begin(txn_id=7)          # forgotten, still spent
        assert tm.begin(txn_id=8).txn_id == 8

    def test_manager_rejects_a_pre_crash_id(self):
        tm = TransactionManager()
        tm.begin(txn_id=7)
        tm.lose_memory()
        with pytest.raises(InvalidTransactionState):
            tm.begin(txn_id=7)

    def test_database_rejects_a_pinned_id_after_trim(self):
        db = Database(preset("page-force-rda", group_size=4, num_groups=8,
                             buffer_capacity=8))
        txn = db.begin(txn_id=40)
        db.write_page(txn, 0, make_page(b"once"))
        db.buffer.flush_pages_of(txn)       # stamps a twin header with 40
        db.commit(txn)
        db.trim_log()
        with pytest.raises(InvalidTransactionState):
            db.begin(txn_id=40)
        assert db.begin() == 41

    @pytest.mark.parametrize("shards", [2, 4])
    def test_every_shard_rejects_a_pinned_id_after_trim(self, shards):
        db = ShardedDatabase(preset("page-force-rda", group_size=4,
                                    num_groups=8, buffer_capacity=8),
                             shards=shards)
        txn = db.begin(txn_id=40)
        db.write_page(txn, 0, make_page(b"once"))
        db.commit(txn)
        db.trim_log()
        with pytest.raises(InvalidTransactionState):
            db.begin(txn_id=40)
        for shard in db.shards:
            with pytest.raises(InvalidTransactionState):
                shard.begin(txn_id=40)
        # the refused begin registered nothing anywhere
        assert db.txns.active_transactions() == []
        assert db.begin() == 41


class RegistryMachine(RuleBasedStateMachine):
    """The registry against a brute-force model that remembers every
    transaction ever accepted."""

    def __init__(self):
        super().__init__()
        self.tm = TransactionManager()
        self.history = []           # every accepted Transaction, in order
        self.lost = set()           # ids whose registration a crash erased
        self.spent_below = 1        # model of the documented floor

    def _accept(self, txn):
        assert txn.txn_id not in {t.txn_id for t in self.history}
        self.history.append(txn)

    def _model_active(self):
        return [t for t in self.history
                if t.is_active and t.txn_id not in self.lost]

    @rule()
    def begin(self):
        self._accept(self.tm.begin())

    @rule(txn_id=st.integers(min_value=1, max_value=60))
    def begin_pinned(self, txn_id):
        spent = (txn_id < self.spent_below
                 or txn_id in {t.txn_id for t in self.history})
        if spent:
            with pytest.raises(InvalidTransactionState):
                self.tm.begin(txn_id=txn_id)
        else:
            self._accept(self.tm.begin(txn_id=txn_id))

    @precondition(lambda self: self._model_active())
    @rule(data=st.data(), commit=st.booleans())
    def finish(self, data, commit):
        txn = data.draw(st.sampled_from(self._model_active()))
        self.tm.finish(txn.txn_id, TxnState.COMMITTED if commit
                       else TxnState.ABORTED)
        assert self.tm.get(txn.txn_id) is txn
        assert txn.state is (TxnState.COMMITTED if commit
                             else TxnState.ABORTED)
        assert txn not in self.tm.active_transactions()

    @rule()
    def forget(self):
        gone = [t.txn_id for t in self.history
                if not t.is_active and t.txn_id not in self.lost]
        self.tm.forget_finished()
        for txn_id in gone:
            self.lost.add(txn_id)
            self.spent_below = max(self.spent_below, txn_id + 1)
            with pytest.raises(InvalidTransactionState):
                self.tm.get(txn_id)

    @rule()
    def anchor(self):
        active = self.tm.active_transactions()
        table, next_id = self.tm.anchor_table()
        assert table == active
        # every id under the anchor's ceiling is spent from here on
        self.spent_below = max(self.spent_below, next_id)

    @rule()
    def lose_memory(self):
        self.tm.lose_memory()
        self.lost = {t.txn_id for t in self.history}
        self.spent_below = max([self.spent_below]
                               + [txn_id + 1 for txn_id in self.lost])

    @rule(active=st.booleans())
    def adopt(self, active):
        # restart analysis re-registers ids it read from the log, which
        # are always past everything the registry has issued since
        txn_id = max([self.spent_below]
                     + [t.txn_id + 1 for t in self.history])
        txn = Transaction(txn_id=txn_id, state=TxnState.ACTIVE if active
                          else TxnState.COMMITTED)
        self.tm.adopt(txn)
        self._accept(txn)

    @invariant()
    def active_index_matches_the_brute_force_filter(self):
        assert self.tm.active_transactions() == self._model_active()
        for txn in self._model_active():
            assert self.tm.get(txn.txn_id) is txn
            assert self.tm.require_active(txn.txn_id) is txn


TestRegistryMachine = RegistryMachine.TestCase


@pytest.mark.parametrize("name", ["page-noforce-rda", "record-noforce-rda"])
def test_restart_checks_the_work_since_the_checkpoint_not_history(name):
    """4 000 transactions, a checkpoint about every 60, no trim: the log
    grows with history, but analysis starts at the anchor, so the last
    restart checks as many records as the first — far fewer than the
    log retains.  Each crash leaves two transactions in flight, begun
    since the checkpoint, with their pages stolen."""
    db = Database(preset(name, group_size=5, num_groups=20,
                         buffer_capacity=16))
    record_mode = db.config.record_logging
    pages = db.num_data_pages
    if record_mode:
        Simulator(db, WorkloadSpec()).seed_records()

    def write(txn, page, n):
        if record_mode:
            db.update_record(txn, page, 0, b"v%d" % n)
        else:
            db.write_page(txn, page, make_page(b"v%d" % n))

    restarts = []
    for n in range(1, 4001):
        txn = db.begin()
        write(txn, n % (pages - 2), n)
        db.commit(txn)
        if n % 60 == 0:
            db.checkpoint()
        if n in (1050, 3990):
            for page in (pages - 1, pages - 2):
                in_flight = db.begin()
                write(in_flight, page, n)
                db.buffer.flush_pages_of(in_flight)
            db.crash()
            restarts.append(db.recover())
            assert db.undo_log.anchor
    first, last = restarts
    assert len(first["losers"]) == len(last["losers"]) == 2
    assert last["log_records"] <= 1.5 * first["log_records"]
    retained = db.undo_log.next_lsn - db.undo_log.base_lsn
    assert 20 * last["log_records"] < retained
    assert db.verify_parity() == []


def test_a_force_restart_checks_the_work_since_the_trim_not_history():
    """4 000 FORCE transactions, a trim about every 60 with no archive
    floor: the redo log keeps every commit record for media recovery,
    but each trim appends the restart anchor, so the last restart checks
    about as many records as the first — far fewer than the redo log
    retains.  Each crash leaves two transactions in flight, begun since
    the trim, with their pages stolen."""
    db = Database(preset("page-force-rda", group_size=5, num_groups=20,
                         buffer_capacity=16))
    pages = db.num_data_pages
    restarts = []
    for n in range(1, 4001):
        txn = db.begin()
        db.write_page(txn, n % (pages - 2), make_page(b"v%d" % n))
        db.commit(txn)
        if n % 60 == 0:
            db.trim_log()
        if n in (1050, 3990):
            for page in (pages - 1, pages - 2):
                in_flight = db.begin()
                db.write_page(in_flight, page, make_page(b"v%d" % n))
                db.buffer.flush_pages_of(in_flight)
            db.crash()
            restarts.append(db.recover())
            assert db.redo_log.anchor
    first, last = restarts
    assert len(first["losers"]) == len(last["losers"]) == 2
    assert last["log_records"] <= 2 * first["log_records"]
    retained = db.redo_log.next_lsn - db.redo_log.base_lsn
    assert 20 * last["log_records"] < retained
    assert db.verify_parity() == []
