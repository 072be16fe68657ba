"""Tests for transactions and the transaction manager."""

import pytest

from repro.errors import InvalidTransactionState
from repro.txn import Transaction, TransactionManager, TxnState


@pytest.fixture
def tm():
    return TransactionManager()


class TestLifecycle:
    def test_begin_assigns_increasing_ids(self, tm):
        a, b = tm.begin(), tm.begin()
        assert b.txn_id == a.txn_id + 1
        assert a.is_active and b.is_active

    def test_commit(self, tm):
        txn = tm.begin()
        tm.finish(txn.txn_id, TxnState.COMMITTED)
        assert txn.state is TxnState.COMMITTED
        assert tm.get(txn.txn_id) is txn
        assert tm.active_transactions() == []

    def test_abort(self, tm):
        txn = tm.begin()
        tm.finish(txn.txn_id, TxnState.ABORTED)
        assert txn.state is TxnState.ABORTED
        assert tm.get(txn.txn_id) is txn
        assert tm.active_transactions() == []

    def test_finish_requires_active(self, tm):
        txn = tm.begin()
        tm.finish(txn.txn_id, TxnState.COMMITTED)
        with pytest.raises(InvalidTransactionState):
            tm.finish(txn.txn_id, TxnState.ABORTED)

    def test_finish_rejects_active_as_outcome(self, tm):
        txn = tm.begin()
        with pytest.raises(ValueError):
            tm.finish(txn.txn_id, TxnState.ACTIVE)

    def test_unknown_txn(self, tm):
        with pytest.raises(InvalidTransactionState):
            tm.get(999)

    def test_active_transactions_in_begin_order(self, tm):
        a, b, c = tm.begin(), tm.begin(), tm.begin()
        tm.finish(b.txn_id, TxnState.COMMITTED)
        assert tm.active_transactions() == [a, c]


class TestCrashBookkeeping:
    def test_lose_memory_clears_registry(self, tm):
        txn = tm.begin()
        tm.lose_memory()
        with pytest.raises(InvalidTransactionState):
            tm.get(txn.txn_id)

    def test_ids_keep_increasing_after_crash(self, tm):
        first = tm.begin()
        tm.lose_memory()
        assert tm.begin().txn_id > first.txn_id

    def test_adopt_restores_and_bumps_ids(self, tm):
        ghost = Transaction(txn_id=41)
        tm.adopt(ghost)
        assert tm.get(41) is ghost
        assert tm.begin().txn_id == 42


class TestTransactionBookkeeping:
    def test_note_read_write_steal(self):
        txn = Transaction(txn_id=1)
        txn.note_write(4)
        txn.note_steal(4)
        assert txn.pages_written == {4}
        assert txn.pages_stolen == {4}

    def test_record_write_implies_page_write(self):
        txn = Transaction(txn_id=1)
        txn.note_record_write(7, 2)
        assert (7, 2) in txn.records_written
        assert 7 in txn.pages_written

    def test_update_transaction_flag(self):
        txn = Transaction(txn_id=1)
        assert not txn.is_update_transaction
        txn.note_write(1)
        assert txn.is_update_transaction

    def test_must_commit_default_false(self):
        assert not Transaction(txn_id=1).must_commit
