"""Tests for the lock manager: modes, queues, upgrades, deadlocks."""

import gc

import pytest

from repro.errors import DeadlockError, LockError
from repro.txn import LockManager, LockMode

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


@pytest.fixture
def lm():
    return LockManager()


class TestGrants:
    def test_shared_locks_compatible(self, lm):
        assert lm.acquire(1, "r", S)
        assert lm.acquire(2, "r", S)
        assert lm.holds(1, "r", S) and lm.holds(2, "r", S)

    def test_exclusive_blocks_shared(self, lm):
        assert lm.acquire(1, "r", X)
        assert not lm.acquire(2, "r", S)
        assert not lm.holds(2, "r")

    def test_shared_blocks_exclusive(self, lm):
        assert lm.acquire(1, "r", S)
        assert not lm.acquire(2, "r", X)

    def test_reacquire_held_lock(self, lm):
        assert lm.acquire(1, "r", X)
        assert lm.acquire(1, "r", X)
        assert lm.acquire(1, "r", S)    # X covers S

    def test_distinct_resources_independent(self, lm):
        assert lm.acquire(1, "a", X)
        assert lm.acquire(2, "b", X)

    def test_holds_mode_semantics(self, lm):
        lm.acquire(1, "r", S)
        assert lm.holds(1, "r", S)
        assert not lm.holds(1, "r", X)

    def test_locks_of(self, lm):
        lm.acquire(1, "a", S)
        lm.acquire(1, "b", X)
        assert lm.locks_of(1) == ["a", "b"]


class TestUpgrades:
    def test_sole_holder_upgrade(self, lm):
        lm.acquire(1, "r", S)
        assert lm.acquire(1, "r", X)
        assert lm.holds(1, "r", X)

    def test_contended_upgrade_queues(self, lm):
        lm.acquire(1, "r", S)
        lm.acquire(2, "r", S)
        assert not lm.acquire(1, "r", X)
        grants = lm.release_all(2)
        assert any(g.txn_id == 1 and g.mode is X for g in grants)
        assert lm.holds(1, "r", X)


class TestQueueing:
    def test_fifo_promotion(self, lm):
        lm.acquire(1, "r", X)
        assert not lm.acquire(2, "r", X)
        assert not lm.acquire(3, "r", X)
        grants = lm.release_all(1)
        assert [g.txn_id for g in grants] == [2]
        grants = lm.release_all(2)
        assert [g.txn_id for g in grants] == [3]

    def test_shared_waiters_promoted_together(self, lm):
        lm.acquire(1, "r", X)
        lm.acquire(2, "r", S)
        lm.acquire(3, "r", S)
        grants = lm.release_all(1)
        assert sorted(g.txn_id for g in grants) == [2, 3]

    def test_waiter_does_not_jump_queue(self, lm):
        """A shared request behind a queued exclusive must wait (no
        starvation of the X waiter)."""
        lm.acquire(1, "r", S)
        assert not lm.acquire(2, "r", X)
        assert not lm.acquire(3, "r", S)
        grants = lm.release_all(1)
        assert [g.txn_id for g in grants] == [2]

    def test_release_single(self, lm):
        lm.acquire(1, "r", X)
        lm.release(1, "r")
        assert lm.acquire(2, "r", X)

    def test_release_unheld_raises(self, lm):
        with pytest.raises(LockError):
            lm.release(1, "r")

    def test_release_all_clears_waits(self, lm):
        lm.acquire(1, "r", X)
        lm.acquire(2, "r", X)
        assert lm.waiting(2)
        lm.release_all(2)
        assert not lm.waiting(2)
        lm.release_all(1)
        assert lm.acquire(3, "r", X)


class TestDeadlock:
    def test_two_party_cycle(self, lm):
        lm.acquire(1, "a", X)
        lm.acquire(2, "b", X)
        assert not lm.acquire(1, "b", X)
        with pytest.raises(DeadlockError) as info:
            lm.acquire(2, "a", X)
        assert info.value.txn_id == 2
        assert set(info.value.cycle) == {1, 2}

    def test_three_party_cycle(self, lm):
        for txn, res in ((1, "a"), (2, "b"), (3, "c")):
            lm.acquire(txn, res, X)
        assert not lm.acquire(1, "b", X)
        assert not lm.acquire(2, "c", X)
        with pytest.raises(DeadlockError):
            lm.acquire(3, "a", X)

    def test_victim_request_not_queued(self, lm):
        lm.acquire(1, "a", X)
        lm.acquire(2, "b", X)
        lm.acquire(1, "b", X)
        with pytest.raises(DeadlockError):
            lm.acquire(2, "a", X)
        # victim can still release and let 1 proceed
        grants = lm.release_all(2)
        assert any(g.txn_id == 1 for g in grants)

    def test_a_deadlock_check_leaves_no_garbage(self, lm):
        """A request that has to wait runs the cycle search; it must
        leave nothing behind that only the cyclic collector frees."""
        for txn, res in ((1, "a"), (2, "b"), (3, "c")):
            lm.acquire(txn, res, X)
        assert not lm.acquire(1, "b", X)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert not lm.acquire(2, "c", X)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_no_false_positive(self, lm):
        lm.acquire(1, "a", X)
        lm.acquire(2, "b", X)
        assert not lm.acquire(1, "b", X)   # 1 waits on 2; no cycle
        assert lm.waiting(1)

    def test_wait_for_graph_shape(self, lm):
        lm.acquire(1, "a", X)
        lm.acquire(2, "a", X)
        graph = lm.wait_for_graph()
        assert graph == {2: {1}}
