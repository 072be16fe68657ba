"""Property tests for the lock manager.

A model-based mirror tracks holders and queues using only the public
API's observable results (True returns, :class:`Grant` lists,
:class:`DeadlockError`), then asserts after every step:

* granted locks are pairwise compatible (never S+X or X+X);
* promotions after a release form a FIFO queue *prefix* — no waiter
  is granted while an earlier incompatible waiter still queues;
* deadlock detection is complete and sound against a brute-force
  reachability check of the wait-for graph;
* who a new request would queue behind (``blockers``) is what the
  mirror says.

The fixed cases at the end pin grant order through both release paths
(a releaser queued nowhere, and one still queued elsewhere).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, LockError
from repro.txn import Grant, LockManager, LockMode

TXNS = st.integers(min_value=1, max_value=5)
RESOURCES = st.sampled_from(["a", "b", "c"])
MODES = st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), TXNS, RESOURCES, MODES),
        st.tuples(st.just("release_all"), TXNS),
    ),
    min_size=1, max_size=40)


def _compatible(a: LockMode, b: LockMode) -> bool:
    return a is LockMode.SHARED and b is LockMode.SHARED


class Mirror:
    """Holder/queue bookkeeping rebuilt from observable outcomes."""

    def __init__(self):
        self.holders = {}   # resource -> {txn: mode}
        self.queues = {}    # resource -> [(txn, mode)]

    def note_grant(self, txn, resource, mode):
        self.holders.setdefault(resource, {})[txn] = mode

    def note_enqueue(self, txn, resource, mode):
        self.queues.setdefault(resource, []).append((txn, mode))

    def note_release_all(self, txn, grants):
        for resource, held in self.holders.items():
            held.pop(txn, None)
        for resource, queue in self.queues.items():
            self.queues[resource] = [(t, m) for t, m in queue if t != txn]
        for grant in grants:
            queue = self.queues.get(grant.resource, [])
            assert (grant.txn_id, grant.mode) in queue or any(
                t == grant.txn_id for t, _ in queue), \
                f"grant {grant} was never enqueued"
            self.queues[grant.resource] = [
                (t, m) for t, m in queue if t != grant.txn_id]
            self.holders.setdefault(grant.resource, {})[grant.txn_id] = \
                grant.mode

    def blockers(self, resource):
        """Who a new request on ``resource`` would queue behind."""
        return set(self.holders.get(resource, ())) | {
            t for t, _m in self.queues.get(resource, ())}

    def check_compatibility(self):
        for resource, held in self.holders.items():
            modes = list(held.values())
            if len(modes) > 1:
                assert all(m is LockMode.SHARED for m in modes), \
                    f"incompatible holders on {resource!r}: {held}"

    def check_fifo_prefix(self, resource):
        """No queued waiter compatible with the holders may sit *ahead*
        of the queue head — promotion always drains a prefix."""
        queue = self.queues.get(resource, [])
        held = self.holders.get(resource, {})
        if not queue:
            return
        head_txn, head_mode = queue[0]
        if head_txn not in held:
            compatible = all(_compatible(h, head_mode)
                             for h in held.values())
            assert not compatible, (
                f"head waiter {head_txn} on {resource!r} is compatible "
                f"with holders {held} but was not promoted")


def brute_force_cycle(graph, start):
    """Is ``start`` on a cycle in the wait-for graph? (DFS reachability
    back to start.)"""
    stack, seen = [start], set()
    while stack:
        node = stack.pop()
        for succ in graph.get(node, ()):
            if succ == start:
                return True
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False


@given(STEPS)
@settings(max_examples=200)
def test_lock_manager_properties(steps):
    manager = LockManager()
    mirror = Mirror()
    for step in steps:
        if step[0] == "acquire":
            _, txn, resource, mode = step
            if manager.waiting(txn):
                continue    # a real caller is suspended while queued
            before_graph = manager.wait_for_graph()
            try:
                granted = manager.acquire(txn, resource, mode)
            except DeadlockError:
                # completeness: enqueueing this request must close a
                # cycle through txn in the brute-force graph
                graph = dict(before_graph)
                blockers = manager.blockers(resource)
                assert blockers == mirror.blockers(resource)
                graph.setdefault(txn, set()).update(
                    b for b in blockers if b != txn)
                assert brute_force_cycle(graph, txn), \
                    "DeadlockError raised without a wait-for cycle"
                grants = manager.release_all(txn)
                mirror.note_release_all(txn, grants)
                continue
            if granted:
                # upgrades overwrite the mirrored mode; plain re-grants
                # keep the stronger of the two
                held = mirror.holders.get(resource, {}).get(txn)
                effective = (LockMode.EXCLUSIVE
                             if LockMode.EXCLUSIVE in (held, mode)
                             else mode)
                mirror.note_grant(txn, resource, effective)
            else:
                # soundness: an enqueued (non-victim) request must NOT
                # have closed a cycle
                assert not brute_force_cycle(manager.wait_for_graph(),
                                             txn), \
                    "wait-for cycle left standing without DeadlockError"
                mirror.note_enqueue(txn, resource, mode)
        else:
            _, txn = step
            grants = manager.release_all(txn)
            mirror.note_release_all(txn, grants)
        mirror.check_compatibility()
        for resource in ("a", "b", "c"):
            mirror.check_fifo_prefix(resource)
            assert manager.blockers(resource) == mirror.blockers(resource)


@given(STEPS)
@settings(max_examples=100)
def test_mirror_agrees_with_manager_state(steps):
    """The mirror's holder view matches ``holds``/``waiting``."""
    manager = LockManager()
    mirror = Mirror()
    for step in steps:
        if step[0] == "acquire":
            _, txn, resource, mode = step
            if manager.waiting(txn):
                continue
            try:
                if manager.acquire(txn, resource, mode):
                    mirror.note_grant(txn, resource, mode)
                else:
                    mirror.note_enqueue(txn, resource, mode)
            except DeadlockError:
                mirror.note_release_all(txn, manager.release_all(txn))
        else:
            _, txn = step
            mirror.note_release_all(txn, manager.release_all(txn))
        for resource, held in mirror.holders.items():
            for txn_id in held:
                assert manager.holds(txn_id, resource), \
                    f"mirror thinks {txn_id} holds {resource!r}"
        for resource, queue in mirror.queues.items():
            for txn_id, _mode in queue:
                assert manager.waiting(txn_id), \
                    f"mirror thinks {txn_id} queues on {resource!r}"


def test_deadlock_error_names_a_real_cycle():
    """Deterministic two-txn deadlock: the reported cycle is genuine."""
    manager = LockManager()
    assert manager.acquire(1, "a", LockMode.EXCLUSIVE)
    assert manager.acquire(2, "b", LockMode.EXCLUSIVE)
    assert not manager.acquire(1, "b", LockMode.EXCLUSIVE)
    try:
        manager.acquire(2, "a", LockMode.EXCLUSIVE)
    except DeadlockError as err:
        assert set(err.cycle) == {1, 2}
        graph = manager.wait_for_graph()
        graph.setdefault(2, set()).add(1)
        assert brute_force_cycle(graph, 2)
        return
    raise AssertionError("expected DeadlockError")


def test_release_unheld_lock_raises():
    manager = LockManager()
    try:
        manager.release(1, "a")
    except LockError:
        return
    raise AssertionError("expected LockError")


S, X = LockMode.SHARED, LockMode.EXCLUSIVE


def _shared_then_upgrade_then_queue(manager):
    """Resources 1 and 3: holders 1 (S) and 2 (S); 2 queues an upgrade,
    then 3 queues S and 4 queues X behind it."""
    for resource in (1, 3):
        assert manager.acquire(1, resource, S)
        assert manager.acquire(2, resource, S)
        assert not manager.acquire(2, resource, X)     # upgrade waits on 1
        assert not manager.acquire(3, resource, S)     # FIFO: behind 2
        assert not manager.acquire(4, resource, X)


def _release_order(manager, first):
    """Release ``first`` (holder 1), then 2 and 3 in turn; the grants."""
    return [manager.release_all(txn) for txn in (first, 2, 3)]


PINNED = [
    [Grant(2, 1, X), Grant(2, 3, X)],      # the upgrade, once 1 has gone
    [Grant(3, 1, S), Grant(3, 3, S)],      # then the queued reader
    [Grant(4, 1, X), Grant(4, 3, X)],      # then the queued writer
]


def test_grant_order_when_the_releaser_queues_nowhere():
    manager = LockManager()
    _shared_then_upgrade_then_queue(manager)
    assert not manager.waiting(1)
    assert _release_order(manager, 1) == PINNED
    assert manager.holds(4, 1, X) and manager.holds(4, 3, X)
    assert not any(manager.waiting(txn) for txn in (1, 2, 3, 4))


def test_grant_order_when_the_releaser_still_queues():
    manager = LockManager()
    assert manager.acquire(5, 2, X)
    _shared_then_upgrade_then_queue(manager)
    assert not manager.acquire(1, 2, S)     # 1 now waits on 5 as well
    assert manager.waiting(1)
    assert _release_order(manager, 1) == PINNED
    assert not manager.waiting(1)
    assert manager.blockers(2) == {5}       # 1's queued request went too
    assert manager.release_all(5) == []
    assert manager.blockers(2) == set()
