"""Lock manager: shared/exclusive locks at page or record granularity.

The paper evaluates both **page locking** (Section 5.2, where concurrent
transactions' page sets are disjoint) and **record locking** (Section
5.3, where they are not).  Resources are arbitrary hashable keys — the
database layer uses ``("page", p)`` and ``("rec", p, slot)``.

The manager supports a queued-waiting discipline so a discrete-event
simulator can model blocking: :meth:`LockManager.acquire` either grants
immediately or enqueues the request and reports ``False``; releases hand
the lock to compatible waiters in FIFO order.  Deadlocks are detected
eagerly on enqueue by a wait-for-graph cycle search and raise
:class:`~repro.errors.DeadlockError` naming the requester as victim.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from ..errors import DeadlockError, LockError


class LockMode(Enum):
    """Lock modes: shared (read) and exclusive (write)."""

    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass(frozen=True)
class Grant:
    """A lock handed to a waiter after a release."""

    txn_id: int
    resource: object
    mode: LockMode


class LockManager:
    """Strict two-phase locking with FIFO waiting and deadlock detection.

    A held resource is one entry of ``_holders`` (``txn_id -> LockMode``,
    never empty); a FIFO queue exists in ``_waiters`` only while some
    request waits on the resource.  A resource that is queued on is
    always held: a release that empties the holders promotes the head.
    """

    def __init__(self) -> None:
        self._holders: dict = {}      # resource -> {txn_id: LockMode}
        self._waiters: dict = {}      # resource -> deque of (txn_id, LockMode)
        self._held_by_txn: dict = {}  # txn_id -> set of resources
        self._wait_count: dict = {}   # txn_id -> queued requests

    # -- queries ------------------------------------------------------------------

    def holds(self, txn_id: int, resource, mode: LockMode | None = None) -> bool:
        """True if the transaction holds a lock on ``resource``;
        with ``mode``, a lock at least that strong."""
        held = self._holders.get(resource, {}).get(txn_id)
        if held is None:
            return False
        return mode is None or held is LockMode.EXCLUSIVE or held is mode

    def waiting(self, txn_id: int) -> bool:
        """True if the transaction is queued on some resource."""
        return bool(self._wait_count.get(txn_id))

    def locks_of(self, txn_id: int) -> list:
        """Resources currently locked by the transaction."""
        return sorted(self._held_by_txn.get(txn_id, ()), key=repr)

    def blockers(self, resource) -> set:
        """Transactions a new request on ``resource`` would queue behind
        if it waited: the holders and every queued requester."""
        found = set(self._holders.get(resource, ()))
        found.update(txn for txn, _mode in self._waiters.get(resource, ()))
        return found

    # -- acquire / release ----------------------------------------------------------

    def acquire(self, txn_id: int, resource, mode: LockMode) -> bool:
        """Request a lock.

        Returns True if granted immediately (including already-held and
        legal upgrades), False if the request was enqueued.

        Raises:
            DeadlockError: if enqueueing would close a wait-for cycle.
        """
        holders = self._holders.get(resource)
        if holders is None:
            # uncontended first touch: grant without scanning anything
            self._holders[resource] = {txn_id: mode}
            held = self._held_by_txn.get(txn_id)
            if held is None:
                self._held_by_txn[txn_id] = {resource}
            else:
                held.add(resource)
            return True
        held = holders.get(txn_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or held is mode:
                return True
            # S -> X upgrade: immediate if sole holder and nobody queued
            if len(holders) == 1 and resource not in self._waiters:
                holders[txn_id] = LockMode.EXCLUSIVE
                return True
        elif (mode is LockMode.SHARED and resource not in self._waiters
              and LockMode.EXCLUSIVE not in holders.values()):
            holders[txn_id] = mode
            self._held_by_txn.setdefault(txn_id, set()).add(resource)
            return True
        self._enqueue(txn_id, resource, mode)
        return False

    def _enqueue(self, txn_id: int, resource, mode: LockMode) -> None:
        queue = self._waiters.get(resource)
        if queue is None:
            queue = self._waiters[resource] = deque()
        queue.append((txn_id, mode))
        cycle = self._find_cycle(txn_id)
        if cycle:
            queue.pop()
            if not queue:
                del self._waiters[resource]
            raise DeadlockError(txn_id, tuple(cycle))
        self._wait_count[txn_id] = self._wait_count.get(txn_id, 0) + 1

    def _waiter_granted(self, txn_id: int) -> None:
        count = self._wait_count.get(txn_id, 0) - 1
        if count > 0:
            self._wait_count[txn_id] = count
        else:
            self._wait_count.pop(txn_id, None)

    def release_all(self, txn_id: int) -> list:
        """Release every lock and queued request of a transaction (EOT).

        Returns the :class:`Grant` list of waiters promoted as a result.
        """
        grants: list = []
        table = self._holders
        waiters = self._waiters
        # each held resource loses one holder, and one with a queue
        # promotes from it; grants come in the held set's (hash) order
        for resource in self._held_by_txn.pop(txn_id, ()):
            holders = table[resource]
            del holders[txn_id]
            queue = waiters.get(resource)
            if queue is not None:
                grants.extend(self._promote(resource, holders, queue))
            elif not holders:
                del table[resource]
        if self._wait_count.pop(txn_id, None):
            # withdraw its queued requests, promoting behind them in
            # table order (a queue it was not on promotes nothing:
            # promotion is eager at every release)
            for resource in [r for r in table if r in waiters]:
                queue = waiters[resource] = deque(
                    (t, m) for t, m in waiters[resource] if t != txn_id)
                grants.extend(self._promote(resource, table[resource], queue))
        return grants

    def release(self, txn_id: int, resource) -> list:
        """Release a single lock (non-strict use; tests and internals)."""
        holders = self._holders.get(resource)
        if holders is None or txn_id not in holders:
            raise LockError(f"txn {txn_id} does not hold {resource!r}")
        del holders[txn_id]
        self._held_by_txn[txn_id].discard(resource)
        queue = self._waiters.get(resource)
        grants = (self._promote(resource, holders, queue)
                  if queue is not None else [])
        if not holders and resource not in self._waiters:
            del self._holders[resource]
        return grants

    def _promote(self, resource, holders: dict, queue: deque) -> list:
        """Grant the longest compatible prefix of ``queue``; the queue
        leaves the table once it drains."""
        grants = []
        while queue:
            txn_id, mode = queue[0]
            held = holders.get(txn_id)
            if held is not None:
                # queued upgrade: needs sole holdership
                if len(holders) != 1:
                    break
                mode = LockMode.EXCLUSIVE
            elif holders and (mode is LockMode.EXCLUSIVE
                              or LockMode.EXCLUSIVE in holders.values()):
                break
            else:
                self._held_by_txn.setdefault(txn_id, set()).add(resource)
            holders[txn_id] = mode
            queue.popleft()
            self._waiter_granted(txn_id)
            grants.append(Grant(txn_id, resource, mode))
        if not queue:
            del self._waiters[resource]
        return grants

    # -- deadlock detection ------------------------------------------------------------

    def wait_for_graph(self) -> dict:
        """``waiter -> {holders blocking it}`` over all resources."""
        graph: dict = {}
        waiters = self._waiters
        # in table order: the cycle a DeadlockError names depends on it
        for resource, holders in self._holders.items():
            queue = waiters.get(resource)
            if queue is None:
                continue
            blockers = set(holders)
            for txn_id, _mode in queue:
                edges = graph.setdefault(txn_id, set())
                edges.update(b for b in blockers if b != txn_id)
                blockers.add(txn_id)  # FIFO: later waiters wait on earlier
        return graph

    def _find_cycle(self, start: int):
        graph = self.wait_for_graph()
        path, on_path = [], set()

        def visit(node):
            if node in on_path:
                return path[path.index(node):]
            if node not in graph:
                return None
            path.append(node)
            on_path.add(node)
            for succ in graph[node]:
                found = visit(succ)
                if found:
                    return found
            path.pop()
            on_path.discard(node)
            return None

        return visit(start)
