"""Transaction manager: id allocation, lifecycle, and the active set.

The manager owns transaction objects and their state transitions; the
*work* of commit and abort (forcing pages, writing EOT records, undo)
is orchestrated by the recovery layer, which calls back into
:meth:`TransactionManager.finish`.

Registry lifetime: an active transaction is registered until it
finishes; a finished one stays answerable through :meth:`get` until the
next :meth:`forget_finished` (``Database.trim_log`` — the moment the
log drops its records and stale WORKING twin headers are sealed) or
:meth:`lose_memory` (crash).  Memory and every walk are therefore
bounded by live work plus what finished since the last trim, never by
the number of transactions ever run.
"""

from __future__ import annotations

from ..errors import InvalidTransactionState
from ..obs.tracer import NULL_TRACER
from .transaction import Transaction, TxnState


class TransactionManager:
    """Registry and lifecycle authority for transactions.

    Args:
        tracer: event tracer; each transaction's lifetime becomes a
            detached ``txn`` span (begin → commit/abort) carrying its
            outcome and — when ``stats`` is supplied — the page
            transfers performed while it ran.
        stats: shared :class:`~repro.storage.iostats.IOStats` to bind
            to the transaction spans.
        metrics: optional registry for ``txn.finished{outcome=...}``.
    """

    def __init__(self, tracer=None, stats=None, metrics=None) -> None:
        self._next_id = 1
        self._active: dict = {}         # begin order
        self._finished: dict = {}       # since the last forget_finished()
        self._spent_below = 1           # every id under this is spent
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._stats = stats
        self._m_finished = (metrics.counter("txn.finished")
                            if metrics is not None else None)
        self._m_outcomes: dict = {}     # outcome -> txn.finished child
        self._spans: dict = {}

    def begin(self, txn_id: int | None = None) -> Transaction:
        """Start a new transaction (the BOT event).

        ``txn_id`` pins a caller-assigned id (sharded engines keep one
        global id across shards); the auto-allocator skips past it so
        ids stay unique either way.  An id is accepted once: a pinned id
        is rejected if it is registered (active, or finished and not yet
        forgotten) or lies below the *spent floor* — the registry
        raises that floor past every id it forgets, so ids under it
        count as spent whether or not they were ever issued, and pinned
        ids must not trail a forgotten one.
        """
        if txn_id is None:
            txn_id = self._next_id
            self._next_id += 1
        else:
            if (txn_id < self._spent_below or txn_id in self._active
                    or txn_id in self._finished):
                raise InvalidTransactionState(
                    f"transaction id {txn_id} already registered")
            self._next_id = max(self._next_id, txn_id + 1)
        txn = Transaction(txn_id=txn_id)
        self._active[txn_id] = txn
        if self.tracer.enabled:
            self._spans[txn_id] = self.tracer.start_span(
                "txn", stats=self._stats, txn=txn_id)
        return txn

    def get(self, txn_id: int) -> Transaction:
        """Look up an active or not-yet-forgotten transaction by id."""
        txn = self._active.get(txn_id) or self._finished.get(txn_id)
        if txn is None:
            raise InvalidTransactionState(f"unknown transaction {txn_id}")
        return txn

    def require_active(self, txn_id: int) -> Transaction:
        """Look up a transaction and insist it is still running."""
        txn = self._active.get(txn_id)
        if txn is None:
            txn = self.get(txn_id)
            raise InvalidTransactionState(
                f"transaction {txn_id} is {txn.state.value}, not active")
        return txn

    def finish(self, txn_id: int, outcome: TxnState) -> Transaction:
        """Transition an active transaction to COMMITTED or ABORTED."""
        if outcome not in (TxnState.COMMITTED, TxnState.ABORTED):
            raise ValueError("outcome must be COMMITTED or ABORTED")
        txn = self.require_active(txn_id)
        txn.state = outcome
        del self._active[txn_id]
        self._finished[txn_id] = txn
        span = self._spans.pop(txn_id, None)
        if span is not None:
            span.finish(outcome=outcome.value)
        if self._m_finished is not None:
            child = self._m_outcomes.get(outcome)
            if child is None:
                child = self._m_outcomes[outcome] = \
                    self._m_finished.labels(outcome=outcome.value)
            child.inc()
        return txn

    def active_transactions(self) -> list:
        """Active transactions, in begin order."""
        return list(self._active.values())

    def is_committed(self, txn_id: int) -> bool:
        """True if the id is a committed transaction the registry still
        remembers (twin selection asks this about WORKING-header
        owners; a forgotten owner's header was sealed at the trim)."""
        txn = self._finished.get(txn_id)
        return txn is not None and txn.state is TxnState.COMMITTED

    def forget_finished(self) -> None:
        """Drop every finished transaction (the log is forgetting them
        too); their ids stay spent."""
        if self._finished:
            self._spent_below = max(self._spent_below,
                                    max(self._finished) + 1)
            self._finished.clear()

    def lose_memory(self) -> None:
        """Crash simulation: the in-memory registry vanishes.

        Ids keep increasing across the crash so stamps stay unique.
        """
        self._active.clear()
        self._finished.clear()
        self._spent_below = self._next_id
        # in-flight spans die with main memory: no events for them
        self._spans.clear()

    def adopt(self, txn: Transaction) -> None:
        """Re-register a transaction reconstructed from the log."""
        registry = self._active if txn.is_active else self._finished
        registry[txn.txn_id] = txn
        if txn.txn_id >= self._next_id:
            self._next_id = txn.txn_id + 1
