"""Group commit: batched log forces with a configurable flush horizon.

A log force is the dominant fixed cost of a small committing
transaction: a partial log page is flushed to both mirror copies for
one transaction's few hundred bytes.  Group commit amortizes it — the
coordinator collects the forces requested during a commit, acknowledges
the transaction, and performs one *batched* force after every
``flush_horizon`` commits, so H commits' records ride the same page
flushes.

The batching window is bounded by the crash contract: a crash (or an
explicit barrier such as a checkpoint or an abort's immediate force)
first drains the coordinator, so every acknowledged commit is durable
before any post-crash state is observable.  Forces requested *outside*
a deferral window — the WAL rule's pre-steal forces, abort records —
bypass the coordinator and hit the devices immediately; a later batched
flush of already-flushed bytes is free (the log device charges only
new bytes past the charged watermark).

``flush_horizon=1`` degenerates to classical per-commit forcing.
"""

from __future__ import annotations

from contextlib import contextmanager

from .log import LogManager


class GroupCommitCoordinator:
    """Collects deferred log forces and flushes them in batches.

    One coordinator is shared by every log participating in group
    commit (the shards' WALs and the global commit log of a
    :class:`~repro.db.sharded.ShardedDatabase`).

    Args:
        flush_horizon: commits per batched force (H).  1 = force at
            every commit (the classical discipline).
        metrics: optional registry; exports
            ``wal.group_commit.deferred_forces`` and
            ``wal.group_commit.flushes`` (read from the two counters
            below, not pushed).
    """

    def __init__(self, flush_horizon: int = 1, metrics=None) -> None:
        if flush_horizon < 1:
            raise ValueError("flush_horizon must be at least 1")
        self.flush_horizon = flush_horizon
        self._depth = 0
        self._pending: list = []        # logs with deferred forces, in order
        self._commits_since_flush = 0
        self.deferred_forces = 0        # force requests absorbed by batching
        self.flushes = 0                # batched flushes performed
        if metrics is not None:
            metrics.counter("wal.group_commit.deferred_forces").add_source(
                lambda: self.deferred_forces)
            metrics.counter("wal.group_commit.flushes").add_source(
                lambda: self.flushes)

    @property
    def deferring(self) -> bool:
        """True inside a :meth:`deferred` window."""
        return self._depth > 0

    @property
    def pending_logs(self) -> int:
        """Logs with a force outstanding."""
        return len(self._pending)

    @contextmanager
    def deferred(self):
        """A window in which participating logs' forces are deferred
        (wrap one commit's log work in it)."""
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1

    def defer_force(self, log) -> None:
        """Record that ``log`` owes a force (called by the log itself)."""
        if log not in self._pending:
            self._pending.append(log)
        self.deferred_forces += 1

    def covers(self, log) -> bool:
        """True while ``log`` has a deferred force outstanding — its
        whole tail is then durable-at-crash under the drain contract."""
        return log in self._pending

    def note_commit(self) -> None:
        """One commit completed; flush if the horizon is reached."""
        self._commits_since_flush += 1
        if self._commits_since_flush >= self.flush_horizon:
            self.flush()

    def flush(self) -> int:
        """Force every log with a deferred force; returns how many had
        one outstanding.  Idempotent — safe as a crash/checkpoint
        barrier.  Each log leaves the pending list only *after* its
        force completes, so a flush interrupted by a simulated power
        cut keeps the rest pending and the crash drain finishes the
        job (acknowledged commits stay durable)."""
        self._commits_since_flush = 0
        flushed = self._drain()
        if flushed:
            self.flushes += 1
        return flushed

    def _drain(self) -> int:
        """Force the pending logs; returns how many were forced.

        Split out of :meth:`flush` so coordinators spanning process
        boundaries (the worker facade's) can extend the drain to remote
        participants while keeping the horizon/counter bookkeeping in
        one place.
        """
        flushed = 0
        while self._pending:
            self._pending[0].force_now()
            self._pending.pop(0)
            flushed += 1
        return flushed

    def absorb_deferred(self, count: int) -> None:
        """Fold ``count`` deferral events performed by a *remote*
        participant (a shard worker's local coordinator) into this
        coordinator's accounting, so facade-level statistics and
        metrics match the in-process engine exactly."""
        if count <= 0:
            return
        self.deferred_forces += count


class GroupCommitLog(LogManager):
    """A duplexed log whose forces may be deferred to a coordinator.

    Inside a coordinator's :meth:`~GroupCommitCoordinator.deferred`
    window, :meth:`force` registers with the coordinator instead of
    flushing; everywhere else it behaves exactly like
    :class:`~repro.wal.log.LogManager` (WAL-rule forces stay
    synchronous).
    """

    def __init__(self, *args, coordinator=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.coordinator = coordinator
        # Physical partial-page accounting: each force containing new
        # bytes rewrites (and re-charges) the current partial page.
        # The plain LogManager's charge-once watermark already *assumes*
        # idealized batching; making the rewrite explicit here is what
        # lets group commit's amortization show up in the transfer
        # counts (see docs/observability.md).
        for device in self._devices:
            device.reforce_partial = True

    def force(self) -> None:
        if self.coordinator is not None and self.coordinator.deferring:
            self.coordinator.defer_force(self)
            return
        super().force()

    def force_now(self) -> None:
        """The real force, bypassing deferral (coordinator flush path)."""
        LogManager.force(self)

    @property
    def durable_lsn(self) -> int:
        """With a batched force pending, the whole tail is durable: a
        crash drains the coordinator before truncating log tails."""
        if self.coordinator is not None and self.coordinator.covers(self):
            return self.last_lsn
        return self.forced_lsn
