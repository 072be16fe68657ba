"""K-way sharded engine: hash-partitioned parity domains + group commit.

A :class:`ShardedDatabase` splits the page space across ``K``
independent :class:`~repro.db.database.Database` engines ("shards"),
each owning its own disk array (a private parity domain), buffer pool,
lock table, and WAL.  Pages route by ``page mod K``; a global
transaction keeps one id on every shard it touches, so the facade
exposes exactly the single-engine API and the simulator, conformance
harness, and fault injector drive it unchanged.

Why shard a *recovery* model?  Two of the paper's costs scale with the
domain, not the database:

* **Media rebuild** reads every surviving disk of the failed disk's
  array.  K parity domains make the rebuild unit ``1/K`` of the data.
* **The Figure 3 rule** (one unlogged uncommitted page per parity
  group) serializes unlogged steals per group; independent domains
  multiply the groups and spread the dirty set.

The price is commit: a transaction spanning shards must force several
logs.  The shared :class:`~repro.wal.group_commit.GroupCommitCoordinator`
batches those forces — every log force requested while a commit runs is
deferred, and one batched flush covers every ``flush_horizon`` commits,
so H commits' records ride the same log-page transfers.

**Crash contract (cross-shard atomicity).**  Classical two-phase commit
cannot be retrofitted here: RDA commit processing flips parity twins,
which destroys the undo information, so a shard cannot "prepare" and
later roll back.  Instead the model adopts the group-commit durability
contract: :meth:`ShardedDatabase.crash` first drains the coordinator
(the semantics of a battery-backed log buffer), so every acknowledged
commit is durable on every shard before main memory is lost.  Each
shard then restarts independently; :meth:`recover` cross-checks that no
globally committed transaction surfaced as a loser on any shard.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import fields, replace

from ..errors import ModelError, RecoveryError, TransactionError
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, LabelledTracer
from ..storage import IOStats
from ..storage.iostats import TransferCounts
from ..wal import CommitRecord, GroupCommitCoordinator, GroupCommitLog
from .config import DBConfig
from .database import Database, WriteCounters, statistics_of
from .recovery import RESTART_COUNTERS


class ShardScheduler:
    """Deterministic round-robin order for cross-shard operations.

    Each call to :meth:`order` yields every shard exactly once,
    starting one past where the previous call started, so multi-shard
    work (commit processing, checkpoints) spreads evenly instead of
    always hammering shard 0 first.  Purely counter-driven — the
    schedule is a function of the operation count, never of wall time.
    """

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        self._start = 0

    def order(self) -> list:
        """Shard indices for the next cross-shard operation."""
        start = self._start
        self._start = (self._start + 1) % self.num_shards
        return [(start + i) % self.num_shards
                for i in range(self.num_shards)]


def shard_config(config: DBConfig, shards: int) -> DBConfig:
    """The per-shard configuration: groups and buffer split K ways.

    Each shard gets ``ceil(G / K)`` parity groups (so the union covers
    at least the requested S pages) and a proportional slice of the
    buffer, floored at the 2-frame minimum a pool needs to make
    progress.
    """
    return replace(config,
                   num_groups=max(1, math.ceil(config.num_groups / shards)),
                   buffer_capacity=max(2, math.ceil(
                       config.buffer_capacity / shards)))


# ---------------------------------------------------------------- the protocol


def _method(name: str):
    """The shard operation that is ``Database.<name>`` (looked up on
    the instance, so a patched engine keeps its patch)."""
    return lambda db, *args: getattr(db, name)(*args)


def _verify(db: Database) -> list:
    # the one lazy import of the judge: repro.check imports repro.db,
    # so repro.db cannot import repro.check at module level
    from ..check.invariants import verify_database
    return verify_database(db)


SHARD_OPS: dict = {
    **{name: _method(name) for name in (
        "begin", "grants_for", "read_page", "write_page", "read_record",
        "update_record", "insert_record", "delete_record", "commit", "abort",
        "checkpoint", "trim_log", "crash", "recover", "media_failure",
        "media_recover", "load_pages", "format_record_pages", "snap",
        "txn_flags", "disk_page", "committed_view", "verify_parity")},
    # the parts of an engine the facade views reach through to
    "note_work": lambda db, cost: db.checkpointer.note_work(cost),
    "maybe_checkpoint": lambda db: db.checkpointer.maybe_checkpoint(),
    "active_txns": lambda db: [t.txn_id
                               for t in db.txns.active_transactions()],
    "resident_pages": lambda db: db.buffer.resident_pages(),
    "in_buffer": lambda db, page: page in db.buffer,
    "metrics_snapshot": lambda db: (db.metrics.snapshot()
                                    if db.metrics is not None else {}),
    "verify": _verify,
}
"""The shard protocol: ``op -> function(db, *args)``, arguments
positional.  The in-process :meth:`ShardedDatabase._scatter` and the
worker loop of :mod:`repro.db.workers` both dispatch through this one
table; an op named like a ``Database`` method *is* that method."""


def shard_info(db: Database) -> dict:
    """The static facts of one shard the facade keeps locally (a worker
    sends them once, in its handshake)."""
    return {"num_data_pages": db.num_data_pages,
            "num_disks": len(db.array.disks),
            "has_checkpointer": db.checkpointer is not None}


# ---------------------------------------------------------------- facade views


def _total(key: str) -> property:
    """Read-only attribute: ``key`` of the owner's summed snapshot."""
    return property(lambda self: self._owner._totals()[key])


class _View:
    """A live view: every read gathers fresh per-shard state through
    the owner's ``_scatter``, one round per attribute access."""

    def __init__(self, owner: "ShardedDatabase") -> None:
        self._owner = owner


class _StatsView(_View):
    """Read-only aggregate of every shard's IOStats plus the commit log's."""

    reads = _total("reads")
    writes = _total("writes")
    log_transfers = _total("log_transfers")

    @property
    def total(self) -> int:
        return self.snapshot().total

    def snapshot(self) -> TransferCounts:
        totals = self._owner._totals()
        return TransferCounts(totals["reads"], totals["writes"])


class _BufferStatsView(_View):
    """Summed :class:`~repro.buffer.pool.BufferStats` across shards."""

    hits = _total("hits")
    misses = _total("misses")
    evictions = _total("evictions")
    dirty_evictions = _total("dirty_evictions")
    steals = _total("buffer_steals")

    @property
    def references(self) -> int:
        totals = self._owner._totals()
        return totals["hits"] + totals["misses"]

    @property
    def hit_ratio(self) -> float:
        return statistics_of(self._owner._totals())["buffer_hit_ratio"]


class _BufferFacade(_View):
    """The slice of the BufferPool API drivers use, globalized."""

    def __init__(self, owner: "ShardedDatabase") -> None:
        super().__init__(owner)
        self.stats = _BufferStatsView(owner)

    def resident_pages(self) -> list:
        """Sorted *global* ids of pages buffered on any shard: each
        shard's list is sorted and ``global_page`` is monotone in the
        local id, so one merge of the K mapped lists is sorted."""
        global_page = self._owner.global_page
        return list(heapq.merge(*(
            [global_page(i, local) for local in locals_]
            for i, locals_ in enumerate(
                self._owner._gather("resident_pages")))))

    def __contains__(self, page: int) -> bool:
        shard, local = self._owner._route(page)
        return self._owner._scatter((shard,), "in_buffer", (local,))[shard]


class _TxnView(_View):
    """One global transaction, seen across its shards.  Every global
    transaction registers on every shard, so shard 0 is canonical for
    what all shards agree on (existence, state)."""

    def __init__(self, owner: "ShardedDatabase", txn_id: int) -> None:
        super().__init__(owner)
        self.txn_id = txn_id

    def _canonical(self) -> dict:
        return self._owner._scatter((0,), "txn_flags", (self.txn_id,))[0]

    @property
    def must_commit(self) -> bool:
        """Pinned if any shard lost this transaction's undo to media."""
        return any(flags["must_commit"] for flags
                   in self._owner._gather("txn_flags", (self.txn_id,)))

    @property
    def is_active(self) -> bool:
        return self._canonical()["is_active"]

    @property
    def state(self):
        return self._canonical()["state"]

    @property
    def is_update_transaction(self) -> bool:
        return any(flags["is_update"] for flags
                   in self._owner._gather("txn_flags", (self.txn_id,)))


class _TxnFacade(_View):
    """Registry view: ids are global, state is the union of shards."""

    def get(self, txn_id: int) -> _TxnView:
        view = _TxnView(self._owner, txn_id)
        view._canonical()                           # raise on unknown id
        return view

    def active_transactions(self) -> list:
        return [_TxnView(self._owner, txn_id) for txn_id
                in self._owner._scatter((0,), "active_txns")[0]]


class _CountersView(_View):
    """Summed :class:`~repro.db.database.WriteCounters` across shards
    (global commits and aborts are counted once, not per shard)."""

    unlogged_steals = _total("unlogged_steals")
    logged_steals = _total("logged_steals")
    committed_writebacks = _total("committed_writebacks")
    before_images_logged = _total("before_images_logged")
    promotions = _total("promotions")
    transactions_committed = _total("transactions_committed")
    transactions_aborted = _total("transactions_aborted")

    def _counters(self) -> WriteCounters:
        totals = self._owner._totals()
        return WriteCounters(**{f.name: totals[f.name]
                                for f in fields(WriteCounters)})

    @property
    def steals(self) -> int:
        return self._counters().steals

    @property
    def unlogged_fraction(self) -> float:
        return self._counters().unlogged_fraction


class _CheckpointerFacade(_View):
    """Drives every shard's ACC checkpointer in lockstep."""

    def note_work(self, cost: float) -> None:
        self._owner._gather("note_work", (cost,))

    def maybe_checkpoint(self):
        """Returns the list of shard checkpoint LSNs, or None if no
        shard's interval elapsed (they share one interval, so normally
        all fire together)."""
        fired = [lsn for lsn in self._owner._gather("maybe_checkpoint")
                 if lsn is not None]
        return fired or None

    def checkpoint(self) -> list:
        return self._owner._gather("checkpoint")


class _ShardedMetrics(_View):
    """Merged snapshot: the facade's own registry plus each shard's,
    re-keyed with a ``shard`` label so series never collide."""

    def __init__(self, owner: "ShardedDatabase",
                 own: MetricsRegistry) -> None:
        super().__init__(owner)
        self._own = own

    @staticmethod
    def _relabel(key: str, shard: int) -> str:
        name, sep, rest = key.partition("{")
        labels = [f"shard={shard}"]
        if sep:
            labels.extend(rest[:-1].split(","))
        return name + "{" + ",".join(sorted(labels)) + "}"

    def snapshot(self) -> dict:
        merged = self._own.snapshot()
        for shard, snap in enumerate(
                self._owner._gather("metrics_snapshot")):
            for kind, series in snap.items():
                target = merged.setdefault(kind, {})
                for key, value in series.items():
                    target[self._relabel(key, shard)] = value
        return merged


# ---------------------------------------------------------------- the facade


class ShardedDatabase:
    """K independent engines behind the single-engine ``Database`` API.

    Every cross-shard operation and every view is written once, over
    :meth:`_scatter`; how a scatter *runs* is the transport.  Here the
    shards are :class:`Database` objects called in order on this
    thread; :class:`~repro.db.workers.WorkerShardedDatabase` runs them
    in K processes — shards 0 … K − 2 in worker processes, shard K − 1
    served by the facade's own process through the same command body —
    and overrides only the transport section below (plus healing dead
    workers before :meth:`crash`).  Operations routed to a single shard
    call ``self.shards[i]`` directly.

    Args:
        config: the *global* configuration; groups and buffer frames
            are split across shards via :func:`shard_config`.
        shards: K, the number of parity domains / engines.
        flush_horizon: commits per batched group-commit flush (1 =
            classical per-commit forcing).
        tracer: shared tracer; each shard emits through a
            :class:`~repro.obs.tracer.LabelledTracer` stamped
            ``shard=i``, so one trace interleaves every shard.
        metrics: optional registry for facade-level series (group
            commit, commit log); shard series are kept in private
            registries and merged into :meth:`MetricsRegistry.snapshot`
            output with a ``shard`` label.
        history: optional :class:`~repro.check.history.HistoryRecorder`;
            records the *global* operation stream (global page ids).
    """

    def __init__(self, config: DBConfig, shards: int = 2,
                 flush_horizon: int = 1, tracer=None, metrics=None,
                 history=None) -> None:
        if shards < 1:
            raise ModelError("shards (K) must be at least 1")
        self.config = config
        self.num_shards = shards
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.history = history
        self.scheduler = ShardScheduler(shards)
        info = self._open(shard_config(config, shards), flush_horizon,
                          metrics)
        self.num_data_pages = shards * info["num_data_pages"]
        self.disks_per_shard = info["num_disks"]
        self.metrics = (_ShardedMetrics(self, metrics)
                        if metrics is not None else None)

        # the global commit log: one duplexed record stream of global
        # commit decisions, forced through the same coordinator
        self._commit_stats = IOStats()
        self.commit_log = GroupCommitLog(
            name="gcommit",
            transfers_per_log_page=config.log_transfers_per_page,
            stats=self._commit_stats, metrics=metrics,
            coordinator=self.coordinator)

        self.stats = _StatsView(self)
        self.buffer = _BufferFacade(self)
        self.txns = _TxnFacade(self)
        self.counters = _CountersView(self)
        self.checkpointer = (_CheckpointerFacade(self)
                             if info["has_checkpointer"] else None)
        self._next_txn = 1
        # True once a media rebuild may have pinned a transaction
        # must_commit on some shard (see abort)
        self._pins_possible = False

    # -- the transport -------------------------------------------------------

    def _open(self, per_shard: DBConfig, flush_horizon: int,
              metrics) -> dict:
        """Build ``self.coordinator`` and ``self.shards``; returns
        shard 0's :func:`shard_info` (the shards are identical)."""
        self.coordinator = GroupCommitCoordinator(
            flush_horizon=flush_horizon, metrics=metrics)
        self.shards = [
            Database(per_shard,
                     tracer=(LabelledTracer(self.tracer, shard=i)
                             if self.tracer.enabled else self.tracer),
                     metrics=MetricsRegistry() if metrics is not None
                     else None,
                     log_factory=self._shard_log_factory)
            for i in range(self.num_shards)
        ]
        return shard_info(self.shards[0])

    def _shard_log_factory(self, db: Database, name: str) -> GroupCommitLog:
        """Per-shard WALs that defer their forces to the coordinator."""
        return GroupCommitLog(
            name=name,
            transfers_per_log_page=db.config.log_transfers_per_page,
            stats=db.stats, metrics=db.metrics,
            coordinator=self.coordinator)

    def _scatter(self, order, op: str, args: tuple = ()) -> dict:
        """Run :data:`SHARD_OPS` ``[op]`` on every shard in ``order``;
        returns ``{shard: result}``.

        **The error rule, the same on both transports:** the command
        reaches *every* shard in ``order`` even when one of them
        raises, and the first failure is raised only after the sweep —
        a worker's death before any engine error, otherwise the first
        in ``order``.  Worker processes execute a scatter concurrently,
        so it cannot stop half-way there; holding the in-process loop
        to the same rule keeps the shards' registries in step (no shard
        is left without a command its siblings executed).
        """
        fn = SHARD_OPS[op]
        shards = self.shards
        results: dict = {}
        error: Exception | None = None
        for i in order:
            try:
                results[i] = fn(shards[i], *args)
            except Exception as exc:                # noqa: BLE001
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results

    def _gather(self, op: str, args: tuple = ()) -> list:
        """One scatter over every shard; results in shard order."""
        order = range(self.num_shards)
        results = self._scatter(order, op, args)
        return [results[i] for i in order]

    def _snaps(self) -> list:
        """One :meth:`Database.snap` per shard, gathered in one scatter."""
        return self._gather("snap")

    def _totals(self) -> dict:
        """The facade-wide :meth:`Database.snap`: the shards' summed
        key-wise, plus the global commit log's transfers.  A global
        transaction begins and ends on every shard, so the transaction
        counts are shard 0's, not the sum."""
        snaps = self._snaps()
        totals = {key: sum(snap[key] for snap in snaps) for key in snaps[0]}
        for key in ("transactions_committed", "transactions_aborted",
                    "active_transactions"):
            totals[key] = snaps[0][key]
        commit = self._commit_stats
        totals["reads"] += commit.reads
        totals["writes"] += commit.writes
        totals["log_transfers"] += commit.log_transfers
        return totals

    def _transport_statistics(self) -> dict:
        """What the transport adds to :meth:`statistics`."""
        return {}

    def close(self) -> None:
        """Release every shard engine (:meth:`Database.close`)."""
        for shard in self.shards:
            shard.close()

    # -- routing -------------------------------------------------------------

    def _route(self, page: int) -> tuple:
        """Global page id -> (shard index, shard-local page id)."""
        if not 0 <= page < self.num_data_pages:
            raise ModelError(f"page {page} outside 0..{self.num_data_pages - 1}")
        return page % self.num_shards, page // self.num_shards

    def global_page(self, shard: int, local: int) -> int:
        """Inverse of :meth:`_route`."""
        return local * self.num_shards + shard

    # -- history (global ids) ------------------------------------------------

    def _h(self, op: str, **attrs) -> None:
        if self.history is not None:
            self.history.record(op, **attrs)

    # -- bulk loading --------------------------------------------------------

    def load_pages(self, payloads: dict) -> None:
        """Bulk-load initial contents (routed full-stripe writes)."""
        split: list = [{} for _ in range(self.num_shards)]
        for page, payload in payloads.items():
            shard, local = self._route(page)
            split[shard][local] = payload
        for shard, part in zip(self.shards, split):
            if part:
                shard.load_pages(part)

    def format_record_pages(self, pages) -> None:
        """Initialize the given global pages as empty slotted pages."""
        split: list = [[] for _ in range(self.num_shards)]
        for page in pages:
            shard, local = self._route(page)
            split[shard].append(local)
        for shard, part in zip(self.shards, split):
            if part:
                shard.format_record_pages(part)

    # -- transaction API -----------------------------------------------------

    def begin(self, txn_id: int | None = None) -> int:
        """Start a global transaction: one id, registered on every
        shard (a shard it never touches just finishes it read-only)."""
        if txn_id is None:
            txn_id = self._next_txn
        self._next_txn = max(self._next_txn, txn_id + 1)
        self._gather("begin", (txn_id,))
        self._h("begin", txn=txn_id)
        return txn_id

    def grants_for(self, txn_id: int) -> bool:
        """True when no shard holds a pending wait for the transaction."""
        return all(self._gather("grants_for", (txn_id,)))

    def read_page(self, txn_id: int, page: int) -> bytes:
        shard, local = self._route(page)
        value = self.shards[shard].read_page(txn_id, local)
        self._h("read", txn=txn_id, page=page)
        return value

    def write_page(self, txn_id: int, page: int, payload: bytes) -> None:
        shard, local = self._route(page)
        self.shards[shard].write_page(txn_id, local, payload)
        self._h("write", txn=txn_id, page=page)

    def read_record(self, txn_id: int, page: int, slot: int) -> bytes:
        shard, local = self._route(page)
        value = self.shards[shard].read_record(txn_id, local, slot)
        self._h("read", txn=txn_id, page=page, slot=slot)
        return value

    def update_record(self, txn_id: int, page: int, slot: int,
                      data: bytes) -> None:
        shard, local = self._route(page)
        self.shards[shard].update_record(txn_id, local, slot, data)
        self._h("write", txn=txn_id, page=page, slot=slot)

    def insert_record(self, txn_id: int, page: int, data: bytes) -> int:
        shard, local = self._route(page)
        slot = self.shards[shard].insert_record(txn_id, local, data)
        self._h("write", txn=txn_id, page=page, slot=slot)
        return slot

    def delete_record(self, txn_id: int, page: int, slot: int) -> bytes:
        shard, local = self._route(page)
        value = self.shards[shard].delete_record(txn_id, local, slot)
        self._h("write", txn=txn_id, page=page, slot=slot)
        return value

    # -- EOT -----------------------------------------------------------------

    def commit(self, txn_id: int) -> None:
        """Commit on every shard inside one group-commit window.

        Each shard runs its normal commit processing (FORCE flushes,
        EOT records, RDA twin flips); the log forces those request are
        absorbed by the coordinator, then the global commit record is
        appended and the whole batch rides the next horizon flush.
        """
        with self.coordinator.deferred():
            self._scatter(self.scheduler.order(), "commit", (txn_id,))
            self.commit_log.append(CommitRecord(txn_id=txn_id))
            self.commit_log.force()
        self.coordinator.note_commit()
        self._h("commit", txn=txn_id)

    def abort(self, txn_id: int) -> None:
        """Roll back on every shard.  Never deferred: abort undo must be
        durable before the facade acknowledges (the WAL rule).

        A transaction one shard has pinned ``must_commit`` is refused
        *before* any shard is touched: the pinned shard would refuse on
        its own, but only after its siblings had rolled back, leaving a
        transaction that can neither commit nor abort.  Pins come only
        from an adopting media rebuild, so the flags are gathered only
        once one has run."""
        if self._pins_possible and _TxnView(self, txn_id).must_commit:
            raise RecoveryError(
                f"transaction {txn_id} lost its parity-encoded before-image "
                "to a media failure and can no longer abort")
        self._scatter(self.scheduler.order(), "abort", (txn_id,))
        self._h("abort", txn=txn_id)

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self) -> list:
        """Take an ACC checkpoint on every shard (¬FORCE only)."""
        if self.checkpointer is None:
            raise TransactionError(
                "FORCE/TOC configurations take no checkpoints")
        return self.checkpointer.checkpoint()

    def trim_log(self, archive_floor: int | None = None) -> int:
        """Trim every shard's log and the global commit log; returns
        the records discarded from all of them.

        The coordinator is drained first: trimming records whose force
        is still batch-deferred is safe only via the crash contract,
        and draining keeps every log's forced horizon pointing at
        bytes that actually exist.

        After the drain every commit-log record names a transaction
        whose shard commits are durable: no restart can find it a
        loser, so the cross-check in :meth:`recover` needs none of
        them and the commit log is emptied — it forgets when the shards
        forget, and restart stops scanning history."""
        self.coordinator.flush()
        forgotten = self.commit_log.truncate_before(
            self.commit_log.last_lsn + 1)
        return forgotten + sum(self._gather("trim_log", (archive_floor,)))

    # -- failures ------------------------------------------------------------

    def crash(self) -> None:
        """Lose main memory on every shard.

        The coordinator is drained *first* — the group-commit crash
        contract — so every acknowledged commit is durable everywhere
        before any log tail is truncated.
        """
        self.tracer.emit("db.crash")
        self._h("crash")
        self.coordinator.flush()
        self._gather("crash")
        self.commit_log.crash()
        self._pins_possible = False     # pins die with their transactions

    def recover(self, fault_hook=None) -> dict:
        """Restart every shard independently, then cross-check.

        Returns the aggregated recovery statistics with per-shard
        details under ``"shards"``.  Raises
        :class:`~repro.errors.RecoveryError` if a globally committed
        transaction surfaced as a loser on any shard — impossible under
        the crash contract, so it is checked, not handled.
        """
        # facade-level restart span: unlabeled (no shard attr), so MTTR
        # accounting sees one crash-to-ready interval covering all K
        # shard restarts (each shard emits its own labeled spans inside)
        with self.tracer.span("recovery.restart", stats=self.stats,
                              log_split=True, shards=self.num_shards):
            self.commit_log.after_crash()
            global_winners = self.commit_log.txn_ids(CommitRecord)
            per_shard = sorted(self._scatter(
                self.scheduler.order(), "recover", (fault_hook,)).items())

            winners: set = set(global_winners)
            losers: set = set()
            totals = dict.fromkeys(RESTART_COUNTERS, 0)
            for i, stats in per_shard:
                winners.update(stats["winners"])
                losers.update(stats["losers"])
                for key in totals:
                    totals[key] += stats[key]
                torn = global_winners.intersection(stats["losers"])
                if torn:
                    raise RecoveryError(
                        f"shard {i} lost globally committed transaction(s) "
                        f"{sorted(torn)}: the group-commit crash contract "
                        "was violated")
            self._h("restart")
        return {
            "winners": sorted(winners),
            "losers": sorted(losers - winners),
            **totals,
            "shards": {i: stats for i, stats in per_shard},
        }

    @property
    def num_disks(self) -> int:
        """Disks across every shard (global disk-id space)."""
        return self.num_shards * self.disks_per_shard

    def _route_disk(self, disk_id: int) -> tuple:
        """Global disk id -> (shard index, shard-local disk id).

        Global ids enumerate shard 0's disks first, then shard 1's, …
        """
        if not 0 <= disk_id < self.num_disks:
            raise ModelError(
                f"disk {disk_id} outside 0..{self.num_disks - 1}")
        return divmod(disk_id, self.disks_per_shard)

    def media_failure(self, disk_id: int) -> None:
        """Fail-stop one disk (global disk id; see :meth:`_route_disk`)."""
        shard, local = self._route_disk(disk_id)
        self.shards[shard].media_failure(local)

    def media_recover(self, disk_id: int, on_lost_undo: str = "raise"):
        """Rebuild one failed disk within its shard's parity domain."""
        shard, local = self._route_disk(disk_id)
        if on_lost_undo != "raise":
            self._pins_possible = True
        return self.shards[shard].media_recover(local, on_lost_undo)

    # -- inspection ----------------------------------------------------------

    def disk_page(self, page: int) -> bytes:
        shard, local = self._route(page)
        return self.shards[shard].disk_page(local)

    def committed_view(self, page: int) -> bytes:
        shard, local = self._route(page)
        return self.shards[shard].committed_view(local)

    def verify_parity(self) -> list:
        """(shard, group) pairs whose parity disagrees (should be [])."""
        return [(i, group) for i, shard in enumerate(self.shards)
                for group in shard.verify_parity()]

    def statistics(self) -> dict:
        """Aggregated monitoring snapshot plus sharding/commit extras."""
        return {
            **statistics_of(self._totals()),
            "shards": self.num_shards,
            "flush_horizon": self.coordinator.flush_horizon,
            "commit_log_bytes": self.commit_log.size_bytes,
            "deferred_forces": self.coordinator.deferred_forces,
            "batched_flushes": self.coordinator.flushes,
            **self._transport_statistics(),
        }
