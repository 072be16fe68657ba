"""The database facade: the paper's eight recovery configurations, live.

A :class:`Database` wires together a storage backend (constructed via
the :mod:`repro.storage.backend` registry from ``DBConfig.backend``),
the buffer pool, the lock and transaction managers, the duplexed
log(s), the RDA manager, and the recovery manager.  All configuration
branching lives in the composed :class:`~repro.db.policy.
RecoveryPolicy`; the facade just routes.  The axes:

* **page logging / record logging** — what the log carries and the lock
  granularity (page locks vs record locks);
* **FORCE + TOC / ¬FORCE + ACC** — whether commit flushes the
  transaction's pages (TOC needs no checkpoints) or leaves them dirty
  (ACC checkpoints + REDO at restart);
* **RDA / ¬RDA** — whether steals of uncommitted pages are protected by
  the parity twins (no UNDO logging when the Figure 3 rule allows) or by
  classical before-image logging.

The buffer pool's one write-back callable (:meth:`Database.
_writeback_batch`) leads to the paper's decision point: every steal
either rides the parity twins or pays for a durable before-image first
(the WAL rule is enforced, page by page, in :meth:`~repro.db.policy.
RecoveryPolicy.writeback_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..buffer import BufferPool
from ..errors import DatabaseClosedError, TransactionError
from ..obs.tracer import NULL_TRACER
from ..storage import IOStats, create_backend
from ..storage.kernels import active_tier, available_tiers
from ..storage.page import PAGE_SIZE, ZERO_PAGE
from ..txn import LockManager, LockMode, TransactionManager, TxnState
from ..wal import BOTRecord, CommitRecord, LogManager, PageBeforeImage
from .config import DBConfig
from .policy import RecoveryPolicy
from .recovery import RecoveryManager
from .slotted_page import SlottedPage


_RECORD_MODE = "record operations need record-logging mode"


class _Closed:
    """What :meth:`Database.close` leaves in place of each component it
    drops: any use raises :class:`DatabaseClosedError`."""

    __slots__ = ()

    def __getattr__(self, name: str):
        raise DatabaseClosedError("the database is closed")

    def __contains__(self, item):
        raise DatabaseClosedError("the database is closed")


_CLOSED = _Closed()


class LockWait(TransactionError):
    """The operation must wait for a lock (re-issue it after the grant).

    Raised instead of blocking: no engine ever blocks in place — a
    driver (the :mod:`repro.sim` shard scheduler, which multiplexes
    transactions over one or more shard engines round-robin) suspends
    the transaction and retries the operation when
    :meth:`Database.grants_for` reports the grant.
    """

    def __init__(self, txn_id: int, resource) -> None:
        self.txn_id = txn_id
        self.resource = resource
        super().__init__(f"transaction {txn_id} must wait for {resource!r}")

    def __reduce__(self):
        # survive the worker-protocol pickle round trip with both
        # attributes intact (the driver reads .txn_id/.resource)
        return (LockWait, (self.txn_id, self.resource))


@dataclass
class WriteCounters:
    """Empirical counters behind the model's probabilities.

    ``unlogged_steals / (unlogged_steals + logged_steals)`` is the
    measured complement of the logging probability ``p_l`` (Eq. 5).
    """

    unlogged_steals: int = 0
    logged_steals: int = 0
    committed_writebacks: int = 0
    before_images_logged: int = 0
    promotions: int = 0
    transactions_committed: int = 0
    transactions_aborted: int = 0

    @property
    def steals(self) -> int:
        """All write-backs of uncommitted pages."""
        return self.unlogged_steals + self.logged_steals

    @property
    def unlogged_fraction(self) -> float:
        """Measured 1 - p_l."""
        if self.steals == 0:
            return 0.0
        return self.unlogged_steals / self.steals


class Database:
    """A recoverable page/record store over a redundant disk array.

    Args:
        config: the recovery configuration (one of the paper's eight).
        tracer: optional :class:`~repro.obs.tracer.Tracer`; shared by
            every component so a single trace interleaves storage,
            buffer, transaction, and recovery events.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            shared likewise.
    """

    def __init__(self, config: DBConfig, tracer=None, metrics=None,
                 history=None, log_factory=None) -> None:
        self.config = config
        self.policy = RecoveryPolicy.for_config(config)
        self.stats = IOStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.history = history      # optional check.HistoryRecorder
        self.invariants = None      # optional check.InvariantEngine
        self.array = create_backend(config, stats=self.stats,
                                    tracer=self.tracer, metrics=metrics)
        self.rda = self.policy.protection.make_rda(self)
        self.buffer = BufferPool(config.buffer_capacity, self._fetch,
                                 self._writeback_batch,
                                 steal=config.steal, tracer=self.tracer,
                                 metrics=metrics)
        self.locks = LockManager()
        self.txns = TransactionManager(tracer=self.tracer, stats=self.stats,
                                       metrics=metrics)
        if log_factory is None:
            log_factory = self._default_log_factory
        self.undo_log, self.redo_log, self.checkpointer = \
            self.policy.discipline.build_logs(self, log_factory)
        self.recovery = RecoveryManager(self)
        self.counters = WriteCounters()

        if metrics is not None:
            # read from ``counters`` when the registry is exported
            metrics.counter("db.steals").labels(mode="unlogged").add_source(
                lambda: self.counters.unlogged_steals)
        self._logged_steals_published = False   # its series: at the first one
        self._forced_undo_children: dict = {}   # reason -> rda.forced_undo child
        self._slotted_cache: dict = {}   # page -> (buffered bytes, SlottedPage)
        if self.tracer.enabled:
            self.tracer.emit("kernel.tier", tier=active_tier(),
                             available=list(available_tiers()))

        # per-page bookkeeping, lost in a crash (per-transaction state
        # lives on the Transaction objects and is lost with the registry)
        # page -> its on-disk bytes, kept while an active transaction
        # has stolen the page; every write-back of the page refreshes it
        self._last_written: dict = {}
        self._residue: set = set()       # pages with committed-unflushed data

        # REDO-only class: the stand-in for each page's on-disk header
        # LSN — page -> highest chain LSN known reflected on disk.  It
        # deliberately survives crash() (it models durable state) and is
        # advanced only by _write_committed and restart's restore.
        self._durable_page_lsn: dict = {}
        if self.policy.redo_only:
            self.buffer.set_writeback_filter(
                lambda page, frame: self.policy.may_writeback(self, page,
                                                              frame))

    # -- construction helpers --------------------------------------------------------

    @staticmethod
    def _default_log_factory(db: "Database", name: str) -> LogManager:
        """Build one duplexed log charged against the engine's stats.

        The ``log_factory`` constructor argument overrides this — the
        seam :class:`~repro.db.sharded.ShardedDatabase` uses to hand its
        shards group-commit-aware logs.  A factory is called as
        ``factory(db, name)`` while ``db`` is mid-construction (config,
        stats, tracer, and metrics are already set).
        """
        return LogManager(name=name,
                          transfers_per_log_page=db.config.
                          log_transfers_per_page,
                          stats=db.stats, metrics=db.metrics)

    @property
    def num_data_pages(self) -> int:
        """S: logical pages in the database."""
        return self.array.num_data_pages

    def load_pages(self, payloads: dict) -> None:
        """Bulk-load initial contents (full-stripe writes, outside any
        transaction).  Missing pages stay zero."""
        geometry = self.array.geometry
        for group in range(geometry.num_groups):
            pages = geometry.group_pages(group)
            images = [payloads.get(p, ZERO_PAGE) for p in pages]
            if all(image == ZERO_PAGE for image in images):
                continue
            self.array.full_stripe_write(group, images)

    def format_record_pages(self, pages) -> None:
        """Initialize the given pages as empty slotted pages."""
        empty = SlottedPage.empty().to_bytes()
        self.load_pages({page: empty for page in pages})

    # -- conformance seams (see repro.check) --------------------------------------------

    def _h(self, op: str, **attrs) -> None:
        """Record one logical operation in the attached history."""
        if self.history is not None:
            self.history.record(op, **attrs)

    def _barrier(self, name: str, **ctx) -> None:
        if self.invariants is not None:
            self.invariants.barrier(name, **ctx)

    def _on_checkpoint(self, lsn: int) -> None:
        self._h("checkpoint", lsn=lsn)
        self._barrier("checkpoint", lsn=lsn)

    # -- buffer hooks -------------------------------------------------------------------

    def _fetch(self, page: int) -> bytes:
        return self.array.read_page(page)

    def _writeback_batch(self, entries: list) -> None:
        """Every write-back the pool asks for — one evicted page or a
        commit window (see :meth:`RecoveryPolicy.writeback_batch`)."""
        self.policy.writeback_batch(self, entries)

    def _publish_logged_steals(self) -> None:
        """``db.steals{mode=logged}`` joins the registry at the first
        logged steal (a method of its own: a closure built inside
        ``RecoveryPolicy.writeback_batch`` would make ``db`` a cell
        variable of the write-back loop)."""
        self._logged_steals_published = True
        self.metrics.counter("db.steals").labels(mode="logged").add_source(
            lambda: self.counters.logged_steals)

    def _ensure_undo_durable(self, page: int, modifiers) -> None:
        """Append (if deferred) and force the undo information covering
        every uncommitted modifier of this page."""
        appended = False
        for txn_id in sorted(modifiers):
            if self.policy.logging.append_steal_undo(
                    self, self.txns.get(txn_id), page):
                appended = True
        if appended or self.undo_log.forced_lsn < self.undo_log.last_lsn:
            self.undo_log.force()

    def _write_committed(self, page: int, payload: bytes,
                         old_data=None) -> None:
        """Parity-tracking write of committed (or log-protected) data."""
        self.policy.protection.write_committed(self, page, payload,
                                               old_data=old_data)
        if page in self._last_written:
            self._last_written[page] = payload
        if self.policy.redo_only:
            # the page image now reflects its whole chain (chained
            # records exist only for committed transactions, and every
            # committed change is in the written frame)
            self._durable_page_lsn[page] = self.redo_log.page_chain_head(page)

    # -- locking ------------------------------------------------------------------------------
    # Each operation below asks ``locks.acquire`` itself and raises
    # LockWait on a False: no helper frame on the read path.

    def grants_for(self, txn_id: int) -> bool:
        """True when the transaction holds no pending waits (safe to
        retry the last operation)."""
        return not self.locks.waiting(txn_id)

    # -- transaction API -----------------------------------------------------------------------

    def begin(self, txn_id: int | None = None) -> int:
        """Start a transaction; returns its id.

        ``txn_id`` pins a caller-assigned id — the sharded engine uses
        this so a global transaction carries one id across every shard
        it touches.
        """
        txn_id = self.txns.begin(txn_id=txn_id).txn_id
        if self.history is not None:
            self.history.record("begin", txn=txn_id)
        return txn_id

    def _ensure_bot(self, txn) -> None:
        if txn.bot_lsn is None:
            txn.bot_lsn = self.undo_log.append(BOTRecord(txn_id=txn.txn_id))

    def read_page(self, txn_id: int, page: int) -> bytes:
        """Read a full page under a shared page lock."""
        self.txns.require_active(txn_id)
        resource = ("page", page)
        if not self.locks.acquire(txn_id, resource, LockMode.SHARED):
            raise LockWait(txn_id, resource)
        payload = self.buffer.get_page(page)
        if self.history is not None:
            self.history.record("read", txn=txn_id, page=page)
        return payload

    def write_page(self, txn_id: int, page: int, payload: bytes) -> None:
        """Replace a full page under an exclusive page lock (page-logging
        mode only)."""
        if self.config.record_logging:
            raise TransactionError(
                "write_page is for page-logging mode; use record operations")
        if len(payload) != PAGE_SIZE:
            raise ValueError(f"page payload must be {PAGE_SIZE} bytes")
        txn = self.txns.require_active(txn_id)
        resource = ("page", page)
        if not self.locks.acquire(txn_id, resource, LockMode.EXCLUSIVE):
            raise LockWait(txn_id, resource)
        self._ensure_bot(txn)
        current = self.buffer.get_page(page)
        if page not in txn.before_images:
            txn.before_images[page] = current
            if self.policy.log_page_undo_at_first_write:
                # classical WAL: before-image logged at first modification
                self.undo_log.append(PageBeforeImage(
                    txn_id=txn_id, page_id=page, image=current))
                txn.undo_logged.add(page)
                self.counters.before_images_logged += 1
        self.buffer.put_page(page, payload, txn_id)
        txn.note_write(page)
        if self.history is not None:
            self.history.record("write", txn=txn_id, page=page)

    # -- record API (record-logging mode) ------------------------------------------------------------

    def _slotted(self, page: int) -> SlottedPage:
        payload = self.buffer.get_page(page)
        cached = self._slotted_cache.get(page)
        if cached is not None and cached[0] is payload:
            return cached[1]
        sp = SlottedPage.from_bytes(payload)
        self._slotted_cache[page] = (payload, sp)
        return sp

    def read_record(self, txn_id: int, page: int, slot: int) -> bytes:
        """Read one record under a shared record lock."""
        if not self.config.record_logging:
            raise TransactionError(_RECORD_MODE)
        self.txns.require_active(txn_id)
        resource = ("rec", page, slot)
        if not self.locks.acquire(txn_id, resource, LockMode.SHARED):
            raise LockWait(txn_id, resource)
        if self.history is not None:
            self.history.record("read", txn=txn_id, page=page, slot=slot)
        return self._slotted(page).read(slot)

    def _record_modify(self, txn_id: int, page: int, slot: int,
                       before: bytes, after: bytes, mutate) -> None:
        """Shared tail of update/insert/delete: log, mutate, buffer."""
        txn = self.txns.require_active(txn_id)
        self._ensure_bot(txn)
        self.policy.protection.maybe_promote(self, page, txn_id)
        self.policy.logging.note_record_modify(self, txn, page, slot,
                                               before, after)
        sp = self._slotted(page)
        # drop the cache entry across the mutation: if ``mutate`` raises
        # half-way, the buffered bytes are unchanged but ``sp`` is not —
        # the identity check alone would serve the poisoned parse
        self._slotted_cache.pop(page, None)
        mutate(sp)
        data = sp.to_bytes()
        self.buffer.put_page(page, data, txn_id)
        self._slotted_cache[page] = (data, sp)
        txn.note_record_write(page, slot)
        if self.history is not None:
            self.history.record("write", txn=txn_id, page=page, slot=slot)

    def update_record(self, txn_id: int, page: int, slot: int,
                      data: bytes) -> None:
        """Overwrite one record under an exclusive record lock."""
        if not self.config.record_logging:
            raise TransactionError(_RECORD_MODE)
        self.txns.require_active(txn_id)
        resource = ("rec", page, slot)
        if not self.locks.acquire(txn_id, resource, LockMode.EXCLUSIVE):
            raise LockWait(txn_id, resource)
        before = self._slotted(page).read(slot)
        self._record_modify(txn_id, page, slot, before, data,
                            lambda sp: sp.update(slot, data))

    def insert_record(self, txn_id: int, page: int, data: bytes) -> int:
        """Insert a record; returns its slot.  Takes an exclusive *page*
        lock (structure modification)."""
        if not self.config.record_logging:
            raise TransactionError(_RECORD_MODE)
        self.txns.require_active(txn_id)
        resource = ("page", page)
        if not self.locks.acquire(txn_id, resource, LockMode.EXCLUSIVE):
            raise LockWait(txn_id, resource)
        sp = self._slotted(page)
        probe = SlottedPage.from_bytes(sp.to_bytes())
        slot = probe.insert(data)       # find the slot without mutating
        resource = ("rec", page, slot)
        if not self.locks.acquire(txn_id, resource, LockMode.EXCLUSIVE):
            raise LockWait(txn_id, resource)
        self._record_modify(txn_id, page, slot, b"", data,
                            lambda target: target.insert(data))
        return slot

    def delete_record(self, txn_id: int, page: int, slot: int) -> bytes:
        """Delete a record under an exclusive record lock; returns the
        removed bytes."""
        if not self.config.record_logging:
            raise TransactionError(_RECORD_MODE)
        self.txns.require_active(txn_id)
        resource = ("rec", page, slot)
        if not self.locks.acquire(txn_id, resource, LockMode.EXCLUSIVE):
            raise LockWait(txn_id, resource)
        before = self._slotted(page).read(slot)
        self._record_modify(txn_id, page, slot, before, b"",
                            lambda sp: sp.delete(slot))
        return before

    # -- EOT -------------------------------------------------------------------------------------------

    def commit(self, txn_id: int) -> None:
        """Commit: force pages (FORCE) or just the log (¬FORCE), write
        the EOT record, release locks."""
        txn = self.txns.require_active(txn_id)
        if txn.is_update_transaction:
            self._ensure_bot(txn)
            self.policy.discipline.flush_at_commit(self, txn_id)
            self.policy.logging.append_commit_images(self, txn)
            self.redo_log.append(CommitRecord(txn_id=txn_id))
            self.undo_log.force()
            self.redo_log.force()
            flipped = self.policy.protection.commit_flips(self, txn_id)
            if self.history is not None:
                for group in flipped:
                    self._h("flip", txn=txn_id, group=group)
            self.buffer.clear_modifier(txn_id)
            self.policy.discipline.note_commit_residue(self, txn)
        self.locks.release_all(txn_id)
        self.txns.finish(txn_id, TxnState.COMMITTED)
        self._forget(txn)
        self.counters.transactions_committed += 1
        if self.history is not None:
            self.history.record("commit", txn=txn_id)
        if self.invariants is not None:
            self.invariants.barrier("commit", txn=txn_id)

    def abort(self, txn_id: int) -> None:
        """Roll the transaction back (parity twins and/or log) and
        release its locks."""
        self.recovery.abort(txn_id)
        self._h("abort", txn=txn_id)
        self._barrier("abort", txn=txn_id)

    # -- checkpoints ------------------------------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Take an ACC checkpoint (¬FORCE configurations only)."""
        if self.checkpointer is None:
            raise TransactionError(
                "FORCE/TOC configurations take no checkpoints")
        return self.checkpointer.checkpoint()

    def trim_log(self, archive_floor: int | None = None) -> int:
        """Discard log records no future recovery can need.

        The safe point is the minimum of: the oldest active
        transaction's BOT (its undo must stay reachable); the restart
        anchor (under ¬FORCE/ACC the last checkpoint — with none yet,
        nothing can be trimmed, because committed data may exist only in
        the log; FORCE/TOC appends one here); and ``archive_floor`` —
        pass the ``dump_lsn`` of the oldest
        :class:`~repro.db.archive.ArchiveCopy` you still intend to roll
        forward from, or leave None if archive media recovery is not in
        use.  Returns the number of records discarded.
        """
        # the log is about to drop finished transactions' records: the
        # registry forgets with it
        self.txns.forget_finished()
        candidates = [self.undo_log.last_lsn + 1]
        for txn in self.txns.active_transactions():
            if txn.bot_lsn is not None:
                candidates.append(txn.bot_lsn)
        if archive_floor is not None:
            candidates.append(archive_floor + 1)
        return self.policy.discipline.trim_log(self, candidates,
                                               archive_floor)

    # -- failures ----------------------------------------------------------------------------------------------

    def crash(self) -> None:
        """Lose main memory: buffer, lock table, transaction registry,
        Dirty_Set, unforced log tails."""
        self.tracer.emit("db.crash")
        self._h("crash")
        self.buffer.invalidate_all()
        self.locks = LockManager()
        self.txns.lose_memory()
        self.policy.protection.lose_memory(self)
        self.undo_log.crash()
        if self.redo_log is not self.undo_log:
            self.redo_log.crash()
        self._last_written.clear()
        self._residue.clear()
        self._slotted_cache.clear()
        # _durable_page_lsn survives: it models on-disk page headers

    def recover(self, fault_hook=None) -> dict:
        """Restart after :meth:`crash`; returns recovery statistics.

        ``fault_hook`` is a test seam: called before each recovery
        write; raising from it simulates a crash during recovery.
        """
        stats = self.recovery.crash_recover(fault_hook=fault_hook)
        self._h("restart")
        self._barrier("restart")
        return stats

    def media_failure(self, disk_id: int) -> None:
        """Fail-stop one disk of the array."""
        self.array.fail_disk(disk_id)

    def media_recover(self, disk_id: int, on_lost_undo: str = "raise"):
        """Rebuild a failed disk from the surviving redundancy."""
        return self.recovery.media_recover(disk_id, on_lost_undo=on_lost_undo)

    # -- bookkeeping --------------------------------------------------------------------------------------------

    def _forget(self, txn) -> None:
        """A finished transaction stays registered until ``trim_log``;
        the images it holds must not."""
        txn.before_images.clear()
        txn.pending_undo.clear()
        txn.pending_redo.clear()
        stolen = txn.pages_stolen
        if stolen:
            # a page's on-disk bytes stay known only while some other
            # active transaction has stolen it too
            others = [t.pages_stolen for t in self.txns.active_transactions()]
            for page in stolen.difference(*others):
                self._last_written.pop(page, None)

    def close(self) -> None:
        """Release the engine: drop the array, buffer, locks, logs and
        caches, so their memory goes back at once rather than when the
        cyclic collector next runs.  Every later operation raises
        :class:`~repro.errors.DatabaseClosedError`.  Idempotent."""
        # a registry's sources read the layers and the layers hold the
        # registry: cut the layers' side so neither keeps the other
        for layer in (self.array, self.rda):
            if layer is not None and layer is not _CLOSED:
                layer.metrics = None
        for name in ("array", "rda", "buffer", "locks", "txns", "undo_log",
                     "redo_log", "checkpointer", "recovery"):
            setattr(self, name, _CLOSED)
        self.metrics = self.invariants = None
        self._forced_undo_children = {}
        self._slotted_cache = {}
        self._last_written = {}
        self._residue = set()
        self._durable_page_lsn = {}

    # -- inspection (tests/examples; uncounted) ------------------------------------------------------------------

    def disk_page(self, page: int) -> bytes:
        """On-disk bytes of a page (no buffer, no accounting)."""
        return self.array.peek_page(page)

    def committed_view(self, page: int) -> bytes:
        """The page as a new reader would see it (buffer-first)."""
        current = self.buffer.get_if_resident(page)
        return current if current is not None else self.array.peek_page(page)

    def verify_parity(self) -> list:
        """Groups whose parity disagrees with their data (should be [])."""
        return self.array.scrub()

    def snap(self) -> dict:
        """Every counter the monitoring views read, as one flat dict of
        plain numbers: the unit a sharded facade sums key-wise and a
        shard worker ships over its pipe."""
        buf = self.buffer.stats
        return {
            "reads": self.stats.reads,
            "writes": self.stats.writes,
            "log_transfers": self.stats.log_transfers,
            "hits": buf.hits,
            "misses": buf.misses,
            "evictions": buf.evictions,
            "dirty_evictions": buf.dirty_evictions,
            "buffer_steals": buf.steals,
            **vars(self.counters),
            "active_transactions": len(self.txns.active_transactions()),
            "undo_log_bytes": self.undo_log.size_bytes,
            "redo_log_bytes": self.redo_log.size_bytes,
            "dirty_groups": (len(self.rda.dirty_set)
                             if self.rda is not None else 0),
        }

    def txn_flags(self, txn_id: int) -> dict:
        """What a sharded facade's transaction view reads of one
        registered transaction (raises on an unknown id)."""
        txn = self.txns.get(txn_id)
        return {"must_commit": txn.must_commit, "is_active": txn.is_active,
                "state": txn.state, "is_update": txn.is_update_transaction}

    def statistics(self) -> dict:
        """A monitoring snapshot: transfers, buffer behaviour, steal
        accounting, log sizes, dirty groups, active transactions."""
        return statistics_of(self.snap())


def statistics_of(snap: dict) -> dict:
    """The monitoring view of one :meth:`Database.snap` dict, or of the
    key-wise sum of several (a sharded facade's)."""
    references = snap["hits"] + snap["misses"]
    stats = {
        "page_transfers": snap["reads"] + snap["writes"],
        "reads": snap["reads"],
        "writes": snap["writes"],
        "buffer_hit_ratio": snap["hits"] / references if references else 0.0,
    }
    for key in ("buffer_steals", "unlogged_steals", "logged_steals",
                "before_images_logged", "promotions",
                "transactions_committed", "transactions_aborted",
                "active_transactions", "undo_log_bytes", "redo_log_bytes",
                "dirty_groups"):
        stats[key] = snap[key]
    return stats
