"""True multicore sharding: K shard engines in K processes.

The in-process :class:`~repro.db.sharded.ShardedDatabase` runs K shard
engines on one Python thread, taking turns.  This module is its second
*transport*: the facade, its views and every cross-shard operation are
the inherited ones, but shards 0 … K − 2 each live in a worker OS
process, driven over a typed command/reply protocol, and the facade's
own process serves shard K − 1 through the same command body — Wu et
al.'s per-core-logging blueprint (*Fast Failure Recovery for
Main-Memory DBMSs on Multicores*): one partition per core, the
coordinator on one of those cores rather than on a core of its own,
per-shard WALs, one cross-shard barrier, and restart recovery that fans
out to every shard concurrently.

**The hosted shard.**  :class:`_HostedShard` has a worker handle's
interface and no pipe: ``send`` runs :meth:`_WorkerState.execute` (the
worker loop's per-command body) on the facade's thread and holds the
reply, ``recv`` hands it over, and its events are ingested at its place
in the scheduler order, as a worker's are.  A scatter sends to every
worker first and runs the hosted shard's command last, so its work
overlaps theirs.  It cannot die: it keeps no journal, and the death
seams (:meth:`WorkerSupervisor.kill`, :meth:`~WorkerSupervisor.
arm_death`) refuse it.  At K = 1 no worker is spawned.

**Protocol.**  One duplex pipe per worker; a frame is one plain
``pickle`` (protocol 5) over ``send_bytes``.  A command is
``(op, args, oneway)``, ``op`` a key of the shared
:data:`~repro.db.sharded.SHARD_OPS` table (or one of the few
worker-only ``_WORKER_OPS``); a reply is
``(status, value, events, gc, failed)`` where ``status`` is
``"ok"``/``"err"`` (``value`` is the result or the pickled exception,
re-raised at the facade), ``events`` is the batch of tracer events the
worker produced since its last reply (merged into the facade trace via
:meth:`~repro.obs.tracer.Tracer.ingest`, in per-shard dispatch order,
so the merge is deterministic), ``gc`` is the worker coordinator's
cumulative deferred-force count (folded into the facade coordinator's
accounting against a per-worker watermark) and ``failed`` reports
one-way commands that raised (below).  Cross-shard operations
(begin/commit/abort/crash/recover/flush) are *scatter-gather*: the
facade sends the command to every shard before collecting any reply,
so all K engines execute concurrently; replies are consumed in
scheduler order, which keeps the observable stream byte-identical to
the in-process engine.

**One-way commands.**  A round trip costs two cross-CPU wake-ups
(≈ 75 of its ≈ 95 µs), far more than the command it carries, so a
command marked ``oneway`` is executed in arrival order and *never
answered*.  The transport sends a command one-way exactly when it can
prove, from the commands it has already carried, that nobody needs its
result and that it cannot raise an error its caller is entitled to see
at that call:

* ``write_page`` — when no *other* live transaction has sent a
  ``read_page``/``write_page`` for the page (:class:`_WorkerHandle`
  keeps that map; every lock request and release of a shard is a
  command passing through its handle).  The shard's lock table holds
  entries of live transactions only, so the lock is free or held by
  the writer alone and :meth:`LockManager.acquire` grants it at once;
  payload length, page range and "transaction is live" are checked
  facade-side.  Any other write is a blocking call and raises
  ``LockWait``/``DeadlockError`` from ``write_page`` itself.
* ``begin`` — when its id is greater than every id the handle has
  carried (facade-assigned ids always are), so the shard's registry
  can neither hold nor have spent it.

Nothing is one-way under NO-STEAL (``BufferFullError`` is the caller's
to handle), no write is one-way under REDO-only (its write-behind gate
can refuse a frame with the same error) and record operations always
block (page overflow and dead slots depend on shard state); all three
are read off the shard's ``DBConfig``.  What a one-way ``write_page``
can still hit is a storage fault on its buffer miss — the class of
error that can already strike inside commit's FORCE flush.
*Hold-and-fail:* the worker holds such an error against the
transaction and fails every later command naming it — the shard never
commits a transaction whose write it lost — until
``abort`` clears the hold and rolls back; the error also rides the
``failed`` field of the worker's next reply, and the facade raises it
from that transaction's next routed call without sending anything.

**The coordinator is the only barrier.**  Each shard server (a worker
or the hosted shard) owns a *local*
:class:`~repro.wal.group_commit.GroupCommitCoordinator`; its own
``commit`` handler opens the deferral window around its shard commit,
so WAL-rule forces stay synchronous inside the server and
``durable_lsn``/``covers`` semantics are evaluated where the log lives
— no per-force message crosses a process boundary.  The facade-side
:class:`_FacadeCoordinator` counts commits against the flush horizon.
The commit that reaches the horizon carries the flush with it (each
worker drains its pendings right after its shard commit, before the
facade forces the commit-log record that follows them); every other
drain — ``crash``, ``trim_log``, an explicit flush — broadcasts one
``gc_flush``, and only if some shard has deferred a force since it
last drained.

**Crash propagation.**  Every state-changing command, one-way or not,
is journaled at the facade *before* it is sent.  If a worker dies
(nemesis kill, fault injection), the supervisor respawns it and replays
the journal — the engines are deterministic, so the rebuilt worker
converges to the state in which every journaled command, including one
in flight at death, has fully executed; a scatter command therefore
executes on *all* shards or is never sent, preserving cross-shard
commit atomicity.  The interrupted facade call then raises
:class:`WorkerCrashed` — for a death under a one-way command, the call
that next reads a reply from that handle (or finds its pipe broken) —
which drivers treat like a crash signal: run :meth:`crash` (the
group-commit drain contract — the healed worker's replayed pending
forces are flushed before memory is lost) and :meth:`recover`, then
resolve any in-doubt commit against the recovered winner set.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import pickle
import signal
import sys
import weakref

from ..errors import ModelError, RecoveryError
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer, decode
from ..storage.page import PAGE_SIZE
from ..wal import GroupCommitCoordinator, GroupCommitLog
from .config import DBConfig
from .database import Database
from .sharded import SHARD_OPS, ShardedDatabase, shard_info


def _truthy(value: str | None) -> bool:
    return (value or "").strip().lower() in ("1", "on", "true", "yes")


def workers_enabled_by_env() -> bool:
    """True when ``REPRO_WORKERS`` asks for worker-process shards."""
    return _truthy(os.environ.get("REPRO_WORKERS"))


def make_sharded(config: DBConfig, shards: int = 2, flush_horizon: int = 1,
                 tracer=None, metrics=None, history=None,
                 workers: bool | None = None):
    """Build the K-way engine: in-process or worker-process shards.

    ``workers=None`` honors the ``REPRO_WORKERS`` environment variable
    (the CI worker-mode leg runs the whole suite with it set).
    """
    if workers is None:
        workers = workers_enabled_by_env()
    cls = WorkerShardedDatabase if workers else ShardedDatabase
    return cls(config, shards=shards, flush_horizon=flush_horizon,
               tracer=tracer, metrics=metrics, history=history)


class WorkerCrashed(RecoveryError):
    """A shard worker process died under a facade call.

    By the time this surfaces the supervisor has already respawned the
    worker and replayed its command journal, so the engine is whole;
    the *reply* of the interrupted command is what was lost.  Treat it
    like a crash signal: run ``crash()`` + ``recover()`` and resolve an
    in-doubt commit against the recovered winners.
    """

    def __init__(self, shard: int, op: str | None = None) -> None:
        self.shard = shard
        self.op = op
        suffix = f" during {op!r}" if op else ""
        super().__init__(f"shard {shard} worker died{suffix}")

    def __reduce__(self):
        return (WorkerCrashed, (self.shard, self.op))


# ---------------------------------------------------------------- worker side


@dataclasses.dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its shard engine."""

    shard: int
    config: DBConfig            # already split via shard_config
    traced: bool
    with_metrics: bool


class _ListSink:
    """Per-command record buffer: drained, as event dicts, into each
    reply (a shape id means nothing in another process)."""

    flush_every = sys.maxsize       # drained per command, never flushed

    def __init__(self) -> None:
        self.pending: list = []

    def drain(self) -> list:
        events = [decode(record) for record in self.pending]
        self.pending.clear()
        return events

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class _WorkerState:
    """One shard's command server: engine, coordinator, sink, fault arm
    and the one-way failures held against transactions.  A worker
    process serves its pipe with one, the facade serves its hosted shard
    with another: both run every command through :meth:`execute`."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.sink = _ListSink() if spec.traced else None
        self.tracer = Tracer(self.sink) if spec.traced else NULL_TRACER
        metrics = MetricsRegistry() if spec.with_metrics else None
        coordinator = self.coordinator = GroupCommitCoordinator(
            flush_horizon=1)

        def log_factory(db: Database, name: str) -> GroupCommitLog:
            return GroupCommitLog(
                name=name,
                transfers_per_log_page=db.config.log_transfers_per_page,
                stats=db.stats, metrics=db.metrics, coordinator=coordinator)

        self.db = Database(spec.config, tracer=self.tracer, metrics=metrics,
                           log_factory=log_factory)
        self.die_on: str | None = None      # test seam: exit inside a handler
        # txn -> the error one of its one-way commands raised, and the
        # part of that no reply has reported yet
        self.held: dict = {}
        self.failed: dict = {}

    def reply(self, status: str, value) -> tuple:
        """``(status, value, events, gc, failed)``: the events since the
        last reply, the cumulative deferred-force count, and the held
        failures no reply has reported yet."""
        events = self.sink.drain() if self.sink is not None else ()
        failed, self.failed = self.failed, {}
        return status, value, events, self.coordinator.deferred_forces, failed

    def execute(self, op: str, args: tuple, oneway: bool) -> tuple | None:
        """Run one command: its reply, or None when it is one-way (a
        one-way failure is held against its transaction instead)."""
        held = self.held
        try:
            if op in _TXN_OPS and args[0] in held:
                # hold-and-fail: the shard lost one of this
                # transaction's writes, so it may roll back, nothing else
                if op != "abort":
                    raise held[args[0]]
                del held[args[0]]
                self.failed.pop(args[0], None)
            handler = _WORKER_OPS.get(op)
            value = (handler(self, *args) if handler is not None
                     else SHARD_OPS[op](self.db, *args))
            status = "ok"
            if op == "crash":
                held.clear()        # the transactions died with memory
                self.failed.clear()
        except Exception as exc:                    # noqa: BLE001
            value = _picklable(exc)
            status = "err"
        if not oneway:
            return self.reply(status, value)
        if status == "err" and args[0] not in held:
            held[args[0]] = self.failed[args[0]] = value
        return None


def _die() -> None:
    """Simulated worker death: immediate, no cleanup, no reply."""
    os._exit(17)


def _h_commit(state: _WorkerState, txn_id: int,
              drain: bool = False) -> int | None:
    """``drain``: this is the commit that reaches the facade's flush
    horizon — force the local pendings right after the shard commit and
    return how many logs that forced (the horizon flush, folded into
    the commit message)."""
    if state.die_on == "before_commit":
        _die()                      # mid-commit-window: others may commit
    with state.coordinator.deferred():
        state.db.commit(txn_id)
    if state.die_on == "after_commit":
        _die()                      # committed locally, reply never sent
    return _h_gc_flush(state) if drain else None


def _h_gc_flush(state: _WorkerState) -> int:
    if state.die_on == "mid_flush" and state.coordinator._pending:
        # force one pending log, then die mid-batch: a torn batched
        # flush, finished by journal replay (the drain contract)
        state.coordinator._pending[0].force_now()
        state.coordinator._pending.pop(0)
        _die()
    return state.coordinator.flush()


def _h_attach_invariants(state: _WorkerState, rules) -> bool:
    from ..check.invariants import InvariantEngine
    InvariantEngine.attach(state.db, rules)
    return True


def _h_invariant_state(state: _WorkerState) -> tuple:
    engine = state.db.invariants
    if engine is None:
        return [], {}
    return list(engine.violations), dict(engine.barrier_counts)


# What only a worker does, ``op -> function(state, *args)``; every other
# op is looked up in the shared :data:`~repro.db.sharded.SHARD_OPS`.
_WORKER_OPS = {
    "commit": _h_commit,            # opens the local deferral window
    "gc_flush": _h_gc_flush,        # the facade coordinator's broadcast
    "attach_invariants": _h_attach_invariants,
    "invariant_state": _h_invariant_state,
    "ping": lambda s: "pong",
}

# Commands that change engine state are journaled by the facade and
# replayed after a worker death; everything else is a pure query whose
# reply the caller can simply re-request.  Reads are state-changing:
# they touch the lock table, the buffer's replacement state, and the
# hit counters.  ``committed_view`` reads through the buffer (hit
# accounting), so it is journaled too.
_MUTATING = frozenset({
    "begin", "read_page", "write_page", "read_record", "update_record",
    "insert_record", "delete_record", "commit", "abort",
    "note_work", "maybe_checkpoint", "checkpoint", "trim_log", "gc_flush",
    "crash", "recover", "media_failure", "media_recover",
    "load_pages", "format_record_pages", "committed_view",
    "attach_invariants",
})


# Commands whose first argument names the transaction they serve: the
# ones a held one-way failure refuses (``abort`` clears the hold).
_TXN_OPS = frozenset({
    "read_page", "write_page", "read_record", "update_record",
    "insert_record", "delete_record", "commit", "abort",
})

# The commands that request a page lock in page-logging mode, the only
# mode that sends writes one-way: ``(txn_id, page, ...)``.
_PAGE_OPS = frozenset({"read_page", "write_page"})


def _picklable(exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _send(conn, message: tuple) -> None:
    """One frame: plain pickle (protocol 5) over ``send_bytes`` —
    ``Connection.send`` would route every message through the slower
    ``ForkingPickler``, whose reducers nothing on this pipe needs."""
    conn.send_bytes(pickle.dumps(message, 5))


def _recv(conn) -> tuple:
    return pickle.loads(conn.recv_bytes())


def _worker_main(conn, spec: WorkerSpec) -> None:
    """The worker process entry point: build the shard engine, serve
    commands until shutdown.  Importable at module level so the spawn
    start method works everywhere fork does."""
    # a forked child inherits the parent's live tracers (and their
    # buffered sinks); drop them so nothing in this process can flush
    # a duplicate tail into the parent's trace file
    from ..obs import tracer as tracer_mod
    tracer_mod._LIVE_TRACERS.clear()

    state = _WorkerState(spec)
    _send(conn, state.reply("ok", shard_info(state.db)))

    # clean exits *return* rather than os._exit: the multiprocessing
    # bootstrap then finishes normally, letting subprocess coverage
    # (and any other bootstrap-level finalizer) flush before the
    # start-method machinery calls os._exit itself.  Only the injected
    # deaths (_die) take the hard-exit path.
    while True:
        try:
            op, args, oneway = _recv(conn)
        except (EOFError, OSError):
            return
        try:
            if op == "shutdown":
                _send(conn, state.reply("ok", None))
                return
            if op == "die":
                when, = args
                if when == "now":
                    _die()
                state.die_on = when
                _send(conn, state.reply("ok", when))
                continue
            if state.die_on == "next_command":
                _die()
            message = state.execute(op, args, oneway)
            if message is not None:
                _send(conn, message)
        except (BrokenPipeError, OSError):
            return


# ---------------------------------------------------------------- supervisor


def _mp_context():
    """fork where available (Linux), spawn elsewhere; ``REPRO_MP_START``
    overrides (the per-platform pin tests/conftest.py applies to the
    *global* start method does not bind this private context)."""
    name = os.environ.get("REPRO_MP_START")
    if not name:
        name = ("fork" if "fork" in mp.get_all_start_methods()
                else "spawn")
    return mp.get_context(name)


def _reap(procs: list) -> None:
    """Hard-stop any still-running worker processes (GC/exit backstop)."""
    for proc in procs:
        try:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        except Exception:                           # noqa: BLE001
            pass


class _ShardHandle:
    """One shard the facade drives by command: the one-way filter and
    the reply bookkeeping, whatever carries the commands.
    :class:`_WorkerHandle` carries them over a pipe to a worker process;
    :class:`_HostedShard` runs them in the facade's own process.

    **The filter.**  Every lock request and release of the shard passes
    through here as a command, so the handle can tell which pages the
    shard's *live* transactions may hold or wait for: ``_pages`` maps a
    page to the transactions that sent ``read_page``/``write_page`` for
    it (noted at send, so a request that only queued counts), emptied
    per transaction once its ``commit``/``abort`` is acknowledged and
    wholesale by ``crash``.  It errs towards "touched" only: a
    transaction stays in it until the shard has *said* it released.
    ``_live`` is the opposite bound — transactions proven active (their
    ``begin`` was acknowledged, or was sent one-way under a fresh id).
    """

    def __init__(self, supervisor: "WorkerSupervisor", shard: int,
                 spec: WorkerSpec) -> None:
        self.supervisor = supervisor
        self.shard = shard
        self.spec = spec
        self.info: dict = {}
        self._awaited: tuple = ()           # args of the command recv() answers
        self._gc_seen = 0
        self.owes_flush = False             # deferred forces not yet drained
        # under NO-STEAL, and under REDO-only's write-behind gate, a
        # write can raise BufferFullError, which its caller handles;
        # record operations depend on page contents
        config = spec.config
        self._oneway = config.steal
        self._oneway_writes = (self._oneway and not config.record_logging
                               and not config.redo_only)
        self._pages: dict = {}              # page -> live txns that touched it
        self._touched: dict = {}            # txn -> pages it touched
        self._live: set = set()             # txns proven active on the shard
        self._max_txn = 0                   # highest txn id carried so far
        self._failed: dict = {}             # txn -> held one-way error

    def call(self, op: str, *args):
        if (self._failed and op in _TXN_OPS and op != "abort"
                and args[0] in self._failed):
            raise self._failed[args[0]]     # the shard would refuse it too
        if op == "write_page" and self._write_is_free(*args):
            return self.post(op, args)
        self.send(op, args)
        return self.recv(op)

    def _accept(self, reply: tuple, op: str):
        """Take in one reply: its events, deferrals and held failures;
        its value, or its error raised."""
        status, value, events, gc, failed = reply
        self._absorb(events, gc)
        if failed:
            self._failed.update(failed)
        if status == "err":
            raise value
        self._settle(op, self._awaited, value)
        return value

    # -- the filter ----------------------------------------------------------

    def _note(self, op: str, args: tuple, oneway: bool) -> None:
        """What sending a command tells the filter."""
        if op in _PAGE_OPS and len(args) > 1:
            self._pages.setdefault(args[1], set()).add(args[0])
            self._touched.setdefault(args[0], set()).add(args[1])
        elif op == "begin" and args and type(args[0]) is int:
            # spent from here on, whatever becomes of the reply
            self._max_txn = max(self._max_txn, args[0])
            if oneway:
                self._live.add(args[0])

    def begin_is_fresh(self, txn_id=None) -> bool:
        """True when ``begin(txn_id)`` cannot be refused: the id is past
        every id this handle has carried, so the shard's registry has
        neither registered nor spent it."""
        return (self._oneway and type(txn_id) is int
                and txn_id > self._max_txn)

    def _write_is_free(self, txn_id, page, payload) -> bool:
        """True when ``write_page`` can neither wait nor be refused: the
        transaction is live, the arguments are well-formed, and no
        *other* live transaction has touched the page — the shard's
        lock table holds entries of live transactions only, and the
        sole toucher's S -> X upgrade is immediate."""
        if not (self._oneway_writes and txn_id in self._live
                and type(page) is int
                and 0 <= page < self.info["num_data_pages"]
                and type(payload) is bytes and len(payload) == PAGE_SIZE):
            return False
        touchers = self._pages.get(page)
        return not touchers or (len(touchers) == 1 and txn_id in touchers)

    def _settle(self, op: str, args: tuple, value) -> None:
        """What an acknowledged command proves."""
        if op == "begin":
            self._live.add(value)
            self._max_txn = max(self._max_txn, value)
        elif op == "commit" or op == "abort":
            txn_id = args[0]
            self._live.discard(txn_id)
            self._failed.pop(txn_id, None)
            for page in self._touched.pop(txn_id, ()):
                touchers = self._pages[page]
                touchers.discard(txn_id)
                if not touchers:
                    del self._pages[page]
            if len(args) > 1 and args[1]:
                self.owes_flush = False     # the commit drained as well
        elif op == "gc_flush":
            self.owes_flush = False
        elif op == "crash":
            self._pages.clear()
            self._touched.clear()
            self._live.clear()
            self._failed.clear()

    def _absorb(self, events, gc_cumulative: int) -> None:
        self.supervisor.absorb(self.shard, events)
        delta = gc_cumulative - self._gc_seen
        self._gc_seen = gc_cumulative
        if delta > 0:
            self.owes_flush = True
            self.supervisor.coordinator.absorb_deferred(delta)


class _WorkerHandle(_ShardHandle):
    """One worker: process + pipe + command journal.

    The journal holds every state-changing command ever sent, one-way
    or not.  On death, :meth:`heal` respawns the process and replays it
    — replies (and their event batches) are discarded, because the
    facade already consumed the acknowledged prefix and the in-flight
    command's reply is reported lost via :class:`WorkerCrashed`.
    """

    def __init__(self, supervisor: "WorkerSupervisor", shard: int,
                 spec: WorkerSpec) -> None:
        super().__init__(supervisor, shard, spec)
        self.journal: list = []             # (op, args, oneway)
        self._proc = None
        self._conn = None
        self._reply_lost = False
        self._spawn(replaying=False)

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, replaying: bool) -> None:
        ctx = self.supervisor.ctx
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=_worker_main, args=(child_conn, self.spec),
                           name=f"repro-shard-{self.shard}", daemon=True)
        proc.start()
        child_conn.close()
        self._proc = proc
        self._conn = parent_conn
        self.supervisor.track(proc)
        # handshake: static shard facts + construction events
        status, info, events, gc, _ = _recv(self._conn)
        if status != "ok":                          # pragma: no cover
            raise RecoveryError(f"shard {self.shard} worker failed to start")
        self.info = info
        if not replaying:
            self._absorb(events, gc)

    def heal(self) -> None:
        """Respawn the dead worker and replay its journal.

        Deterministic engines make the replayed worker converge to the
        state where every journaled command has fully executed —
        including one that was in flight when the process died."""
        if self._proc is not None and self._proc.is_alive():
            self._proc.kill()
        if self._proc is not None:
            self._proc.join(timeout=5.0)
        if self._conn is not None:
            self._conn.close()
        before = self._gc_seen
        self._gc_seen = 0
        self._spawn(replaying=True)
        # windowed replay: keep at most a handful of commands in flight
        # so neither direction of the pipe fills up (an unbounded send
        # loop deadlocks once both OS pipe buffers are full)
        gc = 0
        outstanding = 0
        for command in self.journal:
            _send(self._conn, command)
            if command[2]:
                continue                    # one-way: nothing comes back
            outstanding += 1
            if outstanding >= 16:
                gc = _recv(self._conn)[3]
                outstanding -= 1
        while outstanding:
            gc = _recv(self._conn)[3]
            outstanding -= 1
            # replies discarded: already consumed before the death (a
            # held one-way failure is rebuilt worker-side by the replay)
        # the in-flight command's deferral delta was lost with its
        # reply; reconcile the facade coordinator against the replayed
        # cumulative count so the accounting stays exact
        self._gc_seen = before
        self._absorb((), gc)
        self.supervisor.on_heal(self.shard)

    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker (the ``worker_kill`` nemesis)."""
        if self._proc is not None and self._proc.is_alive():
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join(timeout=5.0)

    def shutdown(self) -> None:
        try:
            _send(self._conn, ("shutdown", (), False))
            _recv(self._conn)
        except (BrokenPipeError, EOFError, OSError):
            pass
        if self._proc is not None:
            self._proc.join(timeout=2.0)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join(timeout=1.0)
        if self._conn is not None:
            self._conn.close()

    # -- protocol ------------------------------------------------------------

    def send(self, op: str, args: tuple) -> None:
        self._reply_lost = self._dispatch(op, args, False)
        self._awaited = args

    def post(self, op: str, args: tuple) -> None:
        """Send one-way: journaled and executed like any command, never
        answered.  A failure is held against its transaction by the
        worker and rides the next reply (``failed``)."""
        if self._dispatch(op, args, True):
            # there is no reply to hang the news on
            raise WorkerCrashed(self.shard, op)

    def _dispatch(self, op: str, args: tuple, oneway: bool) -> bool:
        """Journal, note and send one command; True if the pipe was
        found broken (the worker is healed by then, and its replay has
        run the command: journaled first)."""
        if op in _MUTATING:
            self.journal.append((op, args, oneway))
        self._note(op, args, oneway)
        try:
            _send(self._conn, (op, args, oneway))
        except (BrokenPipeError, OSError):
            self.heal()
            return True
        return False

    def recv(self, op: str):
        if self._reply_lost:
            self._reply_lost = False
            raise WorkerCrashed(self.shard, op)
        try:
            reply = _recv(self._conn)
        except (EOFError, OSError):
            self.heal()
            raise WorkerCrashed(self.shard, op) from None
        return self._accept(reply, op)


class _HostedShard(_ShardHandle):
    """The last shard, served in the facade's own process: ``send`` runs
    the worker loop's command body (:meth:`_WorkerState.execute`) here
    and holds its reply for ``recv``.  No pipe and no process, so no
    journal, no death and nothing to heal."""

    def __init__(self, supervisor: "WorkerSupervisor", shard: int,
                 spec: WorkerSpec) -> None:
        super().__init__(supervisor, shard, spec)
        self.state = _WorkerState(spec)
        self._reply: tuple | None = None
        _, self.info, events, gc, _ = self.state.reply(
            "ok", shard_info(self.state.db))
        self._absorb(events, gc)

    def send(self, op: str, args: tuple) -> None:
        self._note(op, args, False)
        self._reply = self.state.execute(op, args, False)
        self._awaited = args

    def post(self, op: str, args: tuple) -> None:
        self._note(op, args, True)
        self.state.execute(op, args, True)

    def recv(self, op: str):
        reply, self._reply = self._reply, None
        return self._accept(reply, op)

    def shutdown(self) -> None:
        self.state.db.close()
        self.state.tracer.close()


class WorkerSupervisor:
    """Owns the K shards of a worker engine: shards 0 … K − 2 in worker
    processes (``handles``), shard K − 1 in the facade's own process
    (``hosted``), so K shards take K processes.  Lifecycle,
    scatter-gather dispatch, death detection and journal-replay
    healing."""

    def __init__(self, per_shard: DBConfig, shards: int, tracer,
                 coordinator: GroupCommitCoordinator,
                 with_metrics: bool) -> None:
        self.ctx = _mp_context()
        self.tracer = tracer
        self.coordinator = coordinator
        self.procs: list = []       # mutated in place; _reap sees updates
        self.worker_deaths = 0
        specs = [WorkerSpec(shard=i, config=per_shard, traced=tracer.enabled,
                            with_metrics=with_metrics)
                 for i in range(shards)]
        # the workers first: a fork copies the facade, which should not
        # hold an engine of its own yet
        self.handles = [_WorkerHandle(self, spec.shard, spec)
                        for spec in specs[:-1]]
        self.hosted = _HostedShard(self, shards - 1, specs[-1])
        self.by_shard: list = [*self.handles, self.hosted]

    def track(self, proc) -> None:
        self.procs[:] = [p for p in self.procs if p.is_alive()]
        self.procs.append(proc)

    def absorb(self, shard: int, events) -> None:
        if events and self.tracer.enabled:
            base = (shard + 1) * 1_000_000
            for event in events:
                self.tracer.ingest(event, span_base=base, shard=shard)

    def on_heal(self, shard: int) -> None:
        self.worker_deaths += 1
        if self.tracer.enabled:
            self.tracer.emit("worker.respawn", shard=shard,
                             replayed=len(self.handles[shard].journal))

    # -- dispatch ------------------------------------------------------------

    def _sending(self, order) -> list:
        """The shards of ``order``, the hosted one last: it runs its
        command as it is sent, so every worker has its own first and
        the two run at once."""
        last = self.hosted.shard
        return [i for i in order if i != last] + [last] * (last in order)

    def scatter(self, order, op: str, args: tuple = ()) -> dict:
        """Send ``op`` to every shard in ``order`` before collecting any
        reply (the workers, then the hosted shard: all execute
        concurrently); gather in ``order``.  If a worker dies, the
        remaining replies are still drained — the pipes stay in
        lockstep — and the first death is re-raised after the sweep.

        Two commands are recognised.  A ``begin`` under an id every
        handle can prove fresh cannot be refused, so it goes one-way
        and nothing is gathered.  The ``commit`` that reaches the flush
        horizon carries the horizon flush with it: each shard drains
        its local coordinator right after its shard commit and the
        forced-log counts are credited to the facade coordinator's
        next drain."""
        by_shard = self.by_shard
        if op == "begin" and all(by_shard[i].begin_is_fresh(*args)
                                 for i in order):
            return self._post_all(order, op, args)
        drains = op == "commit" and self.coordinator.at_horizon()
        if drains:
            args += (True,)
        for i in self._sending(order):
            by_shard[i].send(op, args)
        results: dict = {}
        death: WorkerCrashed | None = None
        error: BaseException | None = None
        for i in order:
            try:
                results[i] = by_shard[i].recv(op)
            except WorkerCrashed as crash:
                if death is None:
                    death = crash
            except Exception as exc:                # noqa: BLE001
                if error is None:
                    error = exc
        if drains:
            self.coordinator.prepaid += sum(results.values())
        if death is not None:
            raise death
        if error is not None:
            raise error
        return results

    def _post_all(self, order, op: str, args: tuple) -> dict:
        """The one-way scatter: every shard is sent the command even if
        a pipe turns out broken on the way (its healed worker replays
        it), and the first such death is raised after the sweep."""
        death: WorkerCrashed | None = None
        for i in self._sending(order):
            try:
                self.by_shard[i].post(op, args)
            except WorkerCrashed as crash:
                if death is None:
                    death = crash
        if death is not None:
            raise death
        return dict.fromkeys(order, args[0])

    def broadcast_flush(self) -> int:
        """Drain every shard's local coordinator; returns how many logs
        were forced across all shards.  No command is sent when no
        shard has deferred a force since it last drained."""
        if not any(handle.owes_flush for handle in self.by_shard):
            return 0
        results = self.scatter(range(len(self.by_shard)), "gc_flush")
        return sum(results.values())

    def _worker(self, shard: int) -> _WorkerHandle:
        if shard == self.hosted.shard:
            raise ModelError(
                f"shard {shard} runs in the facade's own process: it has "
                "no worker to kill")
        return self.handles[shard]

    def arm_death(self, shard: int, when: str) -> str:
        """Fault-injection seam: make one worker exit at a chosen point.

        ``when``: ``"now"`` (exit immediately), ``"next_command"``,
        ``"before_commit"`` / ``"after_commit"`` (around the shard
        commit inside the commit window), or ``"mid_flush"`` (force one
        pending log of a batched flush, then die — a torn batch the
        journal-replay drain must finish).  The facade-hosted last
        shard has no worker: arming it raises :class:`ModelError`."""
        return self._worker(shard).call("die", when)

    def heal_dead(self) -> int:
        """Bring any dead workers back (journal replay), quietly —
        the crash path calls this before the drain so the contract
        covers workers lost between facade calls."""
        healed = 0
        for handle in self.handles:
            if not handle.alive():
                handle.heal()
                healed += 1
        return healed

    def kill(self, shard: int) -> None:
        """SIGKILL one shard's worker (:class:`ModelError` for the
        facade-hosted last shard)."""
        self._worker(shard).kill()

    def close(self) -> None:
        for handle in self.handles:
            handle.shutdown()
        self.hosted.shutdown()
        _reap(self.procs)


# ---------------------------------------------------------------- proxies


class ShardProxy:
    """A shard engine across the pipe: ``proxy.<op>(*args)`` is one
    command for any op of the shard protocol — answered, unless the
    handle can prove it need not be — so the facade's routed paths call
    it like the ``Database`` it stands for (positional arguments
    only)."""

    def __init__(self, handle: _WorkerHandle) -> None:
        self._handle = handle
        self.num_data_pages = handle.info["num_data_pages"]

    def __getattr__(self, op: str):
        if op not in SHARD_OPS:
            raise AttributeError(op)
        handle = self._handle

        def forward(*args):
            return handle.call(op, *args)
        setattr(self, op, forward)      # looked up once per op
        return forward


class WorkerInvariantCollector:
    """Facade-side view of the per-worker invariant engines.

    Duck-types the slice of :class:`~repro.check.invariants.
    InvariantEngine` the conformance and stress harnesses read
    (``violations``/``barrier_counts``/``clean``/``assert_clean``);
    state is pulled from the workers on access, concatenated in shard
    order (in-process children interleave into one shared list instead,
    so ordering — not membership — can differ on unclean runs).
    """

    def __init__(self, owner: "WorkerShardedDatabase") -> None:
        self._owner = owner

    def _state(self) -> list:
        return self._owner._gather("invariant_state")

    @property
    def violations(self) -> list:
        return [violation for violations, _ in self._state()
                for violation in violations]

    @property
    def barrier_counts(self) -> dict:
        counts: dict = {}
        for _, per_shard in self._state():
            for name, count in per_shard.items():
                counts[name] = counts.get(name, 0) + count
        return counts

    @property
    def clean(self) -> bool:
        return not self.violations

    def assert_clean(self) -> None:
        violations = self.violations
        if violations:
            raise AssertionError(
                f"{len(violations)} invariant violations, first: "
                f"{violations[0]}")


class _FacadeCoordinator(GroupCommitCoordinator):
    """The facade's coordinator: the single cross-shard barrier.

    Horizon counting and the global commit log's deferral stay here;
    the drain additionally broadcasts one ``gc_flush`` so every
    worker's local coordinator forces its pendings first (the same
    order the in-process coordinator uses: shard WALs before the
    commit log it appended after them)."""

    def __init__(self, flush_horizon: int = 1, metrics=None) -> None:
        super().__init__(flush_horizon=flush_horizon, metrics=metrics)
        self.supervisor: WorkerSupervisor | None = None
        # worker logs already forced inside a commit that carried the
        # horizon flush, not yet counted by a drain
        self.prepaid = 0

    def at_horizon(self) -> bool:
        """True when the next commit is the one whose ``note_commit``
        flushes."""
        return self._commits_since_flush + 1 >= self.flush_horizon

    def _drain(self) -> int:
        flushed, self.prepaid = self.prepaid, 0
        if self.supervisor is not None:
            flushed += self.supervisor.broadcast_flush()
        return flushed + super()._drain()


# ---------------------------------------------------------------- the facade


class WorkerShardedDatabase(ShardedDatabase):
    """`ShardedDatabase` with its K shards in K OS processes: shards
    0 … K − 2 in workers, shard K − 1 in the facade's own.

    Only the transport differs: the shards are built under a
    :class:`WorkerSupervisor`, and :meth:`_scatter` sends a command to
    every worker, then runs it on the hosted shard, before collecting
    any reply, so all K engines execute it concurrently.  Every
    operation and view is the inherited one.  Use as a context manager
    (or call :meth:`close`) to reap the workers; a GC finalizer
    backstops leaked instances.
    """

    def _open(self, per_shard: DBConfig, flush_horizon: int,
              metrics) -> dict:
        coordinator = _FacadeCoordinator(flush_horizon=flush_horizon,
                                         metrics=metrics)
        self.supervisor = coordinator.supervisor = WorkerSupervisor(
            per_shard, self.num_shards, tracer=self.tracer,
            coordinator=coordinator, with_metrics=metrics is not None)
        self.coordinator = coordinator
        self.shards = [ShardProxy(handle)
                       for handle in self.supervisor.by_shard]
        self._finalizer = weakref.finalize(self, _reap, self.supervisor.procs)
        return self.supervisor.hosted.info

    def _scatter(self, order, op: str, args: tuple = ()) -> dict:
        if op == "recover" and args != (None,):
            raise ModelError(
                "worker-process shards cannot ship a fault_hook across "
                "the pipe; use the in-process ShardedDatabase for "
                "recovery fault injection")
        return self.supervisor.scatter(order, op, args)

    def _transport_statistics(self) -> dict:
        return {"workers": True, "worker_deaths": self.worker_deaths}

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._finalizer.alive:
            self.supervisor.close()
            self._finalizer.detach()

    def __enter__(self) -> "WorkerShardedDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def worker_deaths(self) -> int:
        """Worker processes lost and healed so far."""
        return self.supervisor.worker_deaths

    def crash(self) -> None:
        """Dead workers are healed (journal replay) *before* the drain,
        so the battery-backed-buffer contract covers commits
        acknowledged right up to a worker's death."""
        self.supervisor.heal_dead()
        super().crash()

    def attach_invariants(self, rules=None) -> WorkerInvariantCollector:
        """Wire an :class:`~repro.check.invariants.InvariantEngine` into
        every worker (``InvariantEngine.attach`` delegates here); rules
        cross the pipe by pickle, so they must be module-level classes."""
        self._gather("attach_invariants", (rules,))
        collector = WorkerInvariantCollector(self)
        self.invariants = collector
        return collector
