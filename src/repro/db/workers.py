"""True multicore sharding: each shard engine in its own worker process.

The in-process :class:`~repro.db.sharded.ShardedDatabase` runs K shard
engines on one Python thread, taking turns.  This module is its second
*transport*: the facade, its views and every cross-shard operation are
the inherited ones, but each shard :class:`~repro.db.database.Database`
lives in a separate OS process, driven over a typed command/reply
protocol — Wu et al.'s per-core-logging blueprint (*Fast Failure
Recovery for Main-Memory DBMSs on Multicores*): per-shard WALs, one
cross-shard barrier, and restart recovery that fans out to every worker
concurrently.

**Protocol.**  One duplex pipe per worker.  A command is
``(op, args)``, ``op`` a key of the shared
:data:`~repro.db.sharded.SHARD_OPS` table (or one of the few
worker-only ``_WORKER_OPS``); a reply is ``(status, value, events, gc)`` where
``status`` is ``"ok"``/``"err"`` (``value`` is the result or the
pickled exception, re-raised at the facade), ``events`` is the batch of
tracer events the command produced (merged into the facade trace via
:meth:`~repro.obs.tracer.Tracer.ingest`, in dispatch order, so the
merge is deterministic), and ``gc`` is the worker coordinator's
cumulative deferred-force count (folded into the facade coordinator's
accounting against a per-worker watermark).  Cross-shard operations
(begin/commit/abort/crash/recover/flush) are *scatter-gather*: the
facade sends the command to every worker before collecting any reply,
so all K engines execute concurrently; replies are consumed in
scheduler order, which keeps the observable stream byte-identical to
the in-process engine.

**The coordinator is the only barrier.**  Each worker owns a *local*
:class:`~repro.wal.group_commit.GroupCommitCoordinator`; the worker's
own ``commit`` handler opens the deferral window around its shard
commit, so WAL-rule forces stay synchronous inside the worker and
``durable_lsn``/``covers`` semantics are evaluated where the log lives
— no per-force message crosses a process boundary.  The facade-side
:class:`_FacadeCoordinator` counts commits against the flush horizon
and, on flush, broadcasts one ``gc_flush`` to the workers (draining
their local pendings) before forcing its own pending global commit log.

**Crash propagation.**  Every state-changing command is journaled at
the facade *before* it is sent.  If a worker dies (nemesis kill, fault
injection), the supervisor respawns it and replays the journal — the
engines are deterministic, so the rebuilt worker converges to the state
in which every journaled command, including one in flight at death,
has fully executed; a scatter command therefore executes on *all*
shards or is never sent, preserving cross-shard commit atomicity.  The
interrupted facade call then raises :class:`WorkerCrashed`, which
drivers treat like a crash signal: run :meth:`crash` (the group-commit
drain contract — the healed worker's replayed pending forces are
flushed before memory is lost) and :meth:`recover`, then resolve any
in-doubt commit against the recovered winner set.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import pickle
import signal
import weakref

from ..errors import ModelError, RecoveryError
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
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
    """Per-command event buffer: drained into each reply."""

    def __init__(self) -> None:
        self._events: list = []

    def emit(self, event: dict) -> None:
        self._events.append(event)

    def drain(self) -> list:
        events, self._events = self._events, []
        return events

    def close(self) -> None:
        pass


class _WorkerState:
    """The worker loop's context: engine, coordinator, sink, fault arm."""

    def __init__(self, db: Database, coordinator: GroupCommitCoordinator,
                 sink: _ListSink | None) -> None:
        self.db = db
        self.coordinator = coordinator
        self.sink = sink
        self.die_on: str | None = None      # test seam: exit inside a handler


def _die() -> None:
    """Simulated worker death: immediate, no cleanup, no reply."""
    os._exit(17)


def _h_commit(state: _WorkerState, txn_id: int) -> None:
    if state.die_on == "before_commit":
        _die()                      # mid-commit-window: others may commit
    with state.coordinator.deferred():
        state.db.commit(txn_id)
    if state.die_on == "after_commit":
        _die()                      # committed locally, reply never sent


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


def _picklable(exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(conn, spec: WorkerSpec) -> None:
    """The worker process entry point: build the shard engine, serve
    commands until shutdown.  Importable at module level so the spawn
    start method works everywhere fork does."""
    # a forked child inherits the parent's live tracers (and their
    # buffered sinks); drop them so nothing in this process can flush
    # a duplicate tail into the parent's trace file
    from ..obs import tracer as tracer_mod
    tracer_mod._LIVE_TRACERS.clear()

    sink = _ListSink() if spec.traced else None
    tracer = Tracer(sink) if spec.traced else NULL_TRACER
    metrics = MetricsRegistry() if spec.with_metrics else None
    coordinator = GroupCommitCoordinator(flush_horizon=1)

    def log_factory(db: Database, name: str) -> GroupCommitLog:
        return GroupCommitLog(
            name=name, page_size=db.config.log_page_size,
            transfers_per_log_page=db.config.log_transfers_per_page,
            stats=db.stats, metrics=db.metrics, coordinator=coordinator)

    db = Database(spec.config, tracer=tracer, metrics=metrics,
                  log_factory=log_factory)
    state = _WorkerState(db, coordinator, sink)

    events = sink.drain() if sink is not None else ()
    conn.send(("ok", shard_info(db), events, coordinator.deferred_forces))

    # clean exits *return* rather than os._exit: the multiprocessing
    # bootstrap then finishes normally, letting subprocess coverage
    # (and any other bootstrap-level finalizer) flush before the
    # start-method machinery calls os._exit itself.  Only the injected
    # deaths (_die) take the hard-exit path.
    while True:
        try:
            op, args = conn.recv()
        except (EOFError, OSError):
            return
        if op == "shutdown":
            try:
                conn.send(("ok", None, (), coordinator.deferred_forces))
            except (BrokenPipeError, OSError):
                pass
            return
        if op == "die":
            when, = args
            if when == "now":
                _die()
            state.die_on = when
            conn.send(("ok", when, (), coordinator.deferred_forces))
            continue
        if state.die_on == "next_command":
            _die()
        try:
            handler = _WORKER_OPS.get(op)
            value = (handler(state, *args) if handler is not None
                     else SHARD_OPS[op](db, *args))
            status = "ok"
        except Exception as exc:                    # noqa: BLE001
            value = _picklable(exc)
            status = "err"
        events = sink.drain() if sink is not None else ()
        try:
            conn.send((status, value, events, coordinator.deferred_forces))
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


class _WorkerHandle:
    """One worker: process + pipe + command journal.

    The journal holds every state-changing command ever sent.  On
    death, :meth:`heal` respawns the process and replays it — replies
    (and their event batches) are discarded, because the facade already
    consumed the acknowledged prefix and the in-flight command's reply
    is reported lost via :class:`WorkerCrashed`.
    """

    def __init__(self, supervisor: "WorkerSupervisor", shard: int,
                 spec: WorkerSpec) -> None:
        self.supervisor = supervisor
        self.shard = shard
        self.spec = spec
        self.journal: list = []
        self.info: dict = {}
        self._proc = None
        self._conn = None
        self._reply_lost = False
        self._gc_seen = 0
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
        status, info, events, gc = self._conn.recv()
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
        for op, args in self.journal:
            self._conn.send((op, args))
            outstanding += 1
            if outstanding >= 16:
                _, _, _, gc = self._conn.recv()
                outstanding -= 1
        while outstanding:
            _, _, _, gc = self._conn.recv()
            outstanding -= 1
            # replies discarded: already consumed before the death
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
            self._conn.send(("shutdown", ()))
            self._conn.recv()
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
        if op in _MUTATING:
            self.journal.append((op, args))
        try:
            self._conn.send((op, args))
        except (BrokenPipeError, OSError):
            # journaled first, so the command lands during replay; the
            # reply is lost either way
            self.heal()
            self._reply_lost = True

    def recv(self, op: str):
        if self._reply_lost:
            self._reply_lost = False
            raise WorkerCrashed(self.shard, op)
        try:
            status, value, events, gc = self._conn.recv()
        except (EOFError, OSError):
            self.heal()
            raise WorkerCrashed(self.shard, op) from None
        self._absorb(events, gc)
        if status == "err":
            raise value
        return value

    def call(self, op: str, *args):
        self.send(op, args)
        return self.recv(op)

    def _absorb(self, events, gc_cumulative: int) -> None:
        self.supervisor.absorb(self.shard, events)
        delta = gc_cumulative - self._gc_seen
        self._gc_seen = gc_cumulative
        if delta > 0:
            self.supervisor.coordinator.absorb_deferred(delta)


class WorkerSupervisor:
    """Owns the K worker processes: lifecycle, scatter-gather dispatch,
    death detection, and journal-replay healing."""

    def __init__(self, per_shard: DBConfig, shards: int, tracer,
                 coordinator: GroupCommitCoordinator,
                 with_metrics: bool) -> None:
        self.ctx = _mp_context()
        self.tracer = tracer
        self.coordinator = coordinator
        self.procs: list = []       # mutated in place; _reap sees updates
        self.worker_deaths = 0
        self.handles = [
            _WorkerHandle(self, i, WorkerSpec(
                shard=i, config=per_shard, traced=tracer.enabled,
                with_metrics=with_metrics))
            for i in range(shards)
        ]

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

    def scatter(self, order, op: str, args: tuple = (),
                args_for=None) -> dict:
        """Send ``op`` to every shard in ``order`` before collecting any
        reply (all workers execute concurrently); gather in the same
        order.  If a worker dies, the remaining replies are still
        drained — the pipes stay in lockstep — and the first death is
        re-raised after the sweep."""
        handles = self.handles
        for i in order:
            handles[i].send(op, args_for(i) if args_for is not None else args)
        results: dict = {}
        death: WorkerCrashed | None = None
        error: BaseException | None = None
        for i in order:
            try:
                results[i] = handles[i].recv(op)
            except WorkerCrashed as crash:
                if death is None:
                    death = crash
            except Exception as exc:                # noqa: BLE001
                if error is None:
                    error = exc
        if death is not None:
            raise death
        if error is not None:
            raise error
        return results

    def broadcast_flush(self) -> int:
        """Drain every worker's local coordinator; returns how many logs
        were forced across all workers."""
        results = self.scatter(range(len(self.handles)), "gc_flush")
        return sum(results.values())

    def arm_death(self, shard: int, when: str) -> str:
        """Fault-injection seam: make one worker exit at a chosen point.

        ``when``: ``"now"`` (exit immediately), ``"next_command"``,
        ``"before_commit"`` / ``"after_commit"`` (around the shard
        commit inside the commit window), or ``"mid_flush"`` (force one
        pending log of a batched flush, then die — a torn batch the
        journal-replay drain must finish)."""
        return self.handles[shard].call("die", when)

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
        self.handles[shard].kill()

    def close(self) -> None:
        for handle in self.handles:
            handle.shutdown()
        _reap(self.procs)


# ---------------------------------------------------------------- proxies


class ShardProxy:
    """A shard engine across the pipe: ``proxy.<op>(*args)`` is one
    command / one reply for any op of the shard protocol, so the
    facade's routed paths call it like the ``Database`` it stands for
    (positional arguments only)."""

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

    def _drain(self) -> int:
        flushed = 0
        if self.supervisor is not None:
            flushed += self.supervisor.broadcast_flush()
        return flushed + super()._drain()


# ---------------------------------------------------------------- the facade


class WorkerShardedDatabase(ShardedDatabase):
    """`ShardedDatabase` with one OS process per shard.

    Only the transport differs: the shards are spawned under a
    :class:`WorkerSupervisor`, and :meth:`_scatter` sends a command to
    every worker before collecting any reply, so all K engines execute
    it concurrently.  Every operation and view is the inherited one.
    Use as a context manager (or call :meth:`close`) to reap the
    workers; a GC finalizer backstops leaked instances.
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
                       for handle in self.supervisor.handles]
        self._finalizer = weakref.finalize(self, _reap, self.supervisor.procs)
        return self.supervisor.handles[0].info

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
