"""The workload driver: P-way concurrent transactions over a Database.

Runs :class:`~repro.sim.workload.TransactionScript` streams under a
deterministic round-robin interleaving (the same discipline the
:class:`~repro.db.sharded.ShardScheduler` applies across shard
engines): each step advances one transaction by one page access.  The
driver is engine-agnostic — a single :class:`Database` or a K-way
:class:`~repro.db.sharded.ShardedDatabase` plug in equally.  Lock waits
suspend a transaction until its blocker finishes; deadlock victims are
rolled back and counted.  The driver measures exactly what the paper's
model predicts — page transfers per committed transaction — plus the
empirical logging probability for cross-validation against Eq. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from time import perf_counter

from ..db.database import Database, LockWait
from ..errors import BufferFullError, DeadlockError
from ..obs.recovery_profile import RecoveryProfile
from .metrics import SimulationReport
from .workload import WorkloadGenerator, WorkloadSpec


def seeding_batches(db) -> list:
    """Page batches for record-mode seeding, one transaction each.

    The REDO-only classes hold every uncommitted dirty page in the
    buffer (write-behind gate), so one giant seeding transaction
    overflows any realistic pool; seed one parity group's worth of
    pages per transaction instead.  Other classes keep the original
    single transaction, byte-identical to before.
    """
    pages = db.num_data_pages
    if not db.config.redo_only:
        return [list(range(pages))]
    size = max(db.config.group_size, 1)
    return [list(range(start, min(start + size, pages)))
            for start in range(0, pages, size)]


@dataclass
class _LiveTxn:
    """One in-flight transaction's driver state."""

    txn_id: int
    script: object
    position: int = 0
    version: int = 0
    waiting: bool = False


class Simulator:
    """Drives a :class:`Database` with a synthetic workload.

    Args:
        db: the database under test.
        spec: workload knobs.
        seed: RNG seed for the generator.
        buffer_feedback: realize communality by sampling the *actual*
            resident set (default).  Disable for workloads that must be
            identical across configurations (the resident set evolves
            slightly differently per recovery discipline, e.g. abort
            paths re-insert pages under ¬FORCE).
        conformance: optional observer mirroring the operation stream
            (e.g. :class:`~repro.check.differential.DifferentialMirror`);
            must provide ``begin/read/write/commit/abort/crash``.
    """

    def __init__(self, db: Database, spec: WorkloadSpec, seed: int = 0,
                 buffer_feedback: bool = True, timed: bool = False,
                 conformance=None) -> None:
        self.db = db
        self.spec = spec
        self.generator = WorkloadGenerator(spec, db.num_data_pages, seed=seed)
        self.report = SimulationReport()
        self._live: list = []
        self._started = 0
        self._buffer_stalls = 0
        self.record_mode = db.config.record_logging
        self.buffer_feedback = buffer_feedback
        self.conformance = conformance
        self.observer = None
        if timed:
            from .timed import TimedObserver
            self.observer = TimedObserver.attach(db)
        # recovery profiling needs the phase-span stream, so it exists
        # exactly when tracing does; this also keeps untraced reports
        # byte-identical across runs (wall-clock MTTR is not
        # deterministic, the determinism suite runs untraced)
        self.profile = None
        if db.tracer.enabled:
            self.profile = RecoveryProfile(
                recovery_class=db.config.algorithm_name)
            db.tracer.add_observer(self.profile.observe)

    def seed_records(self) -> None:
        """Record-mode setup: format every page and put one record in
        slot 0 (the record the driver reads/updates)."""
        self.db.format_record_pages(range(self.db.num_data_pages))
        for batch in seeding_batches(self.db):
            txn = self.db.begin()
            for page in batch:
                self.db.insert_record(txn, page, b"seed")
            self.db.commit(txn)

    # -- driving -------------------------------------------------------------------

    def run(self, transactions: int, crash_every: int | None = None) -> SimulationReport:
        """Run until ``transactions`` have finished.

        Args:
            transactions: number of transactions to complete.
            crash_every: if set, crash + recover after every that many
                completed transactions (exercises restart recovery under
                load).
        """
        run_t0 = perf_counter() if self.profile is not None else None
        finished_at_last_crash = 0
        while self.report.transactions < transactions:
            self._fill_slots(transactions)
            if not self._live:
                break
            progressed = self._step_round()
            if not progressed:
                self._break_stall()
            if crash_every is not None and (
                    self.report.transactions - finished_at_last_crash
                    >= crash_every):
                self.crash_and_recover()
                finished_at_last_crash = self.report.transactions
        if self.profile is not None:
            self.profile.finalize(
                run_wall_ms=(perf_counter() - run_t0) * 1e3)
        self._finalize_metrics()
        return self.report

    def _fill_slots(self, budget: int) -> None:
        capacity = self.spec.concurrency
        while (len(self._live) < capacity
               and self._started < budget):
            resident = (self.db.buffer.resident_pages()
                        if self.buffer_feedback else ())
            script = self.generator.next_script(resident)
            txn_id = self.db.begin()
            if self.conformance is not None:
                self.conformance.begin(txn_id)
            self._live.append(_LiveTxn(txn_id=txn_id, script=script))
            self._started += 1

    def _step_round(self) -> bool:
        progressed = False
        for live in list(self._live):
            if live.waiting and not self.db.grants_for(live.txn_id):
                continue
            live.waiting = False
            progressed = self._advance(live) or progressed
        return progressed

    def _advance(self, live: _LiveTxn) -> bool:
        """One page access (or EOT) for one transaction."""
        script = live.script
        if live.position >= len(script.accesses):
            self._finish(live)
            return True
        access = script.accesses[live.position]
        observed = None     # (page, slot, value, is_write) for conformance
        try:
            if self.record_mode:
                if access.update:
                    live.version += 1
                    payload = (f"p{access.page}v{live.version}"
                               f"t{live.txn_id}".encode())
                    self.db.update_record(live.txn_id, access.page, 0,
                                          payload)
                    observed = (access.page, 0, payload, True)
                else:
                    value = self.db.read_record(live.txn_id, access.page, 0)
                    observed = (access.page, 0, value, False)
            elif access.update:
                live.version += 1
                payload = self.generator.payload_for(access.page, live.version)
                self.db.write_page(live.txn_id, access.page, payload)
                observed = (access.page, None, payload, True)
            else:
                value = self.db.read_page(live.txn_id, access.page)
                observed = (access.page, None, value, False)
        except LockWait:
            live.waiting = True
            return False
        except DeadlockError:
            self.db.abort(live.txn_id)
            if self.conformance is not None:
                self.conformance.abort(live.txn_id)
            self._live.remove(live)
            self.report.aborted += 1
            self.report.deadlocks += 1
            return True
        except BufferFullError:
            # REDO-only back-pressure: every frame is pinned or held by
            # the write-behind gate.  Rolling this transaction back
            # releases its gated frames, like a real engine cancelling
            # the statement that cannot get a free frame.
            self.db.abort(live.txn_id)
            if self.conformance is not None:
                self.conformance.abort(live.txn_id)
            self._live.remove(live)
            self.report.aborted += 1
            self._buffer_stalls += 1
            return True
        if self.conformance is not None and observed is not None:
            page, slot, value, is_write = observed
            if is_write:
                self.conformance.write(live.txn_id, page, slot, value)
            else:
                self.conformance.read(live.txn_id, page, slot, value)
        live.position += 1
        return True

    def _finish(self, live: _LiveTxn) -> None:
        wants_abort = live.script.wants_abort
        if wants_abort and self.db.txns.get(live.txn_id).must_commit:
            # a media failure destroyed this transaction's parity-encoded
            # before-image; it was pinned to commit
            wants_abort = False
        if wants_abort:
            self.db.abort(live.txn_id)
            if self.conformance is not None:
                self.conformance.abort(live.txn_id)
            self.report.aborted += 1
        else:
            self.db.commit(live.txn_id)
            if self.conformance is not None:
                self.conformance.commit(live.txn_id)
            self.report.committed += 1
        self._live.remove(live)
        if self.db.checkpointer is not None:
            self.db.checkpointer.note_work(self.spec.pages_per_txn)
            if self.db.checkpointer.maybe_checkpoint() is not None:
                self.report.checkpoints += 1

    def _break_stall(self) -> None:
        """Every live transaction is waiting: abort the youngest waiter.

        The eager deadlock detector prevents true cycles, but a waiter
        can starve behind a suspended holder; rolling one back keeps the
        round-robin moving (and counts as an abort, like a timeout-based
        resolver would)."""
        victim = self._live[-1]
        self.db.abort(victim.txn_id)
        if self.conformance is not None:
            self.conformance.abort(victim.txn_id)
        self._live.remove(victim)
        self.report.aborted += 1
        self.report.deadlocks += 1

    # -- failures -------------------------------------------------------------------------

    def crash_and_recover(self) -> dict:
        """Crash the database mid-load, recover, roll live state forward."""
        self.db.tracer.emit("sim.crash", live_txns=len(self._live),
                            finished=self.report.transactions)
        if self.profile is not None:
            self.profile.begin_cycle()
        self.db.crash()
        if self.conformance is not None:
            self.conformance.crash()
        before = self.db.stats.total
        stats = self.db.recover()
        if self.profile is not None:
            self.profile.end_cycle(stats)
        self.report.crashes += 1
        self.report.recovery_transfers += self.db.stats.total - before
        # every in-flight transaction died with main memory
        self.report.aborted += len(self._live)
        self._live.clear()
        return stats

    # -- wrap-up ------------------------------------------------------------------------------

    def _finalize_metrics(self) -> None:
        for live in list(self._live):
            if self.db.txns.get(live.txn_id).must_commit:
                self.db.commit(live.txn_id)
                if self.conformance is not None:
                    self.conformance.commit(live.txn_id)
                self.report.committed += 1
            else:
                self.db.abort(live.txn_id)
                if self.conformance is not None:
                    self.conformance.abort(live.txn_id)
                self.report.aborted += 1
        self._live.clear()
        self.report.page_transfers = self.db.stats.total
        self.report.buffer_hit_ratio = self.db.buffer.stats.hit_ratio
        self.report.unlogged_steal_fraction = \
            self.db.counters.unlogged_fraction
        self.report.extra["steals"] = self.db.counters.steals
        if self._buffer_stalls:
            self.report.extra["buffer_stalls"] = self._buffer_stalls
        self.report.extra["before_images_logged"] = \
            self.db.counters.before_images_logged
        if self.observer is not None:
            self.report.extra["busy_ms"] = round(self.observer.total_busy_ms, 1)
            self.report.extra["busiest_arm_ms"] = round(
                self.observer.busiest_ms, 1)
            self.report.extra["seeks"] = self.observer.total_seeks
        if self.db.metrics is not None:
            self.report.extra["metrics"] = self.db.metrics.snapshot()
        if self.db.tracer.enabled:
            self.report.extra["trace_events"] = self.db.tracer.events_emitted
        if self.profile is not None and self.profile.crashes:
            self.report.extra["recovery_profile"] = self.profile.to_dict()


def run_workload(db: Database, spec: WorkloadSpec, transactions: int,
                 seed: int = 0, crash_every: int | None = None) -> SimulationReport:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(db, spec, seed=seed).run(transactions,
                                              crash_every=crash_every)
