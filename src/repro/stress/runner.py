"""The chaos loop: phased workload × nemesis × live judges.

One :class:`StressRunner` drives one *cell* (a recovery-class preset at
a shard count K) through alternating rounds of transaction batches and
nemesis ticks:

.. code-block:: text

    seed state → [ batch → judge → nemesis tick ]* → final judge → report
                            │             │
                            │             ├─ expire open mutants, judge
                            │             └─ per action: inject fault
                            │                (registry OPEN) → repair →
                            │                judge → registry CLOSE
                            └─ drain InvariantEngine + DifferentialMirror,
                               verify_database + end-state diff,
                               attribute to the active-fault set

Judging happens *inside* each fault's open window, so every violation
carries the labels of exactly the faults that were in flight — and a
fault only counts as **survived** when its whole window closed without
a single attributed violation.

Clocking: every duration in the report comes from ``options.clock``
(default ``time.perf_counter``); pass a deterministic fake and the full
report — schedule, MTTR, throughput — is byte-identical per seed, which
is how the determinism suite and CI smoke pin the subsystem down.

The fault-free baseline reuses the same campaign loop with the nemesis
disabled but the judges still attached, so the chaos/baseline
throughput ratio isolates the cost of faults rather than the cost of
checking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from ..check.differential import DifferentialMirror
from ..check.invariants import (InvariantEngine, MutantError, Violation,
                                default_rules, verify_database)
from ..db.config import preset
from ..db.database import Database
from ..db.workers import WorkerShardedDatabase, make_sharded
from ..errors import ModelError, RecoveryError, UnrecoverableDataError
from ..obs.recovery_profile import RecoveryProfile
from ..sim.faultplan import engines_of
from ..wal.records import CommitRecord
from .nemesis import ActiveFaultRegistry, Nemesis, resolve_profile
from .report import StressReport
from .workload import StressPhase, StressWorkload

_DEFAULT_OVERRIDES = dict(group_size=5, num_groups=12, buffer_capacity=20,
                          checkpoint_interval=200)

_MUTANT_REVERTS = {
    # wal-before-data's mutate() shadows the bound force with a no-op
    # on the instance; popping the shadow restores it, and one explicit
    # force drains whatever the mutant left unforced
    "wal-before-data": lambda engine: (
        engine.undo_log.__dict__.pop("force", None),
        engine.undo_log.force()),
}
"""Rule name -> revert callable.  Only rules listed here may appear in
a profile's ``mutant_rules`` — a mutant that cannot be undone would
poison every later tick of the campaign."""


@dataclass(frozen=True)
class StressOptions:
    """Everything one stress cell needs.

    ``ops`` bounds completed transactions; ``duration_s`` (soak mode)
    bounds wall-clock instead — whichever trips first ends the
    campaign.  ``clock`` is injectable for deterministic reports.
    ``workers`` (sharded cells only) hosts each shard engine in its own
    worker process and enables the ``worker_kill`` fault kind; ``None``
    honors the ``REPRO_WORKERS`` environment variable.
    """

    preset: str = "page-noforce-rda"
    shards: int = 1
    flush_horizon: int = 2
    workers: Optional[bool] = None
    ops: Optional[int] = 64
    duration_s: Optional[float] = None
    batch_size: int = 8
    seed: int = 0
    nemesis_profile: object = "default"
    baseline: bool = True
    drift_check: bool = False
    overrides: Optional[dict] = None
    phases: Optional[Sequence[StressPhase]] = None
    clock: Callable[[], float] = perf_counter

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ModelError("shards (K) must be >= 1")
        if self.batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        if self.ops is None and self.duration_s is None:
            raise ModelError("set ops and/or duration_s, else the "
                             "campaign never ends")


class _Campaign:
    """One pass of the loop: a fresh database, judges and workload.

    Built twice per cell — once with the nemesis, once without (the
    baseline) — so the two passes start from identical states.
    """

    def __init__(self, options: StressOptions,
                 nemesis: Optional[Nemesis]) -> None:
        self.options = options
        self.nemesis = nemesis
        self.clock = options.clock
        config = preset(options.preset,
                        **(options.overrides if options.overrides is not None
                           else _DEFAULT_OVERRIDES))
        self.config = config
        tracer = None
        self.drift = None
        if options.drift_check and nemesis is not None:
            from ..obs.drift import DriftDetector
            from ..obs.tracer import NullSink, Tracer
            tracer = Tracer(NullSink())
            self.drift = DriftDetector().attach(tracer)
        if options.shards > 1:
            self.db = make_sharded(config, shards=options.shards,
                                   flush_horizon=options.flush_horizon,
                                   tracer=tracer, workers=options.workers)
        else:
            self.db = Database(config, tracer=tracer)
        self.worker_mode = isinstance(self.db, WorkerShardedDatabase)
        self.engine = InvariantEngine.attach(self.db)
        self.mirror = DifferentialMirror(record_mode=config.record_logging)
        if config.record_logging:
            self._seed_records()
        self.workload = StressWorkload(self.db, phases=options.phases,
                                       seed=options.seed,
                                       conformance=self.mirror)
        self.registry = ActiveFaultRegistry()
        self.profile = RecoveryProfile(recovery_class=config.algorithm_name,
                                       clock=self.clock)
        self.violations: List[dict] = []
        self.duration_s = 0.0
        self.fatal = False
        self._iv_seen = 0
        self._mv_seen = 0
        self._struct_seen: set = set()
        self._blamed: set = set()
        self._open_mutants: List[tuple] = []
        self.ticks = 0

    def _seed_records(self) -> None:
        """Record-mode setup: one slot-0 record per page, mirrored."""
        from ..sim.simulator import seeding_batches
        db = self.db
        db.format_record_pages(range(db.num_data_pages))
        for batch in seeding_batches(db):
            txn = db.begin()
            for page in batch:
                db.insert_record(txn, page, b"seed")
            db.commit(txn)
        self.mirror.seed({(page, 0): b"seed"
                          for page in range(db.num_data_pages)})

    # -- the loop ------------------------------------------------------------

    def run(self) -> "_Campaign":
        options = self.options
        t0 = self.clock()
        while not self.fatal:
            done = self.workload.committed + self.workload.aborted
            if options.ops is not None and done >= options.ops:
                break
            if (options.duration_s is not None
                    and self.clock() - t0 >= options.duration_s):
                break
            self.workload.run_batch(options.batch_size)
            self._judge(self.ticks)
            if self.nemesis is not None:
                self._nemesis_tick(self.ticks)
            self.ticks += 1
        self._expire_mutants(self.ticks)
        self._judge(self.ticks)
        self.duration_s = self.clock() - t0
        self.profile.finalize(run_wall_ms=self.duration_s * 1e3)
        return self

    # -- judging & attribution -----------------------------------------------

    def _judge(self, tick: int) -> None:
        """Drain every oracle; attribute findings to the open faults."""
        found: List[Violation] = []
        engine_violations = self.engine.violations
        found.extend(engine_violations[self._iv_seen:])
        self._iv_seen = len(engine_violations)
        mirror_violations = self.mirror.violations
        found.extend(mirror_violations[self._mv_seen:])
        self._mv_seen = len(mirror_violations)
        structural = verify_database(self.db)
        structural.extend(self.mirror.final_state_diff(self.db))
        for violation in structural:
            key = (violation.kind, violation.detail)
            if key not in self._struct_seen:
                self._struct_seen.add(key)
                found.append(violation)
        for violation in found:
            self._report(violation.kind, violation.detail, tick)

    def _report(self, kind: str, detail: str, tick: int) -> None:
        """Record one violation, blaming every currently open fault."""
        self.violations.append({"kind": kind, "detail": detail, "tick": tick,
                                "active_faults":
                                    self.registry.active_labels()})
        self._blamed.update(fault.fault_id
                            for fault in self.registry.active())

    def _close(self, fault, tick: int, repaired: bool) -> None:
        self.registry.close(
            fault, tick,
            survived=repaired and fault.fault_id not in self._blamed)

    # -- the nemesis tick ----------------------------------------------------

    def _nemesis_tick(self, tick: int) -> None:
        self._expire_mutants(tick)
        for _ in range(self.nemesis.profile.injections_per_tick):
            if self.fatal:
                return
            kind = self.nemesis.draw(self._eligible_kinds())
            if kind is None:
                return
            getattr(self, "_do_" + kind)(tick)

    def _eligible_kinds(self) -> List[str]:
        eligible = ["crash", "media", "trim"]
        if self.worker_mode:
            # latent/torn_log/mutant reach directly into shard engine
            # internals (disk slots, log bytes, instance dicts), which
            # live across a process boundary here; worker_kill is the
            # worker-mode-native fault instead
            eligible.append("worker_kill")
        else:
            eligible.append("latent")
            if any(log.size_bytes > 0 for log in self._logs()):
                eligible.append("torn_log")
        if self.options.shards >= 2:
            eligible.append("shard_kill")
        profile = self.nemesis.profile
        if (not self.worker_mode and profile.mutant_rules
                and not self._open_mutants):
            unknown = [rule for rule in profile.mutant_rules
                       if rule not in _MUTANT_REVERTS]
            if unknown:
                raise ModelError(
                    f"mutant rules {unknown} have no registered revert; "
                    f"choose from {sorted(_MUTANT_REVERTS)}")
            eligible.append("mutant")
        return eligible

    def _logs(self) -> list:
        if self.options.shards > 1:
            logs = [self.db.commit_log]
            for shard in self.db.shards:
                logs.append(shard.undo_log)
                if shard.redo_log is not shard.undo_log:
                    logs.append(shard.redo_log)
            return logs
        logs = [self.db.undo_log]
        if self.db.redo_log is not self.db.undo_log:
            logs.append(self.db.redo_log)
        return logs

    def _num_disks(self) -> int:
        if self.options.shards > 1:
            return self.db.num_disks
        return len(self.db.array.disks)

    # -- fault executors -----------------------------------------------------
    #
    # Shape of every executor: draw parameters from the nemesis RNG,
    # OPEN the fault, inject + repair, judge inside the window, CLOSE.
    # A repair that throws is itself a violation (the paper's recovery
    # procedures must always succeed with the redundancy intact) and is
    # fatal to the campaign: the engine is not trustworthy afterwards.

    def _do_crash(self, tick: int) -> None:
        fault = self.registry.open("crash", "system crash + restart", tick)
        repaired = self._crash_recover(tick, fault, damage=None)
        self.nemesis.record(tick, "crash", {},
                            "recovered" if repaired else "failed")
        self._close(fault, tick, repaired)

    def _do_torn_log(self, tick: int) -> None:
        rng = self.nemesis.rng
        self.db.crash()
        self.mirror.crash()
        candidates = [log for log in self._logs() if log.size_bytes > 0]
        params: dict = {}
        if candidates:
            log = candidates[rng.randrange(len(candidates))]
            copy = rng.randrange(2)
            offset = rng.randrange(log.size_bytes)
            log.damage_copy(copy, offset)
            params = {"log": log.name, "copy": copy, "offset": offset}
            detail = (f"torn write: {log.name} copy {copy} "
                      f"byte {offset} mangled")
        else:
            detail = "crash with empty durable logs (nothing to tear)"
        fault = self.registry.open("torn_log", detail, tick)
        repaired = self._recover_crashed(tick, fault)
        self.nemesis.record(tick, "torn_log", params,
                            "healed" if repaired else "failed")
        self._close(fault, tick, repaired)

    def _crash_recover(self, tick: int, fault, damage) -> bool:
        self.db.crash()
        self.mirror.crash()
        if damage is not None:
            damage()
        return self._recover_crashed(tick, fault)

    def _recover_crashed(self, tick: int, fault) -> bool:
        self.profile.begin_cycle()
        try:
            stats = self.db.recover()
        except (RecoveryError, UnrecoverableDataError, ModelError) as exc:
            self.profile.end_cycle(None)
            self._report("recovery-failure",
                         f"{fault.kind}: restart raised {exc!r}", tick)
            self.fatal = True
            return False
        self.profile.end_cycle(stats)
        self._judge(tick)
        return True

    def _do_media(self, tick: int) -> None:
        rng = self.nemesis.rng
        victim = rng.randrange(self._num_disks())
        fault = self.registry.open("media", f"disk {victim} fail-stop "
                                            "+ rebuild", tick)
        repaired = True
        try:
            self.db.media_failure(victim)
            self.db.media_recover(victim, on_lost_undo="adopt")
        except (RecoveryError, UnrecoverableDataError, ModelError) as exc:
            self._report("recovery-failure",
                         f"media: rebuild of disk {victim} raised {exc!r}",
                         tick)
            self.fatal = True
            repaired = False
        else:
            self._judge(tick)
        self.nemesis.record(tick, "media", {"disk": victim},
                            "rebuilt" if repaired else "failed")
        self._close(fault, tick, repaired)

    def _do_latent(self, tick: int) -> None:
        rng = self.nemesis.rng
        engines = engines_of(self.db)
        shard = rng.randrange(len(engines))
        engine = engines[shard]
        # target a *written* slot: latent corruption of a never-written
        # sector carries no checksum to contradict, so the scrub cannot
        # (and need not) find it — there is no data there to lose
        start = rng.randrange(engine.num_data_pages)
        page = address = None
        for step in range(engine.num_data_pages):
            candidate = (start + step) % engine.num_data_pages
            location = engine.array.geometry.data_address(candidate)
            disk = engine.array.disks[location.disk]
            if not disk.failed and disk.slot_written(location.slot):
                page, address = candidate, location
                break
        if page is None:
            self.nemesis.record(tick, "latent", {"shard": shard},
                                "skipped-no-written-slot")
            return
        params = {"shard": shard, "page": page, "disk": address.disk,
                  "slot": address.slot}
        fault = self.registry.open(
            "latent", f"latent sector: shard {shard} page {page} "
                      f"(disk {address.disk} slot {address.slot})", tick)
        engine.array.disks[address.disk].corrupt(address.slot)
        repaired_pages = engine.array.scrub_repair()
        repaired = page in repaired_pages
        if not repaired:
            self._report("recovery-failure",
                         f"latent: scrub repaired {repaired_pages}, "
                         f"not page {page}", tick)
        self._judge(tick)
        self.nemesis.record(tick, "latent", params,
                            "scrubbed" if repaired else "missed")
        self._close(fault, tick, repaired)

    def _do_trim(self, tick: int) -> None:
        fault = self.registry.open("trim", "checkpoint + log trim", tick)
        checkpointed = False
        if self.db.checkpointer is not None:
            self.db.checkpoint()
            checkpointed = True
        discarded = self.db.trim_log()
        self._judge(tick)
        self.nemesis.record(tick, "trim", {"checkpoint": checkpointed,
                                           "discarded": discarded}, "trimmed")
        self._close(fault, tick, True)

    def _do_shard_kill(self, tick: int) -> None:
        rng = self.nemesis.rng
        shards = self.options.shards
        count = rng.randint(1, max(1, min(self.nemesis.profile.max_shard_kills,
                                          shards - 1)))
        victims = sorted(rng.sample(range(shards), count))
        fault = self.registry.open(
            "shard_kill", f"kill + restart shards {victims} of {shards}",
            tick)
        # the group-commit crash contract: acknowledged commits must be
        # durable before any shard loses memory
        self.db.coordinator.flush()
        global_winners = self.db.commit_log.txn_ids(CommitRecord)
        repaired = True
        self.profile.begin_cycle()
        for index in victims:
            self.db.shards[index].crash()
        for index in victims:
            try:
                stats = self.db.shards[index].recover()
            except (RecoveryError, UnrecoverableDataError, ModelError) as exc:
                self._report("recovery-failure",
                             f"shard_kill: shard {index} restart raised "
                             f"{exc!r}", tick)
                self.fatal = True
                repaired = False
                break
            torn = global_winners.intersection(stats["losers"])
            if torn:
                self._report(
                    "shard-kill-atomicity",
                    f"shard {index} lost globally committed transaction(s) "
                    f"{sorted(torn)}", tick)
        self.profile.end_cycle(None)
        if repaired:
            self._judge(tick)
        self.nemesis.record(tick, "shard_kill", {"victims": victims},
                            "restarted" if repaired else "failed")
        self._close(fault, tick, repaired)

    def _do_worker_kill(self, tick: int) -> None:
        """SIGKILL one shard's worker process, then drive the crash
        contract.

        The kill is unceremonious — whatever the worker was holding
        (deferred group-commit forces, buffered state) dies with it.
        The facade's ``crash()`` heals the worker first (journal
        replay rebuilds the engine to the state where every journaled
        command fully executed), *then* drains the coordinator, so the
        battery-backed-buffer contract still covers every acknowledged
        commit; restart recovery's global-winner cross-check is the
        judge of record for the atomicity claim.
        """
        rng = self.nemesis.rng
        victim = rng.randrange(self.options.shards)
        fault = self.registry.open(
            "worker_kill", f"SIGKILL shard {victim} worker + heal "
                           "+ restart", tick)
        self.db.supervisor.kill(victim)
        repaired = self._crash_recover(tick, fault, damage=None)
        self.nemesis.record(tick, "worker_kill", {"shard": victim},
                            "healed" if repaired else "failed")
        self._close(fault, tick, repaired)

    def _do_mutant(self, tick: int) -> None:
        rng = self.nemesis.rng
        rules = {rule.name: rule for rule in default_rules()}
        name = self.nemesis.profile.mutant_rules[
            rng.randrange(len(self.nemesis.profile.mutant_rules))]
        engines = engines_of(self.db)
        shard = rng.randrange(len(engines))
        engine = engines[shard]
        try:
            detail = rules[name].mutate(engine)
        except MutantError as exc:
            self.nemesis.record(tick, "mutant",
                                {"rule": name, "shard": shard},
                                f"inapplicable: {exc}")
            return
        fault = self.registry.open("mutant", f"{name} on shard {shard}: "
                                             f"{detail}", tick)
        self._open_mutants.append((fault, name, engine))
        self.nemesis.record(tick, "mutant", {"rule": name, "shard": shard},
                            "armed")

    def _expire_mutants(self, tick: int) -> None:
        """Revert armed mutants and close their attribution windows.

        Runs at the head of each nemesis tick (so a mutant stays active
        across exactly one batch of judged work) and once at campaign
        end.  A mutant *survived* means the corruption went undetected
        — the inverted polarity is deliberate and is what the
        attribution tests assert on.
        """
        for fault, name, engine in self._open_mutants:
            _MUTANT_REVERTS[name](engine)
            self._judge(tick)
            self._close(fault, tick, repaired=True)
        self._open_mutants.clear()


class StressRunner:
    """Runs one stress cell (chaos pass + optional baseline pass)."""

    def __init__(self, options: StressOptions) -> None:
        self.options = options
        self.nemesis = Nemesis(options.nemesis_profile, seed=options.seed)

    def run(self) -> StressReport:
        options = self.options
        chaos = _Campaign(options, self.nemesis)
        try:
            chaos.run()
        finally:
            worker_deaths = getattr(chaos.db, "worker_deaths", 0)
            if hasattr(chaos.db, "close"):
                chaos.db.close()
        report = StressReport(
            preset=options.preset,
            shards=options.shards,
            seed=options.seed,
            nemesis_profile=self.nemesis.profile.name,
            workers=chaos.worker_mode,
            worker_deaths=worker_deaths,
            ticks=chaos.ticks,
            committed=chaos.workload.committed,
            aborted=chaos.workload.aborted,
            deadlocks=chaos.workload.deadlocks,
            faults_injected=chaos.registry.injected,
            faults_survived=chaos.registry.survived,
            injected_by_kind=chaos.registry.injected_by_kind(),
            survived_by_kind=chaos.registry.survived_by_kind(),
            violations=chaos.violations,
            phase_batches=chaos.workload.phase_batches,
            duration_s=chaos.duration_s,
            mttr=(chaos.profile.to_dict() if chaos.profile.crashes else None),
            drift=(chaos.drift.summary() if chaos.drift is not None else None),
            schedule=self.nemesis.schedule,
            faults=chaos.registry.to_dicts(),
        )
        if options.baseline and not chaos.fatal:
            baseline = _Campaign(options, nemesis=None)
            try:
                baseline.run()
            finally:
                if hasattr(baseline.db, "close"):
                    baseline.db.close()
            report.baseline_committed = baseline.workload.committed
            report.baseline_duration_s = baseline.duration_s
            # a baseline violation means the judges (or the engine) are
            # broken without any fault injected — surface it loudly
            for violation in baseline.violations:
                report.violations.append(dict(violation,
                                              kind="baseline-" +
                                                   violation["kind"]))
        return report


def default_matrix(seed: int = 0, nemesis_profile: object = "default",
                   **option_overrides) -> List[StressOptions]:
    """The acceptance matrix: all five recovery classes at K=1 (the
    four RDA classes plus both REDO-only presets) and three K=2
    sharded cells under group commit."""
    cells: List[Tuple[str, int]] = [
        ("page-force-rda", 1),
        ("page-noforce-rda", 1),
        ("record-force-rda", 1),
        ("record-noforce-rda", 1),
        ("page-noforce-redo", 1),
        ("record-noforce-rda-redo", 1),
        ("page-force-rda", 2),
        ("page-noforce-redo", 2),
        ("record-noforce-rda-redo", 2),
    ]
    base = StressOptions(seed=seed, nemesis_profile=nemesis_profile,
                         **option_overrides)
    return [replace(base, preset=name, shards=shards)
            for name, shards in cells]


def run_stress_matrix(cells: Sequence[StressOptions]) -> List[StressReport]:
    """Run every cell; each gets its own Nemesis seeded from its options."""
    return [StressRunner(options).run() for options in cells]
