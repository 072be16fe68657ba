"""Exhaustive crash-point fault injection with torn-write and
media-error schedules.

The engine runs a scripted workload twice.  The *recording* pass hooks
every disk write and every log-page flush and assigns each a global
sequence index — the **schedule**.  The *sweep* then replays the same
script once per schedule entry ``k`` under a :class:`FaultPlan`:

* writes ``0..k-1`` land normally;
* write ``k`` is perturbed per the plan's ``mode``:

  - ``"clean"`` — lands intact (pure crash-point test);
  - ``"torn"`` — a data page stores half new / half old bytes, a log
    page has its tail mangled after the crash (partial sector write);
  - ``"latent"`` — a data page stores flipped bytes (media error);
    on a log page this behaves like ``"torn"``;

  either way the *intended* checksum is recorded, so the damage
  surfaces as a :class:`~repro.errors.LatentSectorError` (data) or a
  record CRC failure (log) during restart;
* write ``k+1`` raises :class:`CrashPointReached` — the simulated
  power cut.

After the cut the database crashes and restarts.  Every schedule must
end in one of:

* ``"recovered"`` — restart succeeds, :func:`~repro.db.verify.
  verify_database` is clean, and the surviving transactions match the
  committed-state oracle;
* ``"detected"`` — restart refuses with
  :class:`~repro.errors.UnrecoverableDataError`; only acceptable when
  the plan actually destroyed data (``torn``/``latent`` modes);
* ``"violation"`` — anything else: silent corruption, lost committed
  work, or resurrected uncommitted work.  These fail the sweep.

The committed-state oracle tracks, per replay, which commit operations
finished relative to the crash index: a commit whose writes all landed
intact **must** survive; one whose final write was the perturbed one or
that the cut interrupted **may** survive (e.g. a commit record durable
on one duplex copy only); any other transaction **must not** survive.
The expected page image is then derived from the transactions that
actually won, applied in script commit order.

Workload scripts are tuples: ``("begin", t)``, ``("write", t, page,
version)``, ``("update", t, page, version)`` (record mode: overwrite
slot 0), ``("commit", t)``, ``("abort", t)`` with opaque labels ``t``.
Scripts must be conflict-free (no two concurrently-active transactions
touching the same page), since the replay executes them on a single
thread and a lock wait would deadlock the script.  Record-mode scripts
pair with a ``setup`` callable (see :func:`record_fault_setup`) that
formats and seeds the touched pages before the injector attaches, so
seeding writes never enter the schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

from ..db.recovery import RESTART_COUNTERS
from ..db.verify import verify_database
from ..errors import ReproError, UnrecoverableDataError
from ..storage.page import PAGE_SIZE, ZERO_PAGE, make_page

MODES = ("clean", "torn", "latent")
"""Recognised perturbations of the crash-point write."""


class Violation(NamedTuple):
    """One invariant violation: a machine-matchable kind + detail."""

    kind: str
    detail: str

    def __str__(self) -> str:  # keeps old string-formatting call sites
        return f"{self.kind}: {self.detail}"


def violations_by_kind(violations) -> dict:
    """Count violations per ``kind`` (plain strings count as "other")."""
    counts: dict = {}
    for violation in violations:
        kind = violation.kind if isinstance(violation, Violation) else "other"
        counts[kind] = counts.get(kind, 0) + 1
    return counts


class CrashPointReached(ReproError):
    """The fault plan's crash point fired: the simulated power cut."""

    def __init__(self, index: int) -> None:
        self.index = index
        super().__init__(f"crash point reached at write index {index}")


@dataclass(frozen=True)
class WriteRecord:
    """One entry of the recorded I/O schedule."""

    index: int
    kind: str       # "data" (array disk write) or "log" (log page flush)
    device: int     # disk_id (>= 0) or log device_id (< 0)
    slot: int       # disk slot or log page index


@dataclass(frozen=True)
class FaultPlan:
    """Crash after the ``crash_after``-th write, perturbing that write."""

    crash_after: int
    mode: str = "clean"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def engines_of(db) -> list:
    """The single-engine databases behind ``db``: its shards for a
    :class:`~repro.db.sharded.ShardedDatabase`, else ``[db]``."""
    shards = getattr(db, "shards", None)
    return list(shards) if shards is not None else [db]


class FaultInjector:
    """Hooks one database's disks and log devices to a fault plan.

    With ``plan=None`` it records the write schedule; with a plan it
    replays, perturbing write ``crash_after`` and raising
    :class:`CrashPointReached` on the next one.

    Works on both single engines and sharded facades: shard disks share
    local ids 0..D-1, so the schedule records the shard-scoped alias
    ``shard * D + disk_id`` (a plain :class:`Database` keeps its raw
    ids), and the log list covers every shard's WAL plus the global
    commit log.
    """

    def __init__(self, db, plan: FaultPlan | None = None) -> None:
        self.db = db
        self.plan = plan
        self.position = 0
        self.schedule: list = []
        self.injected: WriteRecord | None = None
        self._damaged_log: list = []      # (LogDevice, page_index)
        self._engines = engines_of(db)
        self._disks = {}
        self._disk_list = []              # (alias, disk), attach order
        stride = max(len(e.array.disks) for e in self._engines)
        for shard, engine in enumerate(self._engines):
            for disk in engine.array.disks:
                alias = shard * stride + disk.disk_id
                self._disks[alias] = disk
                self._disk_list.append((alias, disk))
        self._log_devices = {}
        # raw log-device ids come from a process-global counter, so the
        # schedule records a stable per-database alias (-1, -2, ...)
        # instead — two recordings of the same workload then compare equal
        self._device_alias = {}
        for log in self._logs():
            for device in log._devices:
                self._log_devices[device.device_id] = device
                self._device_alias[device.device_id] = \
                    -(len(self._device_alias) + 1)

    def _logs(self):
        logs = []
        for engine in self._engines:
            logs.append(engine.undo_log)
            if engine.redo_log is not engine.undo_log:
                logs.append(engine.redo_log)
        commit_log = getattr(self.db, "commit_log", None)
        if commit_log is not None:
            logs.append(commit_log)
        return logs

    def attach(self) -> None:
        for alias, disk in self._disk_list:
            disk.fault_hook = self._disk_hook(alias)
        for device in self._log_devices.values():
            device.on_page_write = self._on_log_write

    def _disk_hook(self, alias: int):
        # per-disk closure: the disk reports its *local* id, the
        # schedule needs the shard-scoped alias
        return lambda disk_id, slot, payload: self._on_disk_write(
            alias, slot, payload)

    def detach(self) -> None:
        for _alias, disk in self._disk_list:
            disk.fault_hook = None
        for device in self._log_devices.values():
            device.on_page_write = None

    # -- hook bodies -------------------------------------------------------

    def _advance(self, record: WriteRecord) -> bool:
        """Count one write; True when it is the one to perturb."""
        if self.plan is None:
            self.schedule.append(record)
            self.position += 1
            return False
        if record.index > self.plan.crash_after:
            raise CrashPointReached(record.index)
        self.position += 1
        if record.index == self.plan.crash_after:
            self.injected = record
            return self.plan.mode != "clean"
        return False

    def _on_disk_write(self, disk_id: int, slot: int, payload: bytes):
        record = WriteRecord(self.position, "data", disk_id, slot)
        if not self._advance(record):
            return None
        if self.plan.mode == "torn":
            # the head of the sector is the new write, the tail is
            # whatever was there before the power cut
            old = self._disks[disk_id].peek(slot)
            return payload[:PAGE_SIZE // 2] + old[PAGE_SIZE // 2:]
        # latent: the write lands but the medium corrupts it
        return bytes([payload[0] ^ 0xFF]) + payload[1:]

    def _on_log_write(self, device_id: int, page_index: int) -> None:
        record = WriteRecord(self.position, "log",
                             self._device_alias[device_id], page_index)
        if self._advance(record):
            # the page flush is charged normally; the damage is applied
            # to the on-disk bytes after the crash (see apply_log_damage)
            self._damaged_log.append((self._log_devices[device_id],
                                      page_index))

    def apply_log_damage(self) -> int:
        """Mangle the tail of each marked log page (call after
        ``db.crash()``, which first truncates the unforced tail).
        Models a torn log-page write; record CRCs catch it at restart.
        Returns the number of pages damaged."""
        damaged = 0
        for device, page_index in self._damaged_log:
            start = page_index * device.page_size
            end = min(start + device.page_size, len(device._data))
            mid = start + (end - start) // 2
            if mid >= end:
                continue
            for offset in range(mid, end):
                device._data[offset] ^= 0xA5
            damaged += 1
        return damaged


# -- scripted workloads ----------------------------------------------------


def payload_for(label, page: int, version: int) -> bytes:
    """Deterministic page image for a script write."""
    return make_page(f"t{label}p{page}v{version}.")


RECORD_SEED = b"seed"
"""Slot-0 value :func:`record_fault_setup` installs on every page."""


def record_payload_for(label, page: int, version: int) -> bytes:
    """Deterministic slot-0 record value for a script update."""
    return f"t{label}p{page}v{version}".encode()


def default_fault_workload(transactions: int = 2, group_size: int = 4,
                           pages_per_txn: int = 2) -> list:
    """The acceptance workload: each transaction writes its own pages
    (one per parity group, so concurrent steals never share a group),
    rewrites its first page, and — except the first — also rewrites the
    *previous* transaction's first committed page, exercising
    cross-transaction overwrites in the oracle.  Every third
    transaction aborts instead of committing."""

    def page_of(t: int, j: int) -> int:
        return (t * pages_per_txn + j) * group_size

    ops: list = []
    for t in range(transactions):
        ops.append(("begin", t))
        for j in range(pages_per_txn):
            ops.append(("write", t, page_of(t, j), 1))
        ops.append(("write", t, page_of(t, 0), 2))
        if t > 0:
            ops.append(("write", t, page_of(t - 1, 0), 2 + t))
        if t % 3 == 2:
            ops.append(("abort", t))
        else:
            ops.append(("commit", t))
    return ops


def shard_aligned_fault_workload(shards: int, transactions: int = 4,
                                 group_size: int = 4,
                                 pages_per_txn: int = 2) -> list:
    """A fault-sweep script for a K-way sharded database.

    Transaction ``t`` writes only pages routing to shard ``t mod K``
    (global page ``shard + K * local``), one per parity group of that
    shard, and the cross-transaction overwrite targets transaction
    ``t - K`` — the previous owner of the *same* shard.  Keeping every
    transaction single-shard matters: the group-commit crash contract
    makes acknowledged commits atomic, but a commit *interrupted by the
    crash point* between shards may surface on some shards only, which
    a multi-shard transaction would report as a partial state — exactly
    the anomaly the sharded engine documents as out of scope.
    """

    def page_of(t: int, j: int) -> int:
        shard = t % shards
        local = (t // shards * pages_per_txn + j) * group_size
        return shard + shards * local

    ops: list = []
    for t in range(transactions):
        ops.append(("begin", t))
        for j in range(pages_per_txn):
            ops.append(("write", t, page_of(t, j), 1))
        ops.append(("write", t, page_of(t, 0), 2))
        if t >= shards:
            ops.append(("write", t, page_of(t - shards, 0), 2 + t))
        if t % 3 == 2:
            ops.append(("abort", t))
        else:
            ops.append(("commit", t))
    return ops


def record_fault_workload(transactions: int = 2, group_size: int = 4,
                          pages_per_txn: int = 2) -> list:
    """The record-mode acceptance workload: the same shape as
    :func:`default_fault_workload`, but every write is a slot-0
    ``update`` — exercising record logging (deferred before-entries,
    staged redo chains) instead of whole-page images.  Pair with
    :func:`record_fault_setup`."""

    def page_of(t: int, j: int) -> int:
        return (t * pages_per_txn + j) * group_size

    ops: list = []
    for t in range(transactions):
        ops.append(("begin", t))
        for j in range(pages_per_txn):
            ops.append(("update", t, page_of(t, j), 1))
        ops.append(("update", t, page_of(t, 0), 2))
        if t > 0:
            ops.append(("update", t, page_of(t - 1, 0), 2 + t))
        if t % 3 == 2:
            ops.append(("abort", t))
        else:
            ops.append(("commit", t))
    return ops


def record_fault_setup(ops):
    """Setup callable for a record-mode script: format every touched
    page and commit :data:`RECORD_SEED` into slot 0.  Under a REDO-only
    configuration the seeding commits one page per transaction (the
    write-behind gate holds uncommitted pages in the buffer)."""
    pages = workload_pages(ops)

    def setup(db) -> None:
        db.format_record_pages(pages)
        batches = ([[page] for page in pages]
                   if db.config.redo_only else [pages])
        for batch in batches:
            txn = db.begin()
            for page in batch:
                db.insert_record(txn, page, RECORD_SEED)
            db.commit(txn)

    return setup


def workload_pages(ops) -> list:
    """Sorted set of pages any script write touches."""
    return sorted({op[2] for op in ops if op[0] in ("write", "update")})


# -- plan execution --------------------------------------------------------


@dataclass
class PlanOutcome:
    """Result of one replayed schedule."""

    plan: FaultPlan
    outcome: str                    # "recovered" | "detected" | "violation"
    violations: list = field(default_factory=list)
    winners: list = field(default_factory=list)
    detail: str = ""
    # per-crash-point recovery profile: wall-clock MTTR plus the restart
    # statistics (sweep databases run untraced, so this is the stats-level
    # view; the span-level breakdown needs a traced run)
    recovery: dict = field(default_factory=dict)


def _execute(db, ops, txn_ids: dict, commit_spans: dict,
             position_of) -> None:
    """Run the script; ``commit_spans[label] = (start, end)`` records the
    global write indices each *completed* commit spanned."""
    for op in ops:
        name, label = op[0], op[1]
        if name == "begin":
            txn_ids[label] = db.begin()
        elif name == "write":
            db.write_page(txn_ids[label], op[2], payload_for(label, op[2],
                                                             op[3]))
        elif name == "update":
            db.update_record(txn_ids[label], op[2], 0,
                             record_payload_for(label, op[2], op[3]))
        elif name == "commit":
            start = position_of()
            # provisional (end=None) marks an in-flight commit: if the
            # crash interrupts it, the commit record may still be
            # durable on one duplex copy, so the oracle must allow
            # either outcome
            commit_spans[label] = (start, None)
            db.commit(txn_ids[label])
            commit_spans[label] = (start, position_of())
        elif name == "abort":
            db.abort(txn_ids[label])
        else:
            raise ValueError(f"unknown script op {name!r}")


def _oracle_sets(commit_spans: dict, plan: FaultPlan) -> tuple:
    """(must, may): labels that must / may survive the crash.

    A commit whose last write index is below the perturbed one landed
    entirely intact — it must survive.  A commit ending exactly on the
    perturbed write must survive under "clean" but only may under
    damage modes (the damaged sector could hold its commit record).
    Interrupted commits may survive (the record can be durable on one
    duplex copy); transactions that never reached commit must not.
    """
    must, may = set(), set()
    k = plan.crash_after
    for label, (start, end) in commit_spans.items():
        if end is None:
            may.add(label)          # interrupted mid-commit
        elif end <= k:
            must.add(label)
        elif end == k + 1:
            (must if plan.mode == "clean" else may).add(label)
        else:
            may.add(label)
    return must, may


def _expected_state(ops, winner_labels: set) -> dict:
    """Page image implied by the winning transactions, applied in
    script commit order."""
    expected = {page: ZERO_PAGE for page in workload_pages(ops)}
    writes: dict = {}               # label -> {page: payload}
    for op in ops:
        if op[0] == "write":
            writes.setdefault(op[1], {})[op[2]] = payload_for(op[1], op[2],
                                                              op[3])
        elif op[0] == "commit" and op[1] in winner_labels:
            expected.update(writes.get(op[1], {}))
    return expected


def _expected_records(ops, winner_labels: set) -> dict:
    """Slot-0 record value implied by the winning transactions, applied
    in script commit order (record-mode scripts)."""
    expected = {page: RECORD_SEED for page in workload_pages(ops)}
    writes: dict = {}               # label -> {page: value}
    for op in ops:
        if op[0] == "update":
            writes.setdefault(op[1], {})[op[2]] = record_payload_for(
                op[1], op[2], op[3])
        elif op[0] == "commit" and op[1] in winner_labels:
            expected.update(writes.get(op[1], {}))
    return expected


def run_plan(make_db, ops, plan: FaultPlan, setup=None) -> PlanOutcome:
    """Replay ``ops`` on a fresh database under ``plan``, crash, recover,
    and judge the outcome against the committed-state oracle.

    ``setup(db)``, if given, runs *before* the injector attaches
    (record-mode seeding: its writes stay out of the schedule)."""
    db = make_db()
    if setup is not None:
        setup(db)
    injector = FaultInjector(db, plan)
    injector.attach()
    txn_ids: dict = {}
    commit_spans: dict = {}
    try:
        try:
            _execute(db, ops, txn_ids, commit_spans,
                     lambda: injector.position)
        except CrashPointReached:
            pass
    finally:
        injector.detach()

    db.crash()
    injector.apply_log_damage()

    violations: list = []
    recover_t0 = perf_counter()
    try:
        stats = db.recover()
    except UnrecoverableDataError as error:
        if plan.mode == "clean":
            violations.append(Violation(
                "unrecoverable", f"clean crash refused recovery: {error}"))
            return PlanOutcome(plan, "violation", violations, [], str(error))
        return PlanOutcome(plan, "detected", [], [], str(error))
    except ReproError as error:
        violations.append(Violation(
            "recovery-error", f"{type(error).__name__}: {error}"))
        return PlanOutcome(plan, "violation", violations, [], str(error))
    recovery = {
        "mttr_ms": round((perf_counter() - recover_t0) * 1e3, 3),
        "winners": len(stats["winners"]),
        "losers": len(stats["losers"]),
        **{key: stats[key] for key in RESTART_COUNTERS if key in stats},
    }

    for problem in verify_database(db):
        violations.append(Violation("verify", problem))

    # every surviving restart also satisfies the online invariants
    # (lazy import: repro.check imports this module for Violation)
    from ..check.invariants import check_restart
    violations.extend(check_restart(db))

    label_of = {txn_id: label for label, txn_id in txn_ids.items()}
    winner_labels = {label_of[txn_id] for txn_id in stats["winners"]
                     if txn_id in label_of}
    must, may = _oracle_sets(commit_spans, plan)
    for label in sorted(must - winner_labels, key=repr):
        violations.append(Violation(
            "durability",
            f"transaction {label!r} committed before the crash point "
            "but did not survive recovery"))
    for label in sorted(winner_labels - must - may, key=repr):
        violations.append(Violation(
            "resurrection",
            f"transaction {label!r} never finished committing "
            "but survived recovery"))

    if any(op[0] == "update" for op in ops):
        from ..db.slotted_page import SlottedPage
        for page, value in _expected_records(ops, winner_labels).items():
            actual = SlottedPage.from_bytes(db.disk_page(page)).read(0)
            if actual != value:
                violations.append(Violation(
                    "state",
                    f"page {page} slot 0: on-disk record does not match "
                    f"the oracle (winners "
                    f"{sorted(winner_labels, key=repr)})"))
    else:
        for page, payload in _expected_state(ops, winner_labels).items():
            actual = db.disk_page(page)
            if actual != payload:
                violations.append(Violation(
                    "state",
                    f"page {page}: on-disk bytes do not match the oracle "
                    f"(winners {sorted(winner_labels, key=repr)})"))

    outcome = "violation" if violations else "recovered"
    return PlanOutcome(plan, outcome, violations,
                       sorted(winner_labels, key=repr), recovery=recovery)


# -- sweeps ----------------------------------------------------------------


@dataclass
class FaultSweepReport:
    """Summary of an exhaustive crash-point sweep."""

    schedule: list = field(default_factory=list)    # [WriteRecord]
    results: list = field(default_factory=list)     # [PlanOutcome]
    modes: tuple = MODES

    @property
    def counts(self) -> dict:
        out = {"recovered": 0, "detected": 0, "violation": 0}
        for result in self.results:
            out[result.outcome] = out.get(result.outcome, 0) + 1
        return out

    @property
    def violations(self) -> list:
        return [v for result in self.results for v in result.violations]

    def violations_by_kind(self) -> dict:
        return violations_by_kind(self.violations)

    @property
    def clean(self) -> bool:
        """True when every schedule recovered or detected its damage."""
        return not self.violations

    def recovery_summary(self) -> dict:
        """Aggregate MTTR/cost statistics over the runs that recovered."""
        profiles = [r.recovery for r in self.results if r.recovery]
        if not profiles:
            return {"recovered_runs": 0}
        mttrs = [p["mttr_ms"] for p in profiles]
        return {
            "recovered_runs": len(profiles),
            "mttr_ms": {
                "mean": round(sum(mttrs) / len(mttrs), 3),
                "max": round(max(mttrs), 3),
                "total": round(sum(mttrs), 3),
            },
            **{key: sum(p.get(key, 0) for p in profiles)
               for key in RESTART_COUNTERS},
        }

    def to_dict(self) -> dict:
        return {
            "write_count": len(self.schedule),
            "modes": list(self.modes),
            "schedule": [{"index": w.index, "kind": w.kind,
                          "device": w.device, "slot": w.slot}
                         for w in self.schedule],
            "counts": self.counts,
            "clean": self.clean,
            "violations_by_kind": self.violations_by_kind(),
            "recovery": self.recovery_summary(),
            "runs": [{
                "crash_after": r.plan.crash_after,
                "mode": r.plan.mode,
                "outcome": r.outcome,
                "winners": [repr(w) for w in r.winners],
                "detail": r.detail,
                "violations": [{"kind": v.kind, "detail": v.detail}
                               for v in r.violations],
                "recovery": r.recovery,
            } for r in self.results],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def record_schedule(make_db, ops, setup=None) -> list:
    """Run the script once without faults; returns its write schedule."""
    db = make_db()
    if setup is not None:
        setup(db)
    injector = FaultInjector(db, plan=None)
    injector.attach()
    try:
        _execute(db, ops, {}, {}, lambda: injector.position)
    finally:
        injector.detach()
    return injector.schedule


def run_sweep(make_db, ops, modes=MODES, tracer=None,
              setup=None) -> FaultSweepReport:
    """Enumerate every crash point of the script under every mode.

    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) receives one
    ``faultplan.crash_point`` event per schedule run.  ``setup(db)``
    runs on every fresh database before its injector attaches.
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown fault mode {mode!r}")
    schedule = record_schedule(make_db, ops, setup=setup)
    report = FaultSweepReport(schedule=schedule, modes=tuple(modes))
    for entry in schedule:
        for mode in modes:
            result = run_plan(make_db, ops, FaultPlan(entry.index, mode),
                              setup=setup)
            report.results.append(result)
            if tracer is not None and tracer.enabled:
                tracer.emit("faultplan.crash_point",
                            index=entry.index, kind=entry.kind,
                            device=entry.device, slot=entry.slot,
                            mode=mode, outcome=result.outcome,
                            violations=len(result.violations),
                            mttr_ms=result.recovery.get("mttr_ms"))
    return report
