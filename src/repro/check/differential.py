"""Differential checking against a trivial reference database.

The reference is a dict with transaction staging — no buffer pool,
no parity, no log, no recovery.  Whatever the real engine's steal /
force / twin machinery does, every read a transaction performs and
every committed value it leaves behind must match what the dict says.
The :class:`DifferentialMirror` receives the same operation stream the
:class:`~repro.sim.simulator.Simulator` drives (via its ``conformance``
hook), compares as it goes, and diffs the final committed state.

:func:`run_conformance` bundles the whole apparatus — history
recorder, online invariant engine, mirror, structural verification and
serializability analysis — into a single verdict per configuration;
:func:`conformance_matrix` sweeps all recovery classes x RDA on/off x
page/record locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..db import (Database, ShardedDatabase, all_preset_names,
                  extended_preset_names, make_sharded, preset)
from ..db.slotted_page import SlottedPage
from ..sim import Simulator, WorkloadSpec
from ..storage.page import ZERO_PAGE
from .history import History, HistoryRecorder
from .invariants import InvariantEngine, Violation, verify_database
from .serializability import SerializabilityReport, analyze

Resource = Tuple[int, Optional[int]]


class ReferenceDatabase:
    """Committed dict + per-transaction staging; the oracle's model of
    what a correct database does."""

    def __init__(self, default: bytes = ZERO_PAGE):
        self.committed: Dict[Resource, bytes] = {}
        self.default = default
        self._staged: Dict[int, Dict[Resource, bytes]] = {}

    def seed(self, values: Dict[Resource, bytes]) -> None:
        self.committed.update(values)

    def begin(self, txn: int) -> None:
        self._staged[txn] = {}

    def read(self, txn: int, resource: Resource) -> bytes:
        staged = self._staged.get(txn, {})
        if resource in staged:
            return staged[resource]
        return self.committed.get(resource, self.default)

    def write(self, txn: int, resource: Resource, value: bytes) -> None:
        self._staged.setdefault(txn, {})[resource] = value

    def commit(self, txn: int) -> None:
        self.committed.update(self._staged.pop(txn, {}))

    def abort(self, txn: int) -> None:
        self._staged.pop(txn, None)

    def crash(self) -> None:
        """Main memory dies: every in-flight transaction's staging is
        gone; committed state survives (that is the recovery promise)."""
        self._staged.clear()


class DifferentialMirror:
    """Implements the simulator's ``conformance`` protocol: mirrors
    each operation into a :class:`ReferenceDatabase` and records a
    violation whenever the real engine's answer diverges."""

    def __init__(self, record_mode: bool = False):
        self.record_mode = record_mode
        default = b"" if record_mode else ZERO_PAGE
        self.reference = ReferenceDatabase(default=default)
        self.violations: List[Violation] = []
        self.reads_checked = 0

    def seed(self, values: Dict[Resource, bytes]) -> None:
        self.reference.seed(values)

    # -- the simulator hook protocol -----------------------------------------

    def begin(self, txn: int) -> None:
        self.reference.begin(txn)

    def read(self, txn: int, page: int, slot: Optional[int],
             value: bytes) -> None:
        expected = self.reference.read(txn, (page, slot))
        self.reads_checked += 1
        if value != expected:
            self.violations.append(Violation(
                "read-divergence",
                f"txn {txn} read {_res_name(page, slot)}: engine returned "
                f"{value[:24]!r}, reference says {expected[:24]!r}"))

    def write(self, txn: int, page: int, slot: Optional[int],
              value: bytes) -> None:
        self.reference.write(txn, (page, slot), value)

    def commit(self, txn: int) -> None:
        self.reference.commit(txn)

    def abort(self, txn: int) -> None:
        self.reference.abort(txn)

    def crash(self) -> None:
        self.reference.crash()

    # -- end-state diff ------------------------------------------------------

    def final_state_diff(self, db: Database) -> List[Violation]:
        """Compare every committed reference value against the real
        database's committed view (buffer-first, like a new reader)."""
        violations: List[Violation] = []
        if self.record_mode:
            for (page, slot), expected in sorted(self.reference.committed.items()):
                actual = SlottedPage.from_bytes(
                    db.committed_view(page)).read(slot)
                if actual != expected:
                    violations.append(Violation(
                        "state-divergence",
                        f"record ({page},{slot}): engine has "
                        f"{actual[:24]!r}, reference {expected[:24]!r}"))
        else:
            for page in range(db.num_data_pages):
                expected = self.reference.committed.get((page, None),
                                                        ZERO_PAGE)
                actual = db.committed_view(page)
                if actual != expected:
                    violations.append(Violation(
                        "state-divergence",
                        f"page {page}: engine has {actual[:24]!r}, "
                        f"reference {expected[:24]!r}"))
        return violations


def _res_name(page: int, slot: Optional[int]) -> str:
    return f"page {page}" if slot is None else f"record ({page},{slot})"


@dataclass
class ConformanceRun:
    """Everything one conformance run learned about one preset."""

    preset: str
    transactions: int
    seed: int
    crash_every: Optional[int]
    history: History
    serializability: SerializabilityReport
    violations: List[Violation]
    barrier_counts: Dict[str, int]
    reads_checked: int
    report_summary: str
    shards: int = 1
    extra: dict = field(default_factory=dict)

    @property
    def cell(self) -> str:
        """Matrix cell label: the preset, suffixed ``@kK`` when sharded."""
        if self.shards > 1:
            return f"{self.preset}@k{self.shards}"
        return self.preset

    @property
    def clean(self) -> bool:
        return not self.violations and self.serializability.clean

    def to_dict(self) -> dict:
        """JSON-ready verdict (the history travels separately)."""
        return {
            "preset": self.preset,
            "cell": self.cell,
            "shards": self.shards,
            "transactions": self.transactions,
            "seed": self.seed,
            "crash_every": self.crash_every,
            "clean": self.clean,
            "events": len(self.history),
            "reads_checked": self.reads_checked,
            "barrier_counts": dict(sorted(self.barrier_counts.items())),
            "serializability": self.serializability.to_dict(),
            "violations": [{"kind": v.kind, "detail": v.detail}
                           for v in self.violations],
            "report": self.report_summary,
        }


_DEFAULT_SPEC = WorkloadSpec(concurrency=4, pages_per_txn=5,
                             update_txn_fraction=0.8,
                             update_probability=0.9,
                             abort_probability=0.05,
                             communality=0.6)

_DEFAULT_OVERRIDES = dict(group_size=5, num_groups=12, buffer_capacity=20)


def run_conformance(preset_name: str, transactions: int = 40, seed: int = 0,
                    spec: Optional[WorkloadSpec] = None,
                    crash_every: Optional[int] = None,
                    overrides: Optional[dict] = None,
                    shards: int = 1,
                    flush_horizon: int = 1,
                    workers: Optional[bool] = None) -> ConformanceRun:
    """Run one seeded workload under full conformance checking.

    Builds a :class:`Database` (or, with ``shards > 1``, a
    :class:`~repro.db.sharded.ShardedDatabase` with the given
    group-commit ``flush_horizon``; with ``workers`` also true, a
    :class:`~repro.db.workers.WorkerShardedDatabase`, so the whole
    harness — lock oracle, differential mirror, invariant barriers,
    final-state sweep — judges the worker-process engine end to end)
    with a history recorder and an attached :class:`InvariantEngine`,
    drives it through a :class:`Simulator` with a
    :class:`DifferentialMirror`, then aggregates: online invariant
    violations, read divergences, final-state divergences, structural
    verification (:func:`verify_database`) and the serializability
    analysis of the recorded history.  ``workers=None`` honors the
    ``REPRO_WORKERS`` environment variable.
    """
    config = preset(preset_name,
                    **(_DEFAULT_OVERRIDES if overrides is None else overrides))
    recorder = HistoryRecorder()
    if shards > 1:
        db = make_sharded(config, shards=shards,
                          flush_horizon=flush_horizon, history=recorder,
                          workers=workers)
    else:
        db = Database(config, history=recorder)
    try:
        engine = InvariantEngine.attach(db)
        simulator = Simulator(db, spec if spec is not None else _DEFAULT_SPEC,
                              seed=seed)
        mirror = DifferentialMirror(record_mode=simulator.record_mode)
        simulator.conformance = mirror
        if simulator.record_mode:
            simulator.seed_records()
            mirror.seed({(page, 0): b"seed"
                         for page in range(db.num_data_pages)})
        report = simulator.run(transactions, crash_every=crash_every)
        violations: List[Violation] = []
        violations.extend(engine.violations)
        violations.extend(mirror.violations)
        violations.extend(mirror.final_state_diff(db))
        violations.extend(verify_database(db))
        barrier_counts = dict(engine.barrier_counts)
    finally:
        if hasattr(db, "close"):
            db.close()
    return ConformanceRun(
        preset=preset_name,
        transactions=transactions,
        seed=seed,
        crash_every=crash_every,
        history=recorder.history,
        serializability=analyze(recorder.history),
        violations=violations,
        barrier_counts=barrier_counts,
        reads_checked=mirror.reads_checked,
        report_summary=report.summary(),
        shards=shards,
    )


def extended_matrix_cells() -> List[Tuple[str, int]]:
    """The extended conformance matrix: ``(preset, shards)`` cells.

    The paper's eight single-engine cells, the four RAID-6 cells, and a
    sharded slice — representative presets at K=2 plus one K=4 cell —
    exercising routing, group commit, and per-shard recovery.
    """
    cells: List[Tuple[str, int]] = [(name, 1)
                                    for name in extended_preset_names()]
    cells += [("page-force-rda", 2), ("page-noforce-log", 2),
              ("record-noforce-rda", 2), ("record-noforce-rda-redo", 2),
              ("page-force-rda", 4)]
    return cells


def conformance_matrix(transactions: int = 40, seed: int = 0,
                       crash_every: Optional[int] = None,
                       presets: Optional[List[str]] = None,
                       spec: Optional[WorkloadSpec] = None,
                       extended: bool = False,
                       shards: int = 1,
                       workers: Optional[bool] = None) -> List[ConformanceRun]:
    """Run :func:`run_conformance` over every preset (all four recovery
    classes x RDA on/off x page/record locking).

    With ``extended=True`` the sweep covers
    :func:`extended_matrix_cells` instead: RAID-6 presets and sharded
    cells (group-commit flush horizon 4) on top of the paper's eight.
    Otherwise ``shards`` applies to every cell (K-way
    :class:`~repro.db.sharded.ShardedDatabase` engines when > 1).
    """
    if extended:
        cells = extended_matrix_cells()
    else:
        names = all_preset_names() if presets is None else presets
        cells = [(name, shards) for name in names]
    return [run_conformance(name, transactions=transactions, seed=seed,
                            crash_every=crash_every, spec=spec,
                            shards=shards,
                            flush_horizon=4 if shards > 1 else 1,
                            workers=workers)
            for name, shards in cells]
