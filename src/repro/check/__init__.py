"""Conformance checking: histories, serializability, invariants, diffing.

The paper's correctness argument rests on properties that end-state
comparisons cannot observe: the committed twin XOR-encodes the
before-image of at most one unlogged page per parity group (Section
4.2), twin flips are pure timestamp ordering (Section 4.1), steals
respect WAL-before-data, and strict two-phase locking yields strict
(hence serializable) histories.  This package states those properties
as executable oracles:

``history``
    Typed, JSON-serializable operation histories plus a recorder the
    :class:`~repro.db.database.Database` drives, and a reconstructor
    that rebuilds an equal history from ``history.*`` tracer events.
``serializability``
    Conflict-graph serializability plus recoverable / ACA / strict
    classification of a recorded history.
``invariants``
    Online invariant engine with pluggable rules evaluated at
    commit/steal/checkpoint/restart barriers, and a deliberate
    mutant per rule proving the rule fires.
``differential``
    Replays the same seeded workload against a dict-based reference
    database and diffs read results and final committed states across
    all recovery classes.
"""

from .differential import (ConformanceRun, DifferentialMirror,
                           ReferenceDatabase, conformance_matrix,
                           run_conformance)
from .history import History, HistoryEvent, HistoryRecorder, history_from_trace
from .invariants import (DirtySetBoundRule, InvariantEngine,
                         LsnMonotonicityRule, MutantError, TwinPageLsnRule,
                         TwinParityIdentityRule, WalBeforeDataRule,
                         WriteBehindRule, check_restart, default_rules)
from .serializability import SerializabilityReport, analyze

__all__ = [
    "ConformanceRun",
    "DifferentialMirror",
    "DirtySetBoundRule",
    "History",
    "HistoryEvent",
    "HistoryRecorder",
    "InvariantEngine",
    "LsnMonotonicityRule",
    "MutantError",
    "ReferenceDatabase",
    "SerializabilityReport",
    "TwinPageLsnRule",
    "TwinParityIdentityRule",
    "WalBeforeDataRule",
    "WriteBehindRule",
    "analyze",
    "check_restart",
    "conformance_matrix",
    "default_rules",
    "history_from_trace",
    "run_conformance",
]
