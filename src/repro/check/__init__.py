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
    :class:`~repro.db.database.Database` drives.
``serializability``
    Conflict-graph serializability plus recoverable / ACA / strict
    classification of a recorded history.
``invariants``
    The rule catalog — the one definition of a consistent database —
    with a deliberate mutant per rule proving the rule fires; the
    online engine evaluates it at commit/steal/checkpoint/restart
    barriers, and :func:`verify_database` is its one-shot judge.
``differential``
    Replays the same seeded workload against a dict-based reference
    database and diffs read results and final committed states across
    all recovery classes.
"""

from .differential import (ConformanceRun, DifferentialMirror,
                           ReferenceDatabase, conformance_matrix,
                           run_conformance)
from .history import History, HistoryEvent, HistoryRecorder
from .invariants import (BufferModifierRule, DirtySetBoundRule,
                         InvariantEngine, LsnMonotonicityRule, MutantError,
                         ParityRule, SlottedPageRule, TwinPageLsnRule,
                         TwinParityIdentityRule, Violation, WalBeforeDataRule,
                         WorkingOwnerRule, WritebackNamedRule,
                         WriteBehindRule, default_rules,
                         verify_database, violations_by_kind)
from .serializability import SerializabilityReport, analyze

__all__ = [
    "BufferModifierRule",
    "ConformanceRun",
    "DifferentialMirror",
    "DirtySetBoundRule",
    "History",
    "HistoryEvent",
    "HistoryRecorder",
    "InvariantEngine",
    "LsnMonotonicityRule",
    "MutantError",
    "ParityRule",
    "ReferenceDatabase",
    "SerializabilityReport",
    "SlottedPageRule",
    "TwinPageLsnRule",
    "TwinParityIdentityRule",
    "Violation",
    "WalBeforeDataRule",
    "WorkingOwnerRule",
    "WritebackNamedRule",
    "WriteBehindRule",
    "analyze",
    "conformance_matrix",
    "default_rules",
    "run_conformance",
    "verify_database",
    "violations_by_kind",
]
