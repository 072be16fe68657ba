"""Typed operation histories and their recorder.

A *history* is the sequence of logical operations the database
performed: begin/read/write/steal/commit/abort/flip plus the
crash/restart/checkpoint markers.  Serializability theory is defined
over exactly this object, so the recorder keeps it faithful: events
are appended in execution order with a global sequence number and are
immutable once recorded.

Histories are JSON-serializable (one flat dict per event).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

#: Operations a history may contain.
OPS = ("begin", "read", "write", "steal", "commit", "abort", "flip",
       "crash", "restart", "checkpoint")

_FIELDS = ("seq", "op", "txn", "page", "slot", "group")


@dataclass(frozen=True)
class HistoryEvent:
    """One logical operation.

    ``txn``/``page``/``slot``/``group`` are ``None`` when the
    operation does not involve them (e.g. ``crash`` has no txn; a
    page-mode ``read`` has no slot).  ``extra`` carries auxiliary
    attributes (e.g. ``logged`` on a steal) as a sorted tuple of
    pairs so events stay hashable and order-insensitive to kwargs.
    """

    seq: int
    op: str
    txn: Optional[int] = None
    page: Optional[int] = None
    slot: Optional[int] = None
    group: Optional[int] = None
    extra: Tuple[Tuple[str, object], ...] = ()

    def to_dict(self) -> dict:
        """Flat JSON-ready dict; ``None`` fields are omitted."""
        out = {"seq": self.seq, "op": self.op}
        for name in ("txn", "page", "slot", "group"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        out.update(self.extra)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "HistoryEvent":
        extra = tuple(sorted((k, v) for k, v in data.items()
                             if k not in _FIELDS))
        return cls(seq=data["seq"], op=data["op"], txn=data.get("txn"),
                   page=data.get("page"), slot=data.get("slot"),
                   group=data.get("group"), extra=extra)

    def get(self, key: str, default=None):
        """Look up an ``extra`` attribute."""
        for name, value in self.extra:
            if name == key:
                return value
        return default


class History:
    """An ordered, immutable-by-convention sequence of events."""

    def __init__(self, events: Iterable[HistoryEvent] = ()):
        self.events = list(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, History) and self.events == other.events

    def __repr__(self) -> str:
        return f"History({len(self.events)} events)"

    # -- queries -------------------------------------------------------------

    def of_op(self, op: str) -> list:
        return [e for e in self.events if e.op == op]

    def committed_txns(self) -> set:
        return {e.txn for e in self.events if e.op == "commit"}

    def aborted_txns(self) -> set:
        return {e.txn for e in self.events if e.op == "abort"}

    def txns(self) -> set:
        return {e.txn for e in self.events if e.txn is not None}

    # -- serialization -------------------------------------------------------

    def to_dicts(self) -> list:
        return [event.to_dict() for event in self.events]

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dicts(), sort_keys=True, **kwargs)

    @classmethod
    def from_dicts(cls, rows: Iterable[dict]) -> "History":
        return cls(HistoryEvent.from_dict(row) for row in rows)

    @classmethod
    def from_json(cls, text: str) -> "History":
        return cls.from_dicts(json.loads(text))


@dataclass
class HistoryRecorder:
    """Appends events in execution order, assigning sequence numbers."""

    history: History = field(default_factory=History)
    _next_seq: int = 0

    def record(self, op: str, txn=None, page=None, slot=None, group=None,
               **extra) -> HistoryEvent:
        if op not in OPS:
            raise ValueError(f"unknown history op {op!r}")
        event = HistoryEvent(seq=self._next_seq, op=op, txn=txn, page=page,
                             slot=slot, group=group,
                             extra=tuple(sorted(extra.items())))
        self._next_seq += 1
        self.history.events.append(event)
        return event

