"""Nemesis: seeded, weighted fault scheduling with active-fault tracking.

The fault-injection harness of PR 3 is exhaustive but *offline*: one
scripted workload, every crash point enumerated, judged at quiescence.
A production system instead sees faults arrive on a schedule while a
mixed workload runs — and when something goes wrong, the first question
is *which faults were in flight*.  This module provides the scheduling
half of that picture:

* :class:`NemesisProfile` — a named, weighted menu of fault kinds.
* :class:`Nemesis` — a seeded scheduler drawing fault actions from a
  profile.  Draws are **weighted without replacement within a coverage
  cycle**: every eligible kind fires once before any kind fires twice,
  so even a short run exercises the full menu, while the weights shape
  the order and the long-run mix.  The executed schedule is recorded
  (kind, parameters, outcome) and is byte-identical for a given
  ``(seed, profile)`` pair.
* :class:`ActiveFaultRegistry` — every injected fault is *open* from
  injection until its repair is judged; any violation observed while
  faults are open is attributed to the set of open faults
  (``active_labels``).  This is what makes a continuous-chaos verdict
  actionable: "state divergence while ``media#4`` was active" instead
  of "something broke during the soak".

The registry/scheduler know nothing about databases; the executors
live in :mod:`repro.stress.runner`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ModelError

FAULT_KINDS = ("crash", "media", "latent", "torn_log", "trim",
               "shard_kill", "mutant", "worker_kill")
"""Every fault kind an executor exists for.

``crash``
    Lose main memory (whole engine, or the sharded facade after the
    group-commit drain) and run restart recovery.
``media``
    Fail-stop one disk, then rebuild it from the surviving redundancy
    (``on_lost_undo="adopt"``).
``latent``
    Corrupt one data sector in place (undetected media error), then run
    a patrol scrub that must find and repair it.
``torn_log``
    Crash, then mangle one byte of one duplex copy of a WAL within the
    durable region — restart must heal the log from its mate.
``trim``
    Take an ACC checkpoint (where the discipline supports one) and trim
    the log to its safe point — the paper's log-maintenance path.
``shard_kill``
    K ≥ 2 only: crash and restart a strict subset of shard engines
    while the rest of the facade stays up; globally committed
    transactions must survive on the restarted shards.
``mutant``
    Apply an invariant rule's ``mutate(db)`` corruption (the PR-4
    sensitivity hooks) and leave it active across the next batch — the
    judges are *expected* to fire, and the violation must be attributed
    to this fault.  Weight 0 in every production profile; the
    ``mutation`` profile and the attribution tests enable it.
``worker_kill``
    Worker-process mode only: SIGKILL one shard's worker process (one
    of shards 0 … K − 2: the last runs in the facade's process) with
    no warning (possibly mid-commit-window or mid-flush), then drive
    the facade crash contract — the supervisor heals the worker by
    journal replay, the group-commit drain makes every acknowledged
    commit durable, and restart recovery must cross-check clean.
"""


@dataclass(frozen=True)
class NemesisProfile:
    """A named fault mix.

    Args:
        name: profile label (appears in reports and schedules).
        weights: fault kind -> relative weight; kinds absent or with
            weight 0 are never drawn.  Iteration order matters for
            determinism, so pass a plain dict built in a fixed order.
        injections_per_tick: fault actions attempted per nemesis tick
            (one tick runs between two transaction batches).
        max_shard_kills: upper bound on shards killed by one
            ``shard_kill`` action (always further capped at K-1).
        mutant_rules: rule names eligible for the ``mutant`` kind
            (resolved by the runner against ``repro.check``).
    """

    name: str
    weights: Mapping[str, float]
    injections_per_tick: int = 1
    max_shard_kills: int = 1
    mutant_rules: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        unknown = [kind for kind in self.weights if kind not in FAULT_KINDS]
        if unknown:
            raise ModelError(f"unknown fault kinds {unknown}; "
                             f"choose from {FAULT_KINDS}")
        if self.injections_per_tick < 1:
            raise ModelError("injections_per_tick must be >= 1")
        if not any(weight > 0 for weight in self.weights.values()):
            raise ModelError(f"profile {self.name!r} enables no fault kind")

    def enabled_kinds(self) -> List[str]:
        """Kinds with positive weight, in declaration order."""
        return [kind for kind, weight in self.weights.items() if weight > 0]


PROFILES: Dict[str, NemesisProfile] = {
    "default": NemesisProfile(
        name="default",
        weights={"crash": 3.0, "media": 2.0, "latent": 2.0,
                 "torn_log": 2.0, "trim": 1.0, "shard_kill": 2.0,
                 "worker_kill": 2.0}),
    "aggressive": NemesisProfile(
        name="aggressive",
        weights={"crash": 3.0, "media": 3.0, "latent": 3.0,
                 "torn_log": 3.0, "trim": 1.0, "shard_kill": 3.0,
                 "worker_kill": 3.0},
        injections_per_tick=2),
    "media-heavy": NemesisProfile(
        name="media-heavy",
        weights={"media": 4.0, "latent": 4.0, "crash": 1.0,
                 "torn_log": 1.0, "trim": 1.0, "shard_kill": 1.0}),
    "crash-only": NemesisProfile(
        name="crash-only",
        weights={"crash": 3.0, "trim": 1.0}),
    "mutation": NemesisProfile(
        name="mutation",
        weights={"mutant": 1.0},
        mutant_rules=("wal-before-data",)),
}
"""The built-in nemesis profiles (``repro stress --nemesis-profile``)."""


def resolve_profile(profile) -> NemesisProfile:
    """Accept a profile name or an already-built profile."""
    if isinstance(profile, NemesisProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ModelError(f"unknown nemesis profile {profile!r}; "
                         f"choose from {sorted(PROFILES)}") from None


# ---------------------------------------------------------------- the registry


@dataclass
class ActiveFault:
    """One injected fault's lifecycle record."""

    fault_id: int
    kind: str
    detail: str
    opened_tick: int
    closed_tick: Optional[int] = None
    survived: Optional[bool] = None

    @property
    def label(self) -> str:
        """Stable attribution label, e.g. ``media#4``."""
        return f"{self.kind}#{self.fault_id}"

    @property
    def open(self) -> bool:
        return self.closed_tick is None

    def to_dict(self) -> dict:
        return {"id": self.fault_id, "kind": self.kind, "detail": self.detail,
                "opened_tick": self.opened_tick,
                "closed_tick": self.closed_tick, "survived": self.survived}


class ActiveFaultRegistry:
    """Tracks every injected fault from injection to judged repair.

    A fault is *open* between :meth:`open` and :meth:`close`; while any
    fault is open, every violation the judges find carries the open
    set's labels.  ``survived`` means the fault was injected, repaired,
    and judged without a single attributed violation.
    """

    def __init__(self) -> None:
        self.faults: List[ActiveFault] = []
        self._open: List[ActiveFault] = []

    def open(self, kind: str, detail: str, tick: int) -> ActiveFault:
        fault = ActiveFault(fault_id=len(self.faults), kind=kind,
                            detail=detail, opened_tick=tick)
        self.faults.append(fault)
        self._open.append(fault)
        return fault

    def close(self, fault: ActiveFault, tick: int, survived: bool) -> None:
        if fault.closed_tick is not None:
            raise ModelError(f"fault {fault.label} already closed")
        fault.closed_tick = tick
        fault.survived = survived
        self._open.remove(fault)

    def active(self) -> List[ActiveFault]:
        return list(self._open)

    def active_labels(self) -> List[str]:
        """Sorted labels of the currently open faults."""
        return sorted(fault.label for fault in self._open)

    def injected_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for fault in self.faults:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return counts

    def survived_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for fault in self.faults:
            if fault.survived:
                counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return counts

    @property
    def injected(self) -> int:
        return len(self.faults)

    @property
    def survived(self) -> int:
        return sum(1 for fault in self.faults if fault.survived)

    def to_dicts(self) -> List[dict]:
        return [fault.to_dict() for fault in self.faults]


# ---------------------------------------------------------------- the scheduler


class Nemesis:
    """Seeded fault scheduler over a :class:`NemesisProfile`.

    One shared :class:`random.Random` drives both the kind draws and
    every executor's parameter draws (victim disks, log offsets, shard
    subsets), so the full executed schedule — not just the kind
    sequence — replays byte-identically for a given seed.
    """

    def __init__(self, profile, seed: int = 0) -> None:
        self.profile = resolve_profile(profile)
        self.seed = seed
        self.rng = random.Random(("nemesis", seed, self.profile.name).__repr__())
        self.schedule: List[dict] = []
        self._cycle: List[str] = []

    def draw(self, eligible) -> Optional[str]:
        """Draw the next fault kind among ``eligible`` kinds.

        Weighted draw without replacement within a coverage cycle: the
        cycle starts as every enabled kind; each draw removes the drawn
        kind; when no cycle member is currently eligible the cycle
        refills.  Kinds that stay ineligible (e.g. ``shard_kill`` at
        K=1) simply never leave the cycle and never block it.  Returns
        None when the profile enables no eligible kind at all.
        """
        eligible = set(eligible)
        pool = [kind for kind in self._cycle if kind in eligible]
        if not pool:
            self._cycle = self.profile.enabled_kinds()
            pool = [kind for kind in self._cycle if kind in eligible]
            if not pool:
                return None
        weights = [self.profile.weights[kind] for kind in pool]
        kind = self.rng.choices(pool, weights=weights, k=1)[0]
        self._cycle.remove(kind)
        return kind

    def record(self, tick: int, kind: str, params: dict,
               outcome: str) -> dict:
        """Append one executed action to the schedule and return it."""
        action = {"index": len(self.schedule), "tick": tick, "kind": kind,
                  "params": dict(params), "outcome": outcome}
        self.schedule.append(action)
        return action
