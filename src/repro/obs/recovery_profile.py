"""Phase-level recovery profiling: MTTR and availability accounting.

The paper's argument is that RDA buys *availability* — recovery after a
crash is faster because parity substitutes for undo logging.  This
module measures exactly that quantity.  A :class:`RecoveryProfile` is a
tracer observer (:meth:`~repro.obs.tracer.Tracer.add_observer`) that
watches the restart phase spans the recovery paths already emit —
``recovery.phase`` with ``phase ∈ {analysis, media_scan, parity_resync,
parity_undo, redo, undo, restore}``, ``recovery.restart``,
``recovery.media`` — and folds them into per-crash-cycle *and*
run-aggregate breakdowns: wall time, page vs log transfers, and work
counts (pages repaired, records applied) per phase, per shard when the
events carry a ``shard`` label.

Two usage modes, freely combined:

* **observer-only** — attach to a tracer and drive the database
  directly; ``db.crash`` opens a cycle, the unlabeled
  ``recovery.restart`` span-end closes it (shard restarts are labeled
  and never close a cycle — the sharded facade's own restart span
  does).
* **explicit marks** — a driver (the :class:`~repro.sim.simulator.
  Simulator`) brackets each crash/restart with :meth:`begin_cycle` /
  :meth:`end_cycle`, which measures crash-to-ready MTTR with a real
  clock and merges the recovery statistics dict.

``finalize(run_wall_ms)`` closes the books; :meth:`to_dict` renders the
``recovery_profile`` schema stored in ``SimulationReport.
extra["recovery_profile"]`` (documented in docs/observability.md).
"""

from __future__ import annotations

from time import perf_counter

RESTART_PHASE_ORDER = ("analysis", "media_scan", "parity_resync",
                       "parity_undo", "redo", "undo", "restore",
                       "media_rebuild")
"""Canonical phase ordering for display (execution order at restart)."""

_WORK_ATTRS = ("winners", "losers", "applied", "skipped", "sectors", "pages",
               "unchanged", "groups")
"""Span attributes that count *work* (not transfers); accumulated into
each phase's ``work`` sub-dict."""


def _new_phase() -> dict:
    return {"count": 0, "wall_ms": 0.0, "reads": 0, "writes": 0,
            "transfers": 0, "page_transfers": 0, "log_transfers": 0,
            "work": {}}


def _merge_phase(slot: dict, attrs: dict) -> None:
    slot["count"] += 1
    slot["wall_ms"] += attrs.get("dur_ms") or 0.0
    reads = attrs.get("reads", 0)
    writes = attrs.get("writes", 0)
    transfers = attrs.get("transfers", reads + writes)
    log = attrs.get("log_transfers", 0)
    slot["reads"] += reads
    slot["writes"] += writes
    slot["transfers"] += transfers
    slot["log_transfers"] += log
    slot["page_transfers"] += transfers - log
    for key in _WORK_ATTRS:
        if key in attrs:
            slot["work"][key] = slot["work"].get(key, 0) + attrs[key]


def _merge_phases(target: dict, source: dict) -> None:
    for phase, data in source.items():
        slot = target.setdefault(phase, _new_phase())
        for key in ("count", "wall_ms", "reads", "writes", "transfers",
                    "page_transfers", "log_transfers"):
            slot[key] += data[key]
        for key, value in data["work"].items():
            slot["work"][key] = slot["work"].get(key, 0) + value


def _round_phases(phases: dict) -> dict:
    ordered = sorted(
        phases,
        key=lambda p: (RESTART_PHASE_ORDER.index(p)
                       if p in RESTART_PHASE_ORDER else len(RESTART_PHASE_ORDER),
                       p))
    out = {}
    for phase in ordered:
        data = dict(phases[phase])
        data["wall_ms"] = round(data["wall_ms"], 3)
        out[phase] = data
    return out


class _Cycle:
    """One crash → ready interval under accumulation."""

    __slots__ = ("index", "t0", "ts0", "mttr_ms", "restart_ms", "phases",
                 "shards", "stats", "explicit")

    def __init__(self, index: int, t0=None, ts0=None,
                 explicit: bool = False) -> None:
        self.index = index
        self.t0 = t0                  # wall clock at begin_cycle
        self.ts0 = ts0                # trace timestamp of db.crash (s)
        self.mttr_ms = None
        self.restart_ms = 0.0         # summed recovery.restart durations
        self.phases: dict = {}
        self.shards: dict = {}
        self.stats: dict = {}
        self.explicit = explicit

    def to_dict(self) -> dict:
        out = {
            "mttr_ms": (round(self.mttr_ms, 3)
                        if self.mttr_ms is not None else None),
            "restart_ms": round(self.restart_ms, 3),
            "phases": _round_phases(self.phases),
        }
        if self.shards:
            out["shards"] = {str(shard): _round_phases(phases)
                             for shard, phases in sorted(self.shards.items())}
        if self.stats:
            out["stats"] = dict(self.stats)
        return out


class RecoveryProfile:
    """Accumulates per-phase recovery costs, MTTR and availability
    across a run's crash/restart cycles.

    Args:
        recovery_class: label for the configuration under test
            (``db.config.algorithm_name``); carried into the output so
            profiles from different classes stay distinguishable.
        clock: injectable time source for the explicit-marks mode.
    """

    def __init__(self, recovery_class: str = "", clock=perf_counter) -> None:
        self.recovery_class = recovery_class
        self._clock = clock
        self.cycles: list = []
        self._open: _Cycle | None = None
        self._run_wall_ms = 0.0

    # -- explicit cycle marks (driver-side) ----------------------------------

    def begin_cycle(self) -> None:
        """Mark the crash: MTTR counts from here to :meth:`end_cycle`."""
        self._open = _Cycle(len(self.cycles), t0=self._clock(),
                            explicit=True)

    def end_cycle(self, stats: dict | None = None) -> None:
        """Mark ready-for-traffic; ``stats`` is the ``db.recover()``
        return value (its scalar fields join the cycle record)."""
        cycle = self._open if self._open is not None else \
            _Cycle(len(self.cycles), explicit=True)
        if cycle.t0 is not None:
            cycle.mttr_ms = (self._clock() - cycle.t0) * 1e3
        if stats:
            # lazy: repro.db imports this package's tracer on its way up
            from ..db.recovery import RESTART_COUNTERS
            for key in RESTART_COUNTERS:
                if key in stats:
                    cycle.stats[key] = stats[key]
            for side in ("winners", "losers"):
                if side in stats:
                    cycle.stats[side] = len(stats[side])
        self.cycles.append(cycle)
        self._open = None

    # -- observer entry point ------------------------------------------------

    def observe(self, event: dict) -> None:
        """Tracer-observer hook: consume one emitted event."""
        name = event.get("name")
        if name == "db.crash":
            attrs = event.get("attrs") or {}
            if self._open is None and "shard" not in attrs:
                self._open = _Cycle(len(self.cycles), ts0=event.get("ts"))
            return
        if name == "recovery.phase":
            self._merge_event(event, phase=None)
            return
        if name == "recovery.media":
            self._merge_event(event, phase="media_rebuild")
            return
        if name == "recovery.restart":
            attrs = event.get("attrs") or {}
            cycle = self._ensure_cycle(event)
            cycle.restart_ms += attrs.get("dur_ms") or 0.0
            if "error" in attrs:
                # a restart that died (a crash during recovery): not the
                # ready point — the cycle stays open for the next one
                return
            if "shard" not in attrs and not cycle.explicit:
                # observer-only mode: the unlabeled (engine- or
                # facade-level) restart end is the ready point
                if cycle.ts0 is not None and event.get("ts") is not None:
                    cycle.mttr_ms = (event["ts"] - cycle.ts0) * 1e3
                else:
                    cycle.mttr_ms = attrs.get("dur_ms")
                self.cycles.append(cycle)
                self._open = None

    def _ensure_cycle(self, event: dict) -> _Cycle:
        if self._open is None:
            self._open = _Cycle(len(self.cycles), ts0=event.get("ts"))
        return self._open

    def _merge_event(self, event: dict, phase) -> None:
        attrs = event.get("attrs") or {}
        if phase is None:
            phase = attrs.get("phase")
            if phase is None:
                return
        cycle = self._ensure_cycle(event)
        _merge_phase(cycle.phases.setdefault(phase, _new_phase()), attrs)
        shard = attrs.get("shard")
        if shard is not None:
            _merge_phase(
                cycle.shards.setdefault(shard, {}).setdefault(phase,
                                                              _new_phase()),
                attrs)

    def attach(self, tracer) -> "RecoveryProfile":
        """Convenience: ``tracer.add_observer(self.observe)``; returns
        self for chaining."""
        tracer.add_observer(self.observe)
        return self

    # -- wrap-up -------------------------------------------------------------

    def note_run_wall_ms(self, wall_ms: float) -> None:
        """Add driver wall time to the availability denominator."""
        self._run_wall_ms += wall_ms

    def finalize(self, run_wall_ms: float | None = None) -> None:
        """Close any dangling cycle and (optionally) record run wall
        time for the availability ratio."""
        if self._open is not None:
            self.cycles.append(self._open)
            self._open = None
        if run_wall_ms is not None:
            self.note_run_wall_ms(run_wall_ms)

    @property
    def crashes(self) -> int:
        """Completed crash/restart cycles profiled so far."""
        return len(self.cycles)

    def to_dict(self) -> dict:
        """The ``recovery_profile`` document (see docs/observability.md)."""
        phases: dict = {}
        shards: dict = {}
        for cycle in self.cycles:
            _merge_phases(phases, cycle.phases)
            for shard, per_shard in cycle.shards.items():
                _merge_phases(shards.setdefault(shard, {}), per_shard)
        mttrs = [c.mttr_ms for c in self.cycles if c.mttr_ms is not None]
        recovery_ms = sum(mttrs)
        availability = None
        if self._run_wall_ms > 0:
            availability = max(0.0, 1.0 - recovery_ms / self._run_wall_ms)
        out = {
            "recovery_class": self.recovery_class,
            "crashes": len(self.cycles),
            "mttr_ms": {
                "mean": round(recovery_ms / len(mttrs), 3) if mttrs else None,
                "max": round(max(mttrs), 3) if mttrs else None,
                "total": round(recovery_ms, 3),
                "per_cycle": [round(m, 3) for m in mttrs],
            },
            "availability": (round(availability, 6)
                             if availability is not None else None),
            "run_wall_ms": round(self._run_wall_ms, 3),
            "recovery_ms": round(recovery_ms, 3),
            "phases": _round_phases(phases),
            "cycles": [cycle.to_dict() for cycle in self.cycles],
        }
        if shards:
            out["shards"] = {str(shard): _round_phases(per_shard)
                             for shard, per_shard in sorted(shards.items())}
        return out


def format_recovery_profile(profile: dict) -> str:
    """Render a :meth:`RecoveryProfile.to_dict` document as the
    human-readable breakdown ``repro simulate`` prints."""
    mttr = profile.get("mttr_ms", {})
    availability = profile.get("availability")
    head = (f"{profile.get('crashes', 0)} crash/restart cycles, "
            f"MTTR mean {mttr.get('mean')} ms / max {mttr.get('max')} ms")
    if availability is not None:
        head += f", availability {availability:.4%}"
    lines = [head]
    phases = profile.get("phases", {})
    if phases:
        lines.append(f"  {'phase':<14} {'count':>5} {'wall ms':>9} "
                     f"{'xfers':>7} {'log':>5}  work")
        for phase, data in phases.items():
            work = ",".join(f"{k}={v}" for k, v in sorted(
                data.get("work", {}).items()))
            lines.append(
                f"  {phase:<14} {data['count']:>5} {data['wall_ms']:>9.3f} "
                f"{data['transfers']:>7} {data['log_transfers']:>5}  {work}")
    return "\n".join(lines)
