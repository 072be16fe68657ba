"""Live model-drift detection: measured transfer costs vs the paper.

The analytical model prices every operation class in page transfers
(:mod:`repro.model.operations`): an unbuffered small write costs 4, a
buffered one 3, an RDA commit 0, an undo-via-parity 5–6.  The simulator
is supposed to *realize* those prices — when it stops doing so (a
regression in the write path, a mispriced batch expansion, a policy
change that silently adds I/O) every downstream number the repo reports
is wrong.

:class:`DriftDetector` watches the live event stream (tracer observer)
or replays a recorded trace, accumulates the measured mean transfers
per model-priced operation variant, and raises a structured
:class:`DriftAlarm` when a mean leaves its predicted band by more than
``tolerance``.  Operation classes whose price depends on array width N
(degraded reads, reconstruct-writes) have no constant band and are
never checked; a group write's price depends on the event (k pages, b of
them buffered) and is checked against the mean of those prices.

Detected state is exported two ways: per-variant ``model.drift`` gauges
in a :class:`~repro.obs.metrics.MetricsRegistry` (measured − predicted,
in transfers) and, when a tracer is supplied, a ``model.drift_alarm``
trace event per offending variant (emitted once — alarms are
deduplicated so a 10⁶-op run cannot flood the trace).
"""

from __future__ import annotations

from typing import NamedTuple

from ..model.operations import group_write_transfers, predicted_band
from .inspect import event_key


class DriftAlarm(NamedTuple):
    """One operation variant outside its predicted transfer band."""

    key: str            # operation variant, e.g. array.small_write[...]
    measured: float     # observed mean transfers per operation
    lo: float           # model band lower bound
    hi: float           # model band upper bound
    count: int          # observations behind the mean
    drift: float        # signed distance outside the band (transfers)

    def describe(self) -> str:
        band = f"{self.lo:g}" if self.lo == self.hi else \
            f"{self.lo:g}..{self.hi:g}"
        return (f"{self.key}: mean {self.measured:.3f} transfers over "
                f"{self.count} ops, model predicts {band} "
                f"(drift {self.drift:+.3f})")


class _Series:
    __slots__ = ("count", "transfers", "band", "priced")

    def __init__(self, band: tuple) -> None:
        self.count = 0
        self.transfers = 0
        self.band = band        # the model's (lo, hi) for the mean
        self.priced = 0         # summed per-event prices, where they vary

    def add(self, count: int, transfers) -> None:
        self.count += count
        self.transfers += transfers

    @property
    def mean(self) -> float:
        return self.transfers / self.count if self.count else 0.0


class DriftDetector:
    """Compares measured per-operation transfer costs to the model.

    Args:
        tolerance: allowed relative excursion outside the band — the
            band ``[lo, hi]`` is widened to ``[lo - slack, hi + slack]``
            with ``slack = tolerance * max(hi, 1)``.  Zero-priced
            operations (``rda.commit``) therefore still tolerate only
            ``tolerance`` transfers of noise.
        min_count: observations required before a variant is judged
            (single-op means are noisy and the model prices steady
            state).
        metrics: optional registry; per-variant drift gauges and an
            alarm counter are kept there.
        tracer: optional tracer; each alarm emits one
            ``model.drift_alarm`` event.
    """

    def __init__(self, tolerance: float = 0.05, min_count: int = 4,
                 metrics=None, tracer=None) -> None:
        self.tolerance = tolerance
        self.min_count = min_count
        self.metrics = metrics
        self.tracer = tracer
        self.alarms: list = []
        self._series: dict = {}
        self._alarmed: set = set()

    # -- measurement intake --------------------------------------------------

    def observe(self, event: dict) -> None:
        """Tracer-observer hook: fold one event into the per-variant
        series (expanding coalesced batch events exactly the way
        :func:`repro.obs.inspect.aggregate_events` prices them)."""
        name = event.get("name")
        attrs = event.get("attrs") or {}
        if name == "array.small_write_batch":
            buffered = attrs.get("buffered_pages", 0)
            plain = attrs.get("pages", 0) - buffered
            if buffered:
                self._add("array.small_write[buffered=True,twins=1]",
                          buffered, 3 * buffered)
            if plain:
                self._add("array.small_write[buffered=False,twins=1]",
                          plain, 4 * plain)
            return
        if name == "array.group_write":
            self._add(name, 1, attrs["transfers"], price=group_write_transfers(
                attrs["pages"], attrs["buffered_pages"],
                attrs.get("parity_in_hand", 0)))
            return
        if name == "rda.commit":
            flips = attrs.get("groups", 0)
            if flips:
                self._add("rda.twin_flip", flips, 0)
            self._add(event_key(name, attrs), 1, attrs.get("transfers", 0))
            return
        if "transfers" not in attrs:
            return
        self._add(event_key(name, attrs), 1, attrs["transfers"])

    def _add(self, key: str, count: int, transfers, price=None) -> None:
        """``price``: the model's price of this one event, for a
        variant whose price is not a constant (the band is then the
        mean price of the events seen)."""
        series = self._series.get(key)
        if series is None:
            band = predicted_band(key) if price is None else (price, price)
            if band is None:
                return  # unpriced or N-dependent: the model has no number
            series = self._series[key] = _Series(band)
        series.add(count, transfers)
        if price is not None:
            series.priced += price
            series.band = (series.priced / series.count,) * 2
        self._check(key, series)

    # -- judgement -----------------------------------------------------------

    def _check(self, key: str, series: _Series) -> None:
        if series.count < self.min_count:
            return
        lo, hi = series.band
        slack = self.tolerance * max(hi, 1.0)
        mean = series.mean
        if lo - slack <= mean <= hi + slack:
            if self.metrics is not None:
                drift = 0.0 if lo <= mean <= hi else \
                    (mean - hi if mean > hi else mean - lo)
                self.metrics.gauge("model.drift").labels(op=key).set(
                    round(drift, 4))
            return
        drift = mean - hi if mean > hi else mean - lo
        if self.metrics is not None:
            self.metrics.gauge("model.drift").labels(op=key).set(
                round(drift, 4))
        if key in self._alarmed:
            return
        self._alarmed.add(key)
        alarm = DriftAlarm(key=key, measured=round(mean, 4), lo=lo, hi=hi,
                           count=series.count, drift=round(drift, 4))
        self.alarms.append(alarm)
        if self.metrics is not None:
            self.metrics.counter("model.drift_alarms").inc()
        if self.tracer is not None:
            self.tracer.emit("model.drift_alarm", key=alarm.key,
                             measured=alarm.measured, lo=alarm.lo,
                             hi=alarm.hi, n=alarm.count, drift=alarm.drift)

    # -- results -------------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True while no variant has left its band."""
        return not self.alarms

    def attach(self, tracer) -> "DriftDetector":
        """Convenience: ``tracer.add_observer(self.observe)``; returns
        self for chaining."""
        tracer.add_observer(self.observe)
        return self

    def summary(self) -> dict:
        """JSON-friendly verdict: measured means, bands and alarms."""
        return {
            "clean": self.clean,
            "tolerance": self.tolerance,
            "min_count": self.min_count,
            "checked": {
                key: {"count": series.count,
                      "mean_transfers": round(series.mean, 4),
                      "band": list(series.band)}
                for key, series in sorted(self._series.items())
            },
            "alarms": [alarm._asdict() for alarm in self.alarms],
        }


def check_events(events, tolerance: float = 0.05,
                 min_count: int = 4) -> DriftDetector:
    """Replay a recorded trace through a fresh detector (offline
    ``repro drift-check``)."""
    detector = DriftDetector(tolerance=tolerance, min_count=min_count)
    for event in events:
        detector.observe(event)
    return detector
