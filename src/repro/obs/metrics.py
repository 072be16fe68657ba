"""Metrics: counters, gauges and histograms with labeled children.

A :class:`MetricsRegistry` is the numeric half of the observability
layer: where the tracer records *what happened*, the registry records
*how often and how much*.  All instruments are plain-Python and cheap —
a counter increment is one dict-free integer add — so they stay enabled
even when tracing is off.

A series that mirrors a number a layer keeps anyway is not pushed at
all: the layer registers a *source* once and the registry reads it when
the series is exported (docs/observability.md, "What observation
costs", lists which series are which)::

    registry.counter("buffer.hits").add_source(lambda: pool.stats.hits)

Labeled children follow the Prometheus idiom; a hot path resolves its
child once and keeps it::

    wal = registry.counter("wal.records")
    wal.labels(type="CommitRecord").inc()

``snapshot()`` renders everything as a JSON-friendly dict, with child
series keyed ``name{k=v,...}`` (label keys sorted).
"""

from __future__ import annotations

import re
from bisect import bisect_left


def _series_key(name: str, labels: dict) -> str:
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text-format spec:
    backslash, double-quote and line feed become ``\\\\``, ``\\"`` and
    ``\\n`` (in that order, so already-escaped backslashes survive)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """A registry name as a valid Prometheus metric name (dots and any
    other invalid characters become underscores)."""
    sanitized = _NAME_SANITIZE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _label_block(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{escape_label_value(labels[key])}"'
                     for key in sorted(labels))
    return f"{{{inner}}}"


class _Scalar:
    """What :class:`Counter` and :class:`Gauge` share: one number per
    label combination, part *pushed* by callers (``inc``/``set``), part
    *read* from sources when the series is exported.

    A source is a zero-argument callable returning a number a layer
    keeps anyway (``lambda: pool.stats.hits``): the layer counts once,
    in its own attribute, and pays nothing per operation for being
    observed.  Sources add — two engines publishing into one registry
    sum, like two engines pushing into it would.
    """

    __slots__ = ("name", "_pushed", "labels_dict", "_children", "_sources")

    def __init__(self, name: str, labels_dict=None) -> None:
        self.name = name
        self._pushed = 0
        self.labels_dict = labels_dict
        self._children: dict = {}
        self._sources: list = []

    def add_source(self, read) -> None:
        """Add ``read() -> number`` to the series' value, evaluated at
        every :attr:`value` read (``snapshot()``, ``to_prometheus()``)."""
        self._sources.append(read)

    @property
    def value(self):
        """Pushed amount plus every source's current reading."""
        if not self._sources:
            return self._pushed
        return self._pushed + sum(read() for read in self._sources)

    def labels(self, **labels):
        """The child series for one label combination (created lazily)."""
        key = _series_key(self.name, labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = type(self)(
                key, labels_dict=dict(labels))
        return child

    def collect(self, out: dict) -> None:
        out[self.name] = self.value
        for child in self._children.values():
            child.collect(out)


class Counter(_Scalar):
    """Monotonically increasing count (events, transfers, records)."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._pushed += amount


class Gauge(_Scalar):
    """A value that goes up and down (dirty groups, live transactions)."""

    __slots__ = ()

    def set(self, value) -> None:
        self._pushed = value

    def inc(self, amount=1) -> None:
        self._pushed += amount

    def dec(self, amount=1) -> None:
        self._pushed -= amount


DEFAULT_BUCKETS = (1, 2, 3, 4, 5, 6, 8, 12, 16, 32, 64, 128)
"""Histogram bucket upper bounds, tuned for per-operation transfer
counts (the interesting values are small integers: 3, 4, 5...)."""


class Histogram:
    """Distribution of an observed value (per-operation transfers,
    span durations)."""

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total",
                 "min", "max", "labels_dict", "_children")

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS,
                 labels_dict=None) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # last = +inf
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.labels_dict = labels_dict
        self._children: dict = {}

    def observe(self, value) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # first bound >= value; past the last one is the +inf slot
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def labels(self, **labels) -> "Histogram":
        key = _series_key(self.name, labels)
        child = self._children.get(key)
        if child is None:
            child = Histogram(key, self.buckets, labels_dict=dict(labels))
            self._children[key] = child
        return child

    def collect(self, out: dict) -> None:
        doc = {
            "count": self.count,
            "sum": self.total,
            "mean": round(self.mean, 4),
            "min": self.min,
            "max": self.max,
            "buckets": {
                **{f"le_{bound}": count
                   for bound, count in zip(self.buckets, self.bucket_counts)},
                "le_inf": self.bucket_counts[-1],
            },
        }
        out[self.name] = doc
        for child in self._children.values():
            child.collect(out)


class MetricsRegistry:
    """Names a family of instruments; the single export point.

    The same name always returns the same instrument (get-or-create),
    so call sites need no coordination — ``registry.counter("x")`` in
    two modules shares one counter.
    """

    def __init__(self) -> None:
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = Gauge(name)
            self._gauges[name] = instrument
        return instrument

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        """Get or create the histogram ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = Histogram(name, buckets)
            self._histograms[name] = instrument
        return instrument

    def snapshot(self) -> dict:
        """Everything, as a JSON-friendly dict::

            {"counters": {name: value, ...},
             "gauges": {name: value, ...},
             "histograms": {name: {count, sum, mean, min, max, buckets}}}
        """
        counters: dict = {}
        for instrument in self._counters.values():
            instrument.collect(counters)
        gauges: dict = {}
        for instrument in self._gauges.values():
            instrument.collect(gauges)
        histograms: dict = {}
        for instrument in self._histograms.values():
            instrument.collect(histograms)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def to_prometheus(self) -> str:
        """Render everything in the Prometheus text exposition format.

        Metric names are sanitized (``wal.records`` →
        ``wal_records``); label values are escaped per the spec
        (:func:`escape_label_value`), so values containing backslashes,
        quotes or newlines round-trip through a text-format parser.
        Histograms expose cumulative ``_bucket`` series plus ``_sum``
        and ``_count``.
        """
        lines: list = []

        def walk(instrument, inherited: dict):
            labels = dict(inherited)
            if instrument.labels_dict:
                labels.update(instrument.labels_dict)
            yield instrument, labels
            for child in instrument._children.values():
                yield from walk(child, labels)

        for kind, instruments in (("counter", self._counters),
                                  ("gauge", self._gauges)):
            for root in instruments.values():
                name = prometheus_name(root.name)
                lines.append(f"# TYPE {name} {kind}")
                for instrument, labels in walk(root, {}):
                    lines.append(
                        f"{name}{_label_block(labels)} {instrument.value}")
        for root in self._histograms.values():
            name = prometheus_name(root.name)
            lines.append(f"# TYPE {name} histogram")
            for instrument, labels in walk(root, {}):
                cumulative = 0
                for bound, count in zip(instrument.buckets,
                                        instrument.bucket_counts):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_block({**labels, 'le': bound})} "
                        f"{cumulative}")
                lines.append(
                    f"{name}_bucket{_label_block({**labels, 'le': '+Inf'})} "
                    f"{instrument.count}")
                lines.append(
                    f"{name}_sum{_label_block(labels)} {instrument.total}")
                lines.append(
                    f"{name}_count{_label_block(labels)} {instrument.count}")
        return "\n".join(lines) + "\n" if lines else ""
