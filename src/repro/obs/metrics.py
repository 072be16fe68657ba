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

from bisect import bisect_left


def _series_key(name: str, labels: dict) -> str:
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


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

    __slots__ = ("name", "_pushed", "_children", "_sources")

    def __init__(self, name: str) -> None:
        self.name = name
        self._pushed = 0
        self._children: dict = {}
        self._sources: list = []

    def add_source(self, read) -> None:
        """Add ``read() -> number`` to the series' value, evaluated at
        every :attr:`value` read (``snapshot()``)."""
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
            child = self._children[key] = type(self)(key)
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
                 "min", "max", "_children")

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # last = +inf
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
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
            child = Histogram(key, self.buckets)
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
