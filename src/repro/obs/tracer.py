"""The event tracer: typed, timestamped events and spans.

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  Every hot path guards with
   ``if tracer.enabled:`` (one attribute load), and the shared
   :data:`NULL_TRACER` returns a stateless no-op span without
   allocating, so the instrumented small-write path costs one branch
   over the uninstrumented one.
2. **Dependency-free.**  Sinks are plain objects with an
   ``emit(dict)`` method; the JSONL sink uses only :mod:`json`.
3. **Costs ride along.**  A span bound to an
   :class:`~repro.storage.iostats.IOStats` snapshots the counters at
   start and attaches the read/write/transfer delta to its closing
   event — the paper's page-transfer accounting, per operation.

Event wire format (one JSON object per line in a JSONL sink)::

    {"seq": 17, "ts": 0.00213, "name": "array.small_write",
     "attrs": {"page": 3, "buffered": false, "twins": 1,
               "reads": 2, "writes": 2, "transfers": 4}}

Span events additionally carry ``"span"`` (the span's id), ``"parent"``
(the enclosing span's id, if any) and ``attrs.dur_ms``.  Events emitted
*inside* a lexical span carry ``"span"`` pointing at it, so a trace can
be re-nested offline.
"""

from __future__ import annotations

import atexit
import json
import time
import weakref
from collections import deque


def _make_event_encoder():
    """``encode(event, 0) -> chunks of one compact JSON object``, built
    once at import.

    ``JSONEncoder.encode`` constructs a fresh C encoder inside every
    call; a sink serializes tens of thousands of events, so it keeps
    the one the standard library would have built (same separators,
    ``default=str``, ASCII escapes — the bytes are identical) and calls
    it directly.  Events are freshly built dicts of scalars, so the
    circular-reference markers are off.  Without the C accelerator the
    public per-call encoder does the same job.
    """
    encoder = json.JSONEncoder(separators=(",", ":"), default=str)
    make = json.encoder.c_make_encoder
    if make is None:
        return lambda event, _indent_level: (encoder.encode(event),)
    return make(None, encoder.default, json.encoder.encode_basestring_ascii,
                None, encoder.key_separator, encoder.item_separator,
                encoder.sort_keys, encoder.skipkeys, encoder.allow_nan)


_encode_event = _make_event_encoder()

_LIVE_TRACERS: "weakref.WeakSet" = weakref.WeakSet()
"""Every enabled tracer, so an interpreter exit can flush buffered
sinks (see :func:`close_all`, registered with :mod:`atexit`)."""


def close_all() -> None:
    """Close every live tracer's sink (idempotent).

    A :class:`BufferedJsonlSink` holds up to ``flush_every`` events in
    memory; a ``sys.exit`` mid-run (or any exit path that
    skips ``tracer.close()``) would silently drop that tail and leave a
    trace that parses but under-reports.  Registered with
    :mod:`atexit` as a safety net — orderly code should still close its
    tracer (or use it as a context manager) so the file is complete as
    soon as the run ends.
    """
    for tracer in list(_LIVE_TRACERS):
        tracer.close()


atexit.register(close_all)


class NullSink:
    """Discards every event (for overhead measurement: the tracer is
    *enabled* — events are built — but nothing is retained)."""

    def emit(self, event: dict) -> None:
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the last ``capacity`` events in memory (tests, post-mortem
    flight recorder)."""

    def __init__(self, capacity: int = 4096) -> None:
        self._buffer: deque = deque(maxlen=capacity)

    def emit(self, event: dict) -> None:
        self._buffer.append(event)

    def events(self) -> list:
        """The retained events, oldest first."""
        return list(self._buffer)

    def close(self) -> None:
        pass


class BufferedJsonlSink:
    """Appends one compact JSON object per event to a file, a chunk at
    a time.

    :meth:`emit` only keeps the event: it is encoded — and written,
    one ``write`` call per chunk — when ``flush_every`` events are
    pending, at :meth:`flush`, at :meth:`close`, or by the tracer
    module's ``atexit`` hook if the run never closed its tracer.  The
    caller therefore hands the dict over for good: an event mutated
    after ``emit`` is recorded as mutated (``Tracer`` builds a fresh
    dict per event and nothing in the engine keeps one).  An event that
    cannot be encoded raises from the flush that reaches it, not from
    ``emit``, and takes its chunk with it.  What full tracing + metrics
    cost end to end is the ledger's ``force_update_obs`` row read
    against ``force_update`` (``docs/performance.md`` has the cells).
    """

    def __init__(self, path, flush_every: int = 1024) -> None:
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")
        self._pending: list = []
        self._flush_every = flush_every
        self.count = 0

    def emit(self, event: dict) -> None:
        self._pending.append(event)
        self.count += 1
        if len(self._pending) >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        """Encode the pending events and write them to the file."""
        pending = self._pending
        if pending:
            self._pending = []
            encode = _encode_event
            self._handle.write("\n".join(
                ["".join(encode(event, 0)) for event in pending]) + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self.flush()
            self._handle.close()

    def __enter__(self) -> "BufferedJsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Span:
    """One in-flight multi-step operation.

    Created by :meth:`Tracer.span` (lexical, joins the tracer's span
    stack) or :meth:`Tracer.start_span` (detached, for operations whose
    begin and end live in different call frames, e.g. a transaction's
    lifetime).  Emits a single event when finished, carrying duration
    and — when bound to an :class:`~repro.storage.iostats.IOStats` —
    the page transfers performed while it was open.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs",
                 "_t0", "_stats", "_before", "_log_before", "_lexical",
                 "_done")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id, attrs: dict, stats, lexical: bool,
                 log_split: bool = False) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._stats = stats
        # a scalar (reads, writes) pair: the delta needs no per-disk
        # breakdown, so a full IOStats.snapshot() per span is waste
        self._before = (stats.reads, stats.writes) if stats is not None else None
        # log_split additionally captures the log-device share of the
        # delta; it sums per-device counters, so it is opt-in (recovery
        # phases and other rare spans, never the per-operation hot path)
        self._log_before = (stats.log_transfers
                            if log_split and stats is not None else None)
        self._lexical = lexical
        self._done = False
        self._t0 = time.perf_counter()

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span's closing event."""
        self.attrs.update(attrs)
        return self

    def finish(self, **attrs) -> None:
        """Close the span and emit its event (idempotent)."""
        if self._done:
            return
        self._done = True
        if attrs:
            self.attrs.update(attrs)
        self.attrs["dur_ms"] = round(
            (time.perf_counter() - self._t0) * 1e3, 3)
        if self._stats is not None:
            stats = self._stats
            reads = stats.reads - self._before[0]
            writes = stats.writes - self._before[1]
            self.attrs["reads"] = reads
            self.attrs["writes"] = writes
            self.attrs["transfers"] = reads + writes
            if self._log_before is not None:
                self.attrs["log_transfers"] = (stats.log_transfers
                                               - self._log_before)
        tracer = self._tracer
        if self._lexical:
            tracer._pop_span(self)
        tracer._emit_raw(self.name, self.attrs, span_id=self.span_id,
                         parent_id=self.parent_id)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()


class _NullSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()
    name = ""
    span_id = None
    parent_id = None
    attrs: dict = {}

    def set(self, **attrs) -> "_NullSpan":
        return self

    def finish(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Emits typed events to one sink; disabled without a sink.

    Args:
        sink: any object with ``emit(dict)`` / ``close()``; ``None``
            disables the tracer entirely (use the module-level
            :data:`NULL_TRACER` instead of constructing one per
            component).
    """

    def __init__(self, sink=None) -> None:
        self.sink = sink
        self.enabled = sink is not None
        self._seq = 0
        self._t0 = time.perf_counter()
        self._t0_ns = time.perf_counter_ns()
        self._stack: list = []      # lexical span ids, innermost last
        self._next_span_id = 1
        self._observers: list = []
        if self.enabled:
            _LIVE_TRACERS.add(self)

    close_all = staticmethod(close_all)
    """Flush-and-close every live tracer (module-level :func:`close_all`,
    exposed on the class for discoverability)."""

    # -- observers -----------------------------------------------------------

    def add_observer(self, observe) -> None:
        """Attach a live event observer: ``observe(event_dict)`` is
        called after the sink for every emitted event.

        Observers are how online consumers (the recovery profiler, the
        model-drift detector) watch the stream without owning the sink.
        They only see events while the tracer is enabled; to observe
        without recording, construct the tracer over a
        :class:`NullSink`.  Observers must not mutate the event.
        """
        self._observers.append(observe)

    def remove_observer(self, observe) -> None:
        """Detach an observer added with :meth:`add_observer`."""
        self._observers.remove(observe)

    def _notify(self, event: dict) -> None:
        for observe in self._observers:
            observe(event)

    # -- events --------------------------------------------------------------

    def emit(self, name: str, **attrs) -> None:
        """Emit one event (no-op when disabled)."""
        if not self.enabled:
            return
        # _emit_raw inlined for the plain-event fast path (the vast
        # majority of events): one call frame instead of two
        self._seq += 1
        event = {
            "seq": self._seq,
            "ts": (time.perf_counter_ns() - self._t0_ns) // 1000 / 1e6,
            "name": name,
        }
        if self._stack:
            event["span"] = self._stack[-1]
        if attrs:
            event["attrs"] = attrs
        self.sink.emit(event)
        if self._observers:
            self._notify(event)

    def emit_costed(self, name: str, window, **attrs) -> None:
        """Emit one event carrying a transfer-count delta.

        ``window`` is anything with ``reads``/``writes`` attributes —
        typically a :class:`~repro.storage.iostats.TransferCounts`
        from ``IOStats.window()`` or a snapshot difference.
        """
        if not self.enabled:
            return
        attrs["reads"] = window.reads
        attrs["writes"] = window.writes
        attrs["transfers"] = window.reads + window.writes
        self.emit(name, **attrs)

    def _emit_raw(self, name: str, attrs: dict, span_id=None,
                  parent_id=None) -> None:
        if not self.enabled:
            return
        self._seq += 1
        event = {
            "seq": self._seq,
            # integer-µs arithmetic gives the same 6-decimal wire value
            # as round(perf_counter() - t0, 6) without the round() call
            "ts": (time.perf_counter_ns() - self._t0_ns) // 1000 / 1e6,
            "name": name,
        }
        if span_id is not None:
            event["span"] = span_id
        elif self._stack:
            event["span"] = self._stack[-1]
        if parent_id is not None:
            event["parent"] = parent_id
        if attrs:
            event["attrs"] = attrs
        self.sink.emit(event)
        if self._observers:
            self._notify(event)

    def ingest(self, event: dict, span_base: int = 0, **labels) -> None:
        """Re-emit an event recorded by *another* tracer into this
        stream (no-op when disabled).

        This is the worker-merge path: each shard worker process traces
        into a private in-memory sink and ships event batches back over
        the command pipe; the facade ingests them here so one trace
        interleaves every worker deterministically (batches arrive in
        dispatch order).  ``seq`` and ``ts`` are re-stamped against this
        tracer (a worker's clock is not ours); ``span``/``parent`` ids
        are shifted by ``span_base`` so ids from different workers never
        collide; ``labels`` are merged in front of the event's own
        attributes (the facade stamps ``shard=i``, mirroring what
        :class:`LabelledTracer` does for in-process shards).  A foreign
        span-close event with no parent is nested under the current
        lexical span, so worker recovery spans group under the facade's
        ``recovery.restart`` umbrella exactly like in-process shards.
        """
        if not self.enabled:
            return
        self._seq += 1
        event = dict(event)
        event["seq"] = self._seq
        event["ts"] = (time.perf_counter_ns() - self._t0_ns) // 1000 / 1e6
        if span_base:
            if "span" in event:
                event["span"] += span_base
            if "parent" in event:
                event["parent"] += span_base
        if labels:
            attrs = event.get("attrs")
            event["attrs"] = {**labels, **attrs} if attrs else dict(labels)
        if "span" not in event:
            if self._stack:
                event["span"] = self._stack[-1]
        elif "parent" not in event and self._stack \
                and "dur_ms" in (event.get("attrs") or ()):
            event["parent"] = self._stack[-1]
        self.sink.emit(event)
        if self._observers:
            self._notify(event)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, stats=None, log_split: bool = False, **attrs):
        """A lexical span: use as a context manager.  Child events and
        spans opened inside it reference it via ``"span"``/``"parent"``.
        ``log_split=True`` additionally records the log-device share of
        the transfer delta as ``attrs.log_transfers``."""
        if not self.enabled:
            return _NULL_SPAN
        span = Span(self, name, self._next_span_id,
                    self._stack[-1] if self._stack else None,
                    attrs, stats, lexical=True, log_split=log_split)
        self._next_span_id += 1
        self._stack.append(span.span_id)
        return span

    def start_span(self, name: str, stats=None, log_split: bool = False,
                   **attrs):
        """A detached span: caller keeps the handle and calls
        :meth:`Span.finish` later (possibly from another call frame)."""
        if not self.enabled:
            return _NULL_SPAN
        span = Span(self, name, self._next_span_id,
                    self._stack[-1] if self._stack else None,
                    attrs, stats, lexical=False, log_split=log_split)
        self._next_span_id += 1
        return span

    def _pop_span(self, span: Span) -> None:
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
        elif span.span_id in self._stack:        # mis-nested finish
            self._stack.remove(span.span_id)

    # -- lifecycle -----------------------------------------------------------

    @property
    def events_emitted(self) -> int:
        """Events emitted so far."""
        return self._seq

    def close(self) -> None:
        """Close the sink (flushes a JSONL sink to disk)."""
        if self.sink is not None:
            self.sink.close()
        _LIVE_TRACERS.discard(self)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class LabelledTracer:
    """A tracer view that stamps fixed attributes on every event.

    Wraps (not subclasses) a :class:`Tracer`: the sink, sequence
    numbers, and span stack stay shared, so events from several views
    interleave into one coherent trace.  The sharded engine gives each
    shard a ``LabelledTracer(tracer, shard=i)`` so one JSONL trace
    carries every shard, distinguishable by label.
    """

    __slots__ = ("_inner", "_labels")

    def __init__(self, inner, **labels) -> None:
        self._inner = inner
        self._labels = labels

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    @property
    def events_emitted(self) -> int:
        return self._inner.events_emitted

    def emit(self, name: str, **attrs) -> None:
        self._inner.emit(name, **{**self._labels, **attrs})

    def emit_costed(self, name: str, window, **attrs) -> None:
        self._inner.emit_costed(name, window, **{**self._labels, **attrs})

    def span(self, name: str, stats=None, log_split: bool = False, **attrs):
        return self._inner.span(name, stats=stats, log_split=log_split,
                                **{**self._labels, **attrs})

    def start_span(self, name: str, stats=None, log_split: bool = False,
                   **attrs):
        return self._inner.start_span(name, stats=stats, log_split=log_split,
                                      **{**self._labels, **attrs})

    def ingest(self, event: dict, span_base: int = 0, **labels) -> None:
        self._inner.ingest(event, span_base=span_base,
                           **{**self._labels, **labels})

    def add_observer(self, observe) -> None:
        self._inner.add_observer(observe)

    def remove_observer(self, observe) -> None:
        self._inner.remove_observer(observe)

    def close(self) -> None:
        self._inner.close()


NULL_TRACER = Tracer(None)
"""Shared disabled tracer: the default for every instrumented component."""
