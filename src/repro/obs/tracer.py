"""The event tracer: typed, timestamped events and spans.

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  Every hot path guards with
   ``if tracer.enabled:`` (one attribute load), and the shared
   :data:`NULL_TRACER` returns a stateless no-op span without
   allocating, so the instrumented small-write path costs one branch
   over the uninstrumented one.
2. **An event is one append.**  The tracer appends one flat tuple of
   atomic values per event — a *record* — to its sink's ``pending``
   list: an interned *shape* id (event name plus attribute keys, see
   :func:`shape`), ``seq``, the ``perf_counter_ns`` offset from the
   tracer's start, the span and parent ids, then the attribute values.
   No dict, no span object and no JSON encoding happen per event;
   :func:`decode` builds the event dict where somebody reads one
   (observers, :meth:`RingBufferSink.events`, worker batches) and
   :class:`BufferedJsonlSink` encodes a chunk of records at a time.
3. **Dependency-free.**  A sink is a plain object with ``pending`` (a
   list-like the tracer appends records to), ``flush_every`` (the
   tracer calls ``flush()`` when that many records are pending),
   ``flush()`` and ``close()``; the JSONL sink uses only :mod:`json`.
4. **Costs ride along.**  A span bound to an
   :class:`~repro.storage.iostats.IOStats` snapshots the counters at
   start and attaches the read/write/transfer delta to its closing
   event — the paper's page-transfer accounting, per operation.

Event wire format (one JSON object per line in a JSONL sink, the
dict :func:`decode` returns)::

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
import weakref
from collections import deque
from time import perf_counter_ns as _now_ns

# -- shapes -----------------------------------------------------------------

_SHAPES: list = []
"""shape id -> ``(name, attribute keys, tail)``.  ``tail`` names the
ids (``"span"``, ``"parent"``) an ingested event carries *after* its
attributes — ``Tracer.ingest`` adds them to a foreign event last."""

_SHAPE_IDS: dict = {}
"""``(name, *keys)`` -> shape id (``(tail, name, *keys)`` for a tail)."""

_TEMPLATES: list = []
"""shape id -> {value types of a record: its compiled encoder}."""

_CURRENT: list = []
"""shape id -> the encoder of the last value types its records had."""


def shape(name: str, *keys: str) -> int:
    """The interned id of an event called ``name`` whose attributes are
    ``keys``, in order.  A hot emit site resolves its shape once, at
    import, and passes values positionally to :meth:`Tracer.append`."""
    return _shape(name, keys)


def _shape(name: str, keys: tuple, tail: tuple = ()) -> int:
    key = (tail, name, *keys) if tail else (name, *keys)
    shape_id = _SHAPE_IDS.get(key)
    if shape_id is None:
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"event {name!r} names an attribute twice: {keys}")
        shape_id = _SHAPE_IDS[key] = len(_SHAPES)
        _SHAPES.append((name, keys, tail))
        _TEMPLATES.append({})
        _CURRENT.append(_unseen)
    return shape_id


def _unseen(*record) -> None:
    """The encoder of a shape no record has been encoded for yet."""
    return None


def decode(record: tuple) -> dict:
    """The event dict a record stands for (a fresh one per call)."""
    name, keys, tail = _SHAPES[record[0]]
    event = {"seq": record[1], "ts": record[2] // 1000 / 1e6, "name": name}
    span, parent = record[3], record[4]
    if span is not None and "span" not in tail:
        event["span"] = span
    if parent is not None and "parent" not in tail:
        event["parent"] = parent
    if keys:
        event["attrs"] = dict(zip(keys, record[5:]))
    if tail:
        if span is not None and "span" in tail:
            event["span"] = span
        if parent is not None and "parent" in tail:
            event["parent"] = parent
    return event


# -- the JSONL encoding ---------------------------------------------------------


def _make_value_encoder():
    """``encode(value, 0) -> chunks of its compact JSON``, built once:
    the C encoder ``json.dumps(separators=(",", ":"), default=str)``
    would build (same escapes, ``NaN``/``Infinity``, ``default=str``).
    Without the C accelerator the public per-call encoder does the job.
    """
    encoder = json.JSONEncoder(separators=(",", ":"), default=str)
    make = json.encoder.c_make_encoder
    if make is None:
        return lambda value, _indent_level: (encoder.encode(value),)
    return make(None, encoder.default, json.encoder.encode_basestring_ascii,
                None, encoder.key_separator, encoder.item_separator,
                encoder.sort_keys, encoder.skipkeys, encoder.allow_nan)


_encode_value = _make_value_encoder()
_escape = json.encoder.encode_basestring_ascii


def _other(value) -> str:
    return "".join(_encode_value(value, 0))


# a compiled encoder's file name: no file, but its calls count as this
# module's wherever calls are tallied by source file
_ENCODER_FILE = "<repro/obs/tracer.py: compiled encoder>"

# what a compiled encoder's source may name
_ENCODER_GLOBALS = {"_BOOL": ("false", "true"), "_frepr": float.__repr__,
                    "_esc": _escape, "_other": _other}


def _slot(kind, name: str):
    """The expression encoding the value ``name`` of type ``kind`` as
    ``json.dumps`` would, or the JSON text itself for a constant."""
    if kind is type(None):
        return "null", None
    if kind is bool:
        return None, f"_BOOL[{name}]"
    if kind is int:
        return None, name
    if kind is float:
        # repr() is JSON for a finite float; nan and inf are not
        return None, f"_frepr({name}) if {name} - {name} == 0.0 " \
                     f"else _other({name})"
    if kind is str:
        return None, f"_esc({name})"
    return None, f"_other({name})"


def _compile(shape_id: int, kinds: tuple):
    """The encoder of one shape and one tuple of value types: a
    template over the record's unpacked fields, compiled once per
    pair.  It returns None for a record whose types differ, so a
    shape's records are encoded by the last encoder that fit until one
    does not."""
    name, keys, tail = _SHAPES[shape_id]
    fields = ["_", "seq", "ns", "span", "parent",
              *(f"v{position}" for position in range(len(keys)))]
    # the template: JSON text, with (expression,) for each variable part
    parts: list = ['{"seq":', ("seq",), ',"ts":', ("ns // 1000 / 1e6!r",),
                   ',"name":' + _escape(name)]

    def put(text: str, index: int) -> None:
        constant, expr = _slot(kinds[index], fields[index])
        parts.append(text + (constant or ""))
        if expr is not None:
            parts.append((expr,))

    ids = [(key, index) for key, index in (("span", 3), ("parent", 4))
           if kinds[index] is not type(None)]
    for key, index in ids:
        if key not in tail:
            put(f',"{key}":', index)
    for position, key in enumerate(keys):
        put(("," if position else ',"attrs":{') + _escape(key) + ":",
            5 + position)
    if keys:
        parts.append("}")
    for key, index in ids:
        if key in tail:
            put(f',"{key}":', index)
    parts.append("}")
    # adjacent literals and f-strings compile to one string build
    source = " ".join(repr(part) if isinstance(part, str)
                      else f"f'{{{part[0]}}}'" for part in parts)
    # the types the template is exact for (the first three fields are
    # the tracer's ints and are written as such)
    guard = " and ".join(f"type({fields[index]}) is _K{index}"
                         for index in range(3, len(fields)))
    namespace = {**_ENCODER_GLOBALS,
                 **{f"_K{index}": kind for index, kind in enumerate(kinds)}}
    exec(compile(f"def encode({', '.join(fields)}):\n"
                 f"    if {guard}:\n"
                 f"        return {source}", _ENCODER_FILE, "exec"),
         namespace)
    return namespace["encode"]


def encode(records) -> str:
    """The JSONL text of ``records`` (one line each, newline-ended):
    byte for byte ``json.dumps(decode(record), separators=(",", ":"),
    default=str)``.  A value no template slot knows (a list, a dict, a
    subclass) goes through the C encoder; one that cannot be encoded
    raises here."""
    current = _CURRENT
    lines = []
    for record in records:
        line = current[record[0]](*record)
        if line is None:
            line = _encode_new_types(record)
        lines.append(line)
    lines.append("")
    return "\n".join(lines)


def _encode_new_types(record: tuple) -> str:
    """Encode a record whose value types its shape's current encoder
    does not fit: the encoder of its types, compiled at first sight,
    becomes the shape's current one."""
    kinds = (*map(type, record),)
    by_kind = _TEMPLATES[record[0]]
    encoder = by_kind.get(kinds)
    if encoder is None:
        encoder = by_kind[kinds] = _compile(record[0], kinds)
    _CURRENT[record[0]] = encoder
    return encoder(*record)


# -- sinks ------------------------------------------------------------------------

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
    *enabled* — records are built and queued — but each chunk is
    dropped unread)."""

    flush_every = 1024

    def __init__(self) -> None:
        self.pending: list = []

    def flush(self) -> None:
        self.pending.clear()

    def close(self) -> None:
        self.pending.clear()


class RingBufferSink:
    """Keeps the last ``capacity`` events in memory (tests, post-mortem
    flight recorder)."""

    def __init__(self, capacity: int = 4096) -> None:
        self.pending: deque = deque(maxlen=capacity)
        # never reached: a full ring drops its oldest record instead
        self.flush_every = capacity + 1

    def events(self) -> list:
        """The retained events, oldest first."""
        return [decode(record) for record in self.pending]

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class BufferedJsonlSink:
    """Appends one compact JSON object per event to a file, a chunk at
    a time.

    The tracer only queues records here; they are encoded (:func:`encode`)
    and written, one ``write`` call per chunk, when ``flush_every`` are
    pending, at :meth:`flush`, at :meth:`close`, or by the tracer
    module's ``atexit`` hook if the run never closed its tracer.  A
    record holds atomic values only, so what the file says is what
    each event was when emitted.  An event that cannot be encoded
    raises from the flush that reaches it, not from the emit, and takes
    its chunk with it.  What full tracing + metrics cost end to end is
    the ledger's ``force_update_obs`` row read against
    ``force_update`` (``docs/performance.md`` has the cells).
    """

    def __init__(self, path, flush_every: int = 1024) -> None:
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")
        self.pending: list = []
        self.flush_every = flush_every
        self._flushed = 0

    @property
    def count(self) -> int:
        """Events handed to the sink so far."""
        return self._flushed + len(self.pending)

    def flush(self) -> None:
        """Encode the pending events and write them to the file."""
        pending = self.pending
        if pending:
            self._flushed += len(pending)
            try:
                text = encode(pending)
            finally:
                pending.clear()
            self._handle.write(text)

    def close(self) -> None:
        if not self._handle.closed:
            self.flush()
            self._handle.close()

    def __enter__(self) -> "BufferedJsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- spans ------------------------------------------------------------------------


class Span:
    """One in-flight multi-step operation.

    Created by :meth:`Tracer.span` as a context manager; it joins the
    tracer's span stack while open.  Emits a single event when finished,
    carrying duration and — when bound to an
    :class:`~repro.storage.iostats.IOStats` — the page transfers
    performed while it was open.  A per-operation span on a hot path
    keeps no object: :meth:`Tracer.open_span` / :meth:`Tracer.close_span`.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs",
                 "_t0", "_stats", "_before", "_log_before", "_done")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id, attrs: dict, stats,
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
        self._done = False
        self._t0 = _now_ns()

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
        self.attrs["dur_ms"] = (_now_ns() - self._t0) // 1000 / 1e3
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
        tracer._pop_span(self)
        tracer._emit_event(self.name, self.attrs, self.span_id,
                           self.parent_id)

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
        sink: a sink (``pending``, ``flush_every``, ``flush()``,
            ``close()``; see the module docstring); ``None`` disables
            the tracer entirely (use the module-level
            :data:`NULL_TRACER` instead of constructing one per
            component).
    """

    def __init__(self, sink=None) -> None:
        self.sink = sink
        self.enabled = sink is not None
        self._seq = 0
        self._t0_ns = _now_ns()
        self._stack: list = []      # lexical span ids, innermost last
        self._top: int | None = None    # the innermost one
        self._next_span_id = 1
        self._observers: list = []
        # the sink's queue, appended to in place (a sink clears it,
        # never rebinds it)
        self._pending = sink.pending if sink is not None else None
        self._flush_every = sink.flush_every if sink is not None else 0
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
        :class:`NullSink`.  Each event is decoded once for all
        observers; observers must not mutate it.
        """
        self._observers.append(observe)

    def remove_observer(self, observe) -> None:
        """Detach an observer added with :meth:`add_observer`."""
        self._observers.remove(observe)

    def _notify(self, record: tuple) -> None:
        event = decode(record)
        for observe in self._observers:
            observe(event)

    # -- events --------------------------------------------------------------

    # Each emitter queues its record itself — append, check the chunk,
    # notify — so that an event costs one frame.

    def append(self, shape_id: int, *values) -> None:
        """Emit one event of an interned :func:`shape`, its attribute
        values in the shape's key order: the hot sites' path (no-op
        when disabled)."""
        if not self.enabled:
            return
        self._seq = seq = self._seq + 1
        pending = self._pending
        record = (shape_id, seq, _now_ns() - self._t0_ns, self._top,
                  None) + values
        pending.append(record)
        if len(pending) >= self._flush_every:
            self.sink.flush()
        if self._observers:
            self._notify(record)

    def emit(self, name: str, **attrs) -> None:
        """Emit one event (no-op when disabled)."""
        if not self.enabled:
            return
        shape_id = _SHAPE_IDS.get((name, *attrs))
        if shape_id is None:
            shape_id = shape(name, *attrs)
        self._seq = seq = self._seq + 1
        pending = self._pending
        record = (shape_id, seq, _now_ns() - self._t0_ns, self._top, None,
                  *attrs.values())
        pending.append(record)
        if len(pending) >= self._flush_every:
            self.sink.flush()
        if self._observers:
            self._notify(record)

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

    def _emit_event(self, name: str, attrs: dict, span_id, parent_id,
                    tail: tuple = ()) -> None:
        """The rarer emitters' path (span objects, ingested events)."""
        if not self.enabled:
            return
        self._seq += 1
        record = (_shape(name, tuple(attrs), tail), self._seq,
                  _now_ns() - self._t0_ns, span_id, parent_id,
                  *attrs.values())
        pending = self._pending
        pending.append(record)
        if len(pending) >= self._flush_every:
            self.sink.flush()
        if self._observers:
            self._notify(record)

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
        An id added here follows the event's attributes on the wire.
        """
        if not self.enabled:
            return
        attrs = event.get("attrs")
        if labels:
            attrs = {**labels, **attrs} if attrs else labels
        attrs = attrs or {}
        span, parent = event.get("span"), event.get("parent")
        if span is not None:
            span += span_base
        if parent is not None:
            parent += span_base
        top = self._top
        tail: tuple = ()
        if span is None:
            if top is not None:
                span = top
                tail = ("span",) if attrs else ()
        elif parent is None and top is not None and "dur_ms" in attrs:
            parent = top
            tail = ("parent",)
        self._emit_event(event["name"], attrs, span, parent, tail)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, stats=None, log_split: bool = False, **attrs):
        """A lexical span: use as a context manager.  Child events and
        spans opened inside it reference it via ``"span"``/``"parent"``.
        ``log_split=True`` additionally records the log-device share of
        the transfer delta as ``attrs.log_transfers``."""
        if not self.enabled:
            return _NULL_SPAN
        span = Span(self, name, self._next_span_id, self._top, attrs, stats,
                    log_split=log_split)
        self._next_span_id += 1
        self._stack.append(span.span_id)
        self._top = span.span_id
        return span

    def open_span(self, stats=None) -> tuple:
        """Start a detached span without an object: returns the start
        state the caller keeps — ``(span id, parent id, start ns,
        reads, writes)`` — and hands to :meth:`close_span`."""
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        if stats is None:
            return span_id, self._top, _now_ns(), 0, 0
        return span_id, self._top, _now_ns(), stats.reads, stats.writes

    def close_span(self, state: tuple, stats, shape_id: int,
                   *values) -> None:
        """Emit the event of a span :meth:`open_span` started: the
        ``values`` of ``shape_id``'s leading keys, then ``dur_ms`` and,
        with ``stats`` (the counters it was opened over), ``reads``,
        ``writes`` and ``transfers`` — the keys ``shape_id`` ends
        with."""
        if not self.enabled:
            return
        span_id, parent, start, reads, writes = state
        now = _now_ns()
        dur_ms = (now - start) // 1000 / 1e3      # whole µs, as ts
        self._seq = seq = self._seq + 1
        if stats is None:
            record = (shape_id, seq, now - self._t0_ns, span_id, parent,
                      *values, dur_ms)
        else:
            reads = stats.reads - reads
            writes = stats.writes - writes
            record = (shape_id, seq, now - self._t0_ns, span_id, parent,
                      *values, dur_ms, reads, writes, reads + writes)
        pending = self._pending
        pending.append(record)
        if len(pending) >= self._flush_every:
            self.sink.flush()
        if self._observers:
            self._notify(record)

    def _pop_span(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] == span.span_id:
            stack.pop()
        elif span.span_id in stack:             # mis-nested finish
            stack.remove(span.span_id)
        self._top = stack[-1] if stack else None

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
    carries every shard, distinguishable by label.  Labels come first
    among an event's attributes; an attribute of the same name keeps
    the label's place and takes the event's value.
    """

    __slots__ = ("_inner", "_labels", "_values", "_shapes")

    def __init__(self, inner, **labels) -> None:
        if isinstance(inner, LabelledTracer):
            # one view over the tracer, the labels merged as nesting
            # would merge them
            labels = {**inner._labels, **labels}
            inner = inner._inner
        self._inner = inner
        self._labels = labels
        self._values = tuple(labels.values())
        # event shape id -> (labelled shape id, value order or None)
        self._shapes: dict = {}

    def _labelled(self, shape_id: int) -> tuple:
        """Intern the labelled form of a shape, once: ``(name, *labels,
        *keys)``.  A key that shares a label's name keeps the label's
        place and takes the event's value: the record's values are then
        picked out of ``(*label values, *event values)``."""
        name, keys, _ = _SHAPES[shape_id]
        labels = tuple(self._labels)
        merged = (*labels, *(key for key in keys if key not in labels))
        order = None
        if len(merged) < len(labels) + len(keys):
            named = (*keys[::-1], *labels[::-1])   # the values, reversed
            order = tuple(len(named) - 1 - named.index(key)
                          for key in merged)
        entry = self._shapes[shape_id] = (_shape(name, merged), order)
        return entry

    @property
    def enabled(self) -> bool:
        return self._inner.enabled

    @property
    def events_emitted(self) -> int:
        return self._inner.events_emitted

    def append(self, shape_id: int, *values) -> None:
        """:meth:`Tracer.append` under the labels, in one frame: the
        labelled shape, the label values ahead of the event's."""
        inner = self._inner
        if not inner.enabled:
            return
        labelled, order = (self._shapes.get(shape_id)
                           or self._labelled(shape_id))
        values = self._values + values
        if order is not None:
            values = tuple(map(values.__getitem__, order))
        inner._seq = seq = inner._seq + 1
        pending = inner._pending
        record = (labelled, seq, _now_ns() - inner._t0_ns, inner._top,
                  None) + values
        pending.append(record)
        if len(pending) >= inner._flush_every:
            inner.sink.flush()
        if inner._observers:
            inner._notify(record)

    def emit(self, name: str, **attrs) -> None:
        self._inner.emit(name, **{**self._labels, **attrs})

    def emit_costed(self, name: str, window, **attrs) -> None:
        self._inner.emit_costed(name, window, **{**self._labels, **attrs})

    def span(self, name: str, stats=None, log_split: bool = False, **attrs):
        return self._inner.span(name, stats=stats, log_split=log_split,
                                **{**self._labels, **attrs})

    def open_span(self, stats=None) -> tuple:
        return self._inner.open_span(stats)

    def close_span(self, state: tuple, stats, shape_id: int,
                   *values) -> None:
        # a label may not share a name with a span attribute: shape()
        # refuses the duplicate key
        name, keys, _ = _SHAPES[shape_id]
        self._inner.close_span(state, stats,
                               shape(name, *self._labels, *keys),
                               *self._labels.values(), *values)

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
