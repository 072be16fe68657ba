"""Unit tests for the event tracer, spans, and sinks."""

import json

import pytest

from repro.obs import (NULL_TRACER, BufferedJsonlSink, RingBufferSink, Tracer,
                       load_trace)
from repro.storage.iostats import IOStats


def test_disabled_tracer_emits_nothing():
    tracer = Tracer(None)
    tracer.emit("x", a=1)
    with tracer.span("y") as span:
        span.set(b=2)
    assert tracer.events_emitted == 0
    assert not tracer.enabled


def test_null_tracer_is_shared_and_disabled():
    assert NULL_TRACER.enabled is False
    span = NULL_TRACER.span("anything")
    # the stateless no-op span: same object every time, ignores set()
    assert NULL_TRACER.span("other") is span
    span.set(a=1).finish()
    assert NULL_TRACER.start_span("z") is span


def test_emit_records_name_attrs_and_sequence():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    tracer.emit("first", page=3)
    tracer.emit("second")
    events = sink.events()
    assert [e["name"] for e in events] == ["first", "second"]
    assert events[0]["attrs"] == {"page": 3}
    assert events[0]["seq"] == 1 and events[1]["seq"] == 2
    assert events[0]["ts"] <= events[1]["ts"]


def test_emit_costed_attaches_transfer_counts():
    stats = IOStats()
    sink = RingBufferSink()
    tracer = Tracer(sink)
    with stats.window() as window:
        stats.record_read(0, 2)
        stats.record_write(1, 1)
    tracer.emit_costed("op", window, page=9)
    (event,) = sink.events()
    assert event["attrs"] == {"page": 9, "reads": 2, "writes": 1,
                              "transfers": 3}


def test_span_carries_duration_and_io_delta():
    stats = IOStats()
    sink = RingBufferSink()
    tracer = Tracer(sink)
    with tracer.span("work", stats=stats, disk=1) as span:
        stats.record_read(0, 4)
        span.set(extra="yes")
    (event,) = sink.events()
    assert event["name"] == "work"
    assert event["attrs"]["reads"] == 4
    assert event["attrs"]["writes"] == 0
    assert event["attrs"]["transfers"] == 4
    assert event["attrs"]["extra"] == "yes"
    assert event["attrs"]["dur_ms"] >= 0
    assert event["span"] == 1


def test_nested_spans_link_parent_and_children():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    with tracer.span("outer"):
        tracer.emit("inside")
        with tracer.span("inner"):
            pass
    inside, inner, outer = sink.events()
    assert inside["span"] == outer["span"]        # event inside outer
    assert inner["parent"] == outer["span"]
    assert "parent" not in outer


def test_detached_span_finishes_from_another_frame():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    span = tracer.start_span("txn", txn=7)
    tracer.emit("unrelated")
    span.finish(outcome="committed")
    span.finish(outcome="twice")      # idempotent: second finish ignored
    events = sink.events()
    assert len(events) == 2
    assert events[-1]["attrs"]["outcome"] == "committed"


def test_span_records_error_attribute_on_exception():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    with pytest.raises(ValueError):
        with tracer.span("doomed"):
            raise ValueError("boom")
    (event,) = sink.events()
    assert event["attrs"]["error"] == "ValueError"


def test_ring_buffer_sink_caps_capacity():
    sink = RingBufferSink(capacity=3)
    tracer = Tracer(sink)
    for i in range(10):
        tracer.emit("e", i=i)
    kept = [e["attrs"]["i"] for e in sink.events()]
    assert kept == [7, 8, 9]


def test_jsonl_sink_round_trips_through_load_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(BufferedJsonlSink(path)) as tracer:
        tracer.emit("a", n=1)
        with tracer.span("b"):
            pass
    events = load_trace(path)
    assert [e["name"] for e in events] == ["a", "b"]
    # each line is standalone JSON
    lines = path.read_text().strip().splitlines()
    assert all(json.loads(line)["name"] for line in lines)


def test_buffered_sink_context_manager_flushes(tmp_path):
    path = tmp_path / "trace.jsonl"
    from repro.obs import BufferedJsonlSink

    with BufferedJsonlSink(path, flush_every=1000) as sink:
        tracer = Tracer(sink)
        for i in range(10):
            tracer.emit("e", i=i)
        # nothing flushed yet: well under flush_every
        assert path.read_text() == ""
    assert len(load_trace(path)) == 10


def test_buffered_sink_writes_whole_chunks_in_emit_order(tmp_path):
    path = tmp_path / "trace.jsonl"
    from repro.obs import BufferedJsonlSink

    sink = BufferedJsonlSink(path, flush_every=4)
    flushed_at = []
    flush = sink.flush
    # shadowed on the instance, as the ledger's shims do: the sink's
    # own calls must find it
    sink.flush = lambda: (flushed_at.append(sink.count), flush())
    tracer = Tracer(sink)
    for i in range(6):
        tracer.emit("e", i=i)
    assert flushed_at == [4]                # the fourth event filled a chunk
    tracer.close()
    assert flushed_at == [4, 6] and sink.count == 6
    assert [e["attrs"]["i"] for e in load_trace(path)] == list(range(6))
    assert path.read_text().count("\n") == 6


def test_buffered_sink_reports_an_unencodable_event_at_flush(tmp_path):
    from repro.obs import BufferedJsonlSink

    sink = BufferedJsonlSink(tmp_path / "trace.jsonl")
    tracer = Tracer(sink)
    tracer.emit("bad", key={("not", "a"): "json key"})   # emit does not look
    with pytest.raises(TypeError):
        sink.flush()
    tracer.emit("good")                     # the sink carries on
    tracer.close()
    assert [e["name"] for e in load_trace(sink.path)] == ["good"]


def test_observers_see_every_event_and_can_detach():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    seen = []
    tracer.add_observer(seen.append)
    tracer.emit("plain", n=1)
    with tracer.span("spanned"):
        pass
    assert [e["name"] for e in seen] == ["plain", "spanned"]
    # observers receive the same dicts the sink records
    assert seen == sink.events()
    tracer.remove_observer(seen.append)
    tracer.emit("after")
    assert len(seen) == 2


def test_observers_only_fire_while_enabled():
    tracer = Tracer(None)
    seen = []
    tracer.add_observer(seen.append)
    tracer.emit("dropped")
    assert seen == []


def test_labelled_tracer_delegates_observers():
    from repro.obs import LabelledTracer

    sink = RingBufferSink()
    tracer = Tracer(sink)
    seen = []
    labelled = LabelledTracer(tracer, shard=3)
    labelled.add_observer(seen.append)
    labelled.emit("op")
    assert seen[0]["attrs"] == {"shard": 3}
    labelled.remove_observer(seen.append)


def test_atexit_flushes_buffered_sink_on_sys_exit(tmp_path):
    """Satellite guarantee: a run killed mid-flight (sys.exit without
    tracer.close()) still leaves a parseable, complete trace — the
    atexit hook drains the buffered sink's pending tail."""
    import subprocess
    import sys

    path = tmp_path / "killed.jsonl"
    script = (
        "import sys\n"
        "from repro.obs import BufferedJsonlSink, Tracer\n"
        f"tracer = Tracer(BufferedJsonlSink({str(path)!r}, "
        "flush_every=10_000))\n"
        "for i in range(123):\n"
        "    tracer.emit('e', i=i)\n"
        "sys.exit(3)  # no tracer.close(): the atexit hook must flush\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 3, result.stderr
    events = load_trace(path)
    assert len(events) == 123
    assert [e["attrs"]["i"] for e in events] == list(range(123))


def test_close_all_is_idempotent_and_scoped_to_live_tracers(tmp_path):
    from repro.obs import BufferedJsonlSink, close_all

    path = tmp_path / "t.jsonl"
    tracer = Tracer(BufferedJsonlSink(path, flush_every=1000))
    tracer.emit("x")
    close_all()
    assert len(load_trace(path)) == 1
    close_all()                       # second call: nothing left to close
    assert Tracer.close_all is close_all


def test_span_log_split_separates_log_transfers():
    stats = IOStats()
    sink = RingBufferSink()
    tracer = Tracer(sink)
    with tracer.span("recovery.phase", stats=stats, log_split=True,
                     phase="redo"):
        stats.record_read(0, 2)       # array disk
        stats.record_read(-1, 3)      # log device (negative id)
        stats.record_write(-1, 1)
    (event,) = sink.events()
    assert event["attrs"]["transfers"] == 6
    assert event["attrs"]["log_transfers"] == 4
    # without log_split the attribute is absent (hot-path spans skip
    # the per-device summation)
    with tracer.span("op", stats=stats):
        stats.record_read(-1, 1)
    assert "log_transfers" not in sink.events()[-1]["attrs"]
