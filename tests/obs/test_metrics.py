"""Unit tests for counters, gauges, histograms, and the registry."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Gauge, Histogram


def test_counter_increments_and_rejects_decrease():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_labels_are_cached_children():
    c = Counter("wal.records")
    c.labels(type="CommitRecord").inc()
    c.labels(type="CommitRecord").inc()
    c.labels(type="BOTRecord").inc()
    assert c.labels(type="CommitRecord") is c.labels(type="CommitRecord")
    out = {}
    c.collect(out)
    assert out["wal.records{type=CommitRecord}"] == 2
    assert out["wal.records{type=BOTRecord}"] == 1
    assert out["wal.records"] == 0        # parent counts only direct incs


def test_label_keys_are_sorted_in_series_key():
    c = Counter("s")
    c.labels(b=2, a=1).inc()
    out = {}
    c.collect(out)
    assert "s{a=1,b=2}" in out


def test_gauge_moves_both_ways():
    g = Gauge("dirty")
    g.set(3)
    g.inc()
    g.dec(2)
    assert g.value == 2


def test_sources_are_read_at_export_and_add_to_what_was_pushed():
    layer = {"hits": 0, "dirty": 0}
    registry = MetricsRegistry()
    hits = registry.counter("hits")
    hits.add_source(lambda: layer["hits"])
    hits.add_source(lambda: 100)              # a second engine's count
    hits.inc(5)
    dirty = registry.gauge("dirty").labels(shard=1)
    dirty.add_source(lambda: layer["dirty"])
    assert hits.value == 105 and dirty.value == 0
    layer.update(hits=7, dirty=3)
    assert hits.value == 112
    snap = registry.snapshot()
    assert snap["counters"]["hits"] == 112
    assert snap["gauges"]["dirty{shard=1}"] == 3


def test_histogram_bucket_is_the_first_bound_not_below_the_value():
    h = Histogram("xfers", buckets=(1, 2, 4, 8))
    values = (0, 1, 1.5, 2, 3, 4, 4.0001, 8, 9, 1000)
    for value in values:
        h.observe(value)
    expected = [0] * 5
    for value in values:                    # the rule, spelled out
        for index, bound in enumerate(h.buckets):
            if value <= bound:
                expected[index] += 1
                break
        else:
            expected[-1] += 1
    assert h.bucket_counts == expected == [2, 2, 2, 2, 2]


def test_histogram_buckets_and_summary():
    h = Histogram("xfers", buckets=(3, 4, 6))
    for value in (3, 4, 4, 5, 100):
        h.observe(value)
    assert h.count == 5
    assert h.min == 3 and h.max == 100
    assert h.mean == pytest.approx(116 / 5)
    out = {}
    h.collect(out)
    doc = out["xfers"]
    assert doc["buckets"] == {"le_3": 1, "le_4": 2, "le_6": 1, "le_inf": 1}


def test_registry_get_or_create_shares_instruments():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.histogram("c") is registry.histogram("c")


def test_snapshot_is_json_serializable():
    registry = MetricsRegistry()
    registry.counter("ops").inc(7)
    registry.counter("ops").labels(kind="read").inc()
    registry.gauge("depth").set(2)
    registry.histogram("cost").observe(4)
    snap = registry.snapshot()
    assert snap["counters"]["ops"] == 7
    assert snap["counters"]["ops{kind=read}"] == 1
    assert snap["gauges"]["depth"] == 2
    assert snap["histograms"]["cost"]["count"] == 1
    json.dumps(snap)      # must round-trip to JSON without custom encoders

