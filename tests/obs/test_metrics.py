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
    assert "hits 112" in registry.to_prometheus().splitlines()


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


class TestPrometheusExposition:
    def parse(self, text):
        """A tiny text-format parser: {(name, frozen_labels): value}.

        Handles the spec's escapes (backslash, quote, newline) so the
        round-trip test actually exercises them.
        """
        samples = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, rest = line.partition("{")
            if rest:
                labels_text, _, value_text = rest.rpartition("} ")
                labels = {}
                i = 0
                while i < len(labels_text):
                    eq = labels_text.index("=", i)
                    key = labels_text[i:eq]
                    assert labels_text[eq + 1] == '"'
                    j = eq + 2
                    value = []
                    while labels_text[j] != '"':
                        if labels_text[j] == "\\":
                            escaped = labels_text[j + 1]
                            value.append({"\\": "\\", '"': '"',
                                          "n": "\n"}[escaped])
                            j += 2
                        else:
                            value.append(labels_text[j])
                            j += 1
                    labels[key] = "".join(value)
                    i = j + 2           # skip closing quote + comma
                key = (name, frozenset(labels.items()))
            else:
                name, _, value_text = line.partition(" ")
                key = (name.strip(), frozenset())
            samples[key] = float(value_text)
        return samples

    def test_counters_and_gauges_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("wal.records").inc(7)
        registry.counter("wal.records").labels(type="CommitRecord").inc(3)
        registry.gauge("dirty.groups").set(5)
        samples = self.parse(registry.to_prometheus())
        assert samples[("wal_records", frozenset())] == 7
        assert samples[("wal_records",
                        frozenset({("type", "CommitRecord")}))] == 3
        assert samples[("dirty_groups", frozenset())] == 5

    def test_nasty_label_values_survive_round_trip(self):
        registry = MetricsRegistry()
        nasty = 'back\\slash "quoted"\nnewline'
        registry.counter("ops").labels(detail=nasty).inc(9)
        text = registry.to_prometheus()
        # the raw newline must not appear inside the label value
        sample_lines = [l for l in text.splitlines()
                        if l and not l.startswith("#")]
        assert all('\n' not in l for l in sample_lines)
        samples = self.parse(text)
        assert samples[("ops", frozenset({("detail", nasty)}))] == 9

    def test_histogram_exposes_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("cost", buckets=(1, 4, 8))
        for value in (1, 3, 4, 9):
            hist.observe(value)
        samples = self.parse(registry.to_prometheus())
        assert samples[("cost_bucket", frozenset({("le", "1")}))] == 1
        assert samples[("cost_bucket", frozenset({("le", "4")}))] == 3
        assert samples[("cost_bucket", frozenset({("le", "8")}))] == 3
        assert samples[("cost_bucket", frozenset({("le", "+Inf")}))] == 4
        assert samples[("cost_sum", frozenset())] == 17
        assert samples[("cost_count", frozenset())] == 4

    def test_type_lines_precede_samples(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.gauge("c.d").set(1)
        registry.histogram("e.f").observe(2)
        lines = registry.to_prometheus().splitlines()
        assert "# TYPE a_b counter" in lines
        assert "# TYPE c_d gauge" in lines
        assert "# TYPE e_f histogram" in lines
        for type_line in [l for l in lines if l.startswith("# TYPE")]:
            name = type_line.split()[2]
            index = lines.index(type_line)
            assert lines[index + 1].startswith(name)

    def test_name_sanitization(self):
        from repro.obs import prometheus_name

        assert prometheus_name("wal.records") == "wal_records"
        assert prometheus_name("9lives") == "_9lives"
        assert prometheus_name("a-b c") == "a_b_c"

    def test_escape_label_value_order(self):
        from repro.obs import escape_label_value

        assert escape_label_value('a\\b') == 'a\\\\b'
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value('a\nb') == 'a\\nb'
        # backslash first: an escaped quote stays one escape deep
        assert escape_label_value('\\"') == '\\\\\\"'
