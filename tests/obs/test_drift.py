"""Tests for the model-drift detector: silence on clean runs, alarms on
deliberately mispriced operations."""

import pytest

from repro.db import Database, ShardedDatabase, all_preset_names, preset
from repro.obs import (DriftDetector, MetricsRegistry, RingBufferSink,
                       Tracer, check_events)
from repro.sim import Simulator, WorkloadSpec


def write_event(transfers, buffered=False, twins=1):
    return {"name": "array.small_write",
            "attrs": {"buffered": buffered, "twins": twins,
                      "reads": 0, "writes": transfers,
                      "transfers": transfers}}


class TestJudgement:
    def test_on_model_costs_stay_silent(self):
        detector = check_events([write_event(4) for _ in range(50)])
        assert detector.clean
        summary = detector.summary()
        key = "array.small_write[buffered=False,twins=1]"
        assert summary["checked"][key]["mean_transfers"] == 4.0

    def test_mispriced_op_raises_alarm(self):
        # a regression that adds one transfer to every unbuffered small
        # write: mean 5 vs model 4 — must alarm
        detector = check_events([write_event(5) for _ in range(50)])
        assert not detector.clean
        (alarm,) = detector.alarms
        assert alarm.key == "array.small_write[buffered=False,twins=1]"
        assert alarm.measured == 5.0
        assert alarm.lo == alarm.hi == 4.0
        assert alarm.drift == pytest.approx(1.0)
        assert "model predicts 4" in alarm.describe()

    def test_alarms_deduplicate_per_variant(self):
        detector = check_events([write_event(6) for _ in range(100)])
        assert len(detector.alarms) == 1

    def test_min_count_defers_judgement(self):
        detector = check_events([write_event(9)], min_count=4)
        assert detector.clean       # one noisy op is not drift yet
        detector = check_events([write_event(9)] * 4, min_count=4)
        assert not detector.clean

    def test_tolerance_widens_band(self):
        events = [write_event(4)] * 9 + [write_event(5)]
        # mean 4.1; 5% of 4 = 0.2 slack → inside
        assert check_events(events, tolerance=0.05).clean
        assert not check_events(events, tolerance=0.01).clean

    def test_zero_band_ops_alarm_on_any_real_cost(self):
        events = [{"name": "rda.commit",
                   "attrs": {"groups": 1, "reads": 0, "writes": 1,
                             "transfers": 1}}] * 10
        detector = check_events(events)
        assert not detector.clean
        assert detector.alarms[0].key == "rda.commit"

    def test_unpriced_and_n_dependent_ops_are_ignored(self):
        events = [
            {"name": "array.degraded_read",
             "attrs": {"degraded": True, "reads": 99, "writes": 0,
                       "transfers": 99}},
            {"name": "txn.begin", "attrs": {"txn": 1}},
        ] * 10
        assert check_events(events).clean

    def test_batch_events_expand_like_inspect(self):
        events = [{"name": "array.small_write_batch",
                   "attrs": {"pages": 5, "buffered_pages": 2,
                             "transfers": 18, "dur_ms": 0.1}}] * 5
        detector = check_events(events)
        assert detector.clean
        checked = detector.summary()["checked"]
        assert checked["array.small_write[buffered=True,twins=1]"][
            "count"] == 10
        assert checked["array.small_write[buffered=False,twins=1]"][
            "count"] == 15

    def test_group_writes_are_priced_event_by_event(self):
        """2·pages + 2 − buffered_pages: groups of different sizes share
        one series whose band is the mean of their prices."""
        def group_write(pages, buffered, transfers):
            return {"name": "array.group_write",
                    "attrs": {"group": 0, "pages": pages,
                              "buffered_pages": buffered,
                              "reads": pages + 1 - buffered,
                              "writes": pages + 1, "transfers": transfers}}
        priced = [group_write(1, 1, 3), group_write(1, 0, 4),
                  group_write(3, 1, 7), group_write(5, 5, 7)] * 3
        detector = check_events(priced)
        assert detector.clean
        row = detector.summary()["checked"]["array.group_write"]
        assert row == {"count": 12, "mean_transfers": 5.25,
                       "band": [5.25, 5.25]}
        # a body that read the twin once per page again: 2 (k − 1) over
        detector = check_events([group_write(3, 1, 11)] * 4)
        (alarm,) = detector.alarms
        assert alarm.key == "array.group_write"
        assert (alarm.measured, alarm.lo, alarm.drift) == (11.0, 7.0, 4.0)

    def test_commit_groups_expand_to_twin_flips(self):
        events = [{"name": "rda.commit",
                   "attrs": {"groups": 3, "reads": 0, "writes": 0,
                             "transfers": 0}}] * 5
        checked = check_events(events).summary()["checked"]
        assert checked["rda.twin_flip"]["count"] == 15


class TestSideChannels:
    def test_metrics_gauge_and_counter(self):
        registry = MetricsRegistry()
        detector = DriftDetector(metrics=registry)
        for _ in range(10):
            detector.observe(write_event(5))
        snapshot = registry.snapshot()
        key = "model.drift{op=array.small_write[buffered=False,twins=1]}"
        assert snapshot["gauges"][key] == pytest.approx(1.0)
        assert snapshot["counters"]["model.drift_alarms"] == 1

    def test_alarm_emits_trace_event(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        detector = DriftDetector(tracer=tracer)
        for _ in range(10):
            detector.observe(write_event(5))
        (event,) = [e for e in sink.events()
                    if e["name"] == "model.drift_alarm"]
        assert event["attrs"]["measured"] == 5.0

    def test_live_observer_via_tracer(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        detector = DriftDetector().attach(tracer)
        for _ in range(10):
            tracer.emit("array.small_write", buffered=False, twins=1,
                        reads=2, writes=2, transfers=4)
        assert detector.clean
        key = "array.small_write[buffered=False,twins=1]"
        assert detector.summary()["checked"][key]["count"] == 10


class TestCleanPresets:
    """Acceptance: the detector stays silent on every clean preset —
    simulated costs do realize the paper's prices."""

    @pytest.mark.parametrize("name", all_preset_names())
    def test_simulated_preset_is_drift_free(self, name):
        tracer = Tracer(RingBufferSink())
        db = Database(preset(name, group_size=4, num_groups=16,
                             buffer_capacity=12), tracer=tracer)
        detector = DriftDetector().attach(tracer)
        simulator = Simulator(db, WorkloadSpec(concurrency=3,
                                               pages_per_txn=3), seed=3)
        if simulator.record_mode:
            simulator.seed_records()
        simulator.run(30, crash_every=12)
        assert detector.clean, [a.describe() for a in detector.alarms]

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_run_is_drift_free(self, shards):
        tracer = Tracer(RingBufferSink())
        db = ShardedDatabase(preset("page-force-rda", group_size=4,
                                    num_groups=16, buffer_capacity=12),
                             shards=shards, tracer=tracer)
        detector = DriftDetector().attach(tracer)
        simulator = Simulator(db, WorkloadSpec(concurrency=3,
                                               pages_per_txn=3), seed=3)
        simulator.run(30, crash_every=12)
        assert detector.clean, [a.describe() for a in detector.alarms]
