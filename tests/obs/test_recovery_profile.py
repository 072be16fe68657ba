"""Tests for the recovery profiler: phase breakdowns, MTTR,
availability, and the simulator wiring — the paper's availability
argument, measured."""

import pytest

from repro.db import Database, ShardedDatabase, preset
from repro.obs import RecoveryProfile, RingBufferSink, Tracer
from repro.obs.recovery_profile import format_recovery_profile
from repro.sim import Simulator, WorkloadSpec
from repro.storage import make_page

RECOVERY_CLASSES = ("page-force-rda", "page-noforce-rda",
                    "record-force-rda", "record-noforce-rda")


def make_db(name, tracer, shards=1):
    config = preset(name, group_size=4, num_groups=16, buffer_capacity=12)
    if shards > 1:
        return ShardedDatabase(config, shards=shards, tracer=tracer)
    return Database(config, tracer=tracer)


def run_with_crashes(name, shards=1, transactions=30, crash_every=10):
    tracer = Tracer(RingBufferSink())
    db = make_db(name, tracer, shards=shards)
    spec = WorkloadSpec(concurrency=3, pages_per_txn=3)
    simulator = Simulator(db, spec, seed=1)
    if simulator.record_mode:
        simulator.seed_records()
    report = simulator.run(transactions, crash_every=crash_every)
    return report, simulator


class TestObserverMode:
    """RecoveryProfile driven purely by the event stream."""

    def test_cycle_opens_on_crash_and_closes_on_restart_end(self):
        tracer = Tracer(RingBufferSink())
        db = make_db("page-force-rda", tracer)
        profile = RecoveryProfile(recovery_class="x").attach(tracer)
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.crash()
        assert profile.crashes == 0          # cycle still open
        db.recover()
        assert profile.crashes == 1
        doc = profile.to_dict()
        assert doc["recovery_class"] == "x"
        cycle = doc["cycles"][0]
        assert cycle["mttr_ms"] is not None and cycle["mttr_ms"] >= 0
        assert "analysis" in cycle["phases"]

    def test_phase_rows_carry_transfer_split(self):
        tracer = Tracer(RingBufferSink())
        db = make_db("page-noforce-rda", tracer)
        profile = RecoveryProfile().attach(tracer)
        t = db.begin()
        db.write_page(t, 0, make_page(b"y"))
        db.commit(t)
        db.crash()
        db.recover()
        phases = profile.to_dict()["phases"]
        for row in phases.values():
            assert row["transfers"] == (row["page_transfers"]
                                        + row["log_transfers"])
            assert row["transfers"] == row["reads"] + row["writes"]
        # ¬FORCE redo replays the committed write from the log: the
        # phase must show log reads, split out from page transfers
        assert phases["redo"]["log_transfers"] > 0

    def test_restore_row_carries_the_group_writes(self):
        """Three redone pages in one parity group: the restore phase
        row is that group's one write, 2·3 + 1 transfers — the three
        base reads made before the group body (they decide what is
        written) and the four writes inside it.  Re-pinned by PR 23:
        the twin read (the event's one read, the row's fourth) is the
        crash scan's."""
        sink = RingBufferSink()
        tracer = Tracer(sink)
        db = make_db("page-noforce-rda", tracer)
        profile = RecoveryProfile().attach(tracer)
        t = db.begin()
        for page in db.array.geometry.group_pages(1)[:3]:
            db.write_page(t, page, make_page(b"y%d" % page))
        db.commit(t)
        db.crash()
        db.recover()
        (group_write,) = [event["attrs"] for event in sink.events()
                          if event["name"] == "array.group_write"]
        restore = profile.to_dict()["phases"]["restore"]
        assert restore["work"] == {"pages": 3}
        assert (restore["reads"], restore["writes"]) == (3, 4)
        assert (group_write["reads"], group_write["writes"]) == (0, 4)
        assert group_write["buffered_pages"] == group_write["pages"] == 3
        assert group_write["parity_in_hand"] == 1

    def test_an_interrupted_restart_does_not_close_the_cycle(self):
        """A restart the fault seam kills is not the ready point: its
        span carries ``error``, the cycle stays open through the second
        crash, and MTTR runs from the first crash to the end of the
        restart that completes."""
        class MidRecoveryCrash(Exception):
            pass

        def die(label):
            raise MidRecoveryCrash(label)

        sink = RingBufferSink()
        tracer = Tracer(sink)
        db = make_db("page-noforce-rda", tracer)
        profile = RecoveryProfile().attach(tracer)
        t = db.begin()
        db.write_page(t, 0, make_page(b"y"))
        db.commit(t)
        db.crash()
        with pytest.raises(MidRecoveryCrash):
            db.recover(fault_hook=die)
        assert profile.crashes == 0          # still down
        db.crash()
        db.recover()
        assert profile.crashes == 1
        crash, *_ = [e for e in sink.events() if e["name"] == "db.crash"]
        died, done = [e for e in sink.events()
                      if e["name"] == "recovery.restart"]
        assert died["attrs"]["error"] == "MidRecoveryCrash"
        assert "error" not in done["attrs"]
        (cycle,) = profile.to_dict()["cycles"]
        assert cycle["mttr_ms"] == pytest.approx(
            (done["ts"] - crash["ts"]) * 1e3, abs=1e-3)
        assert cycle["restart_ms"] == pytest.approx(
            died["attrs"]["dur_ms"] + done["attrs"]["dur_ms"], abs=1e-3)
        assert cycle["phases"]["analysis"]["count"] == 2

    def test_sharded_restarts_do_not_close_cycle_early(self):
        tracer = Tracer(RingBufferSink())
        db = make_db("page-force-rda", tracer, shards=2)
        profile = RecoveryProfile().attach(tracer)
        t = db.begin()
        db.write_page(t, 0, make_page(b"z"))
        db.write_page(t, 1, make_page(b"z"))
        db.commit(t)
        db.crash()
        db.recover()
        # one facade-level cycle, not one per shard restart
        assert profile.crashes == 1
        doc = profile.to_dict()
        assert set(doc["shards"]) == {"0", "1"}


class TestExplicitMarks:
    def test_marks_measure_mttr_with_injected_clock(self):
        ticks = iter([10.0, 10.5])
        profile = RecoveryProfile(clock=lambda: next(ticks))
        profile.begin_cycle()
        profile.end_cycle({"page_transfers": 7, "winners": [1], "losers": []})
        (cycle,) = profile.to_dict()["cycles"]
        assert cycle["mttr_ms"] == pytest.approx(500.0)
        assert cycle["stats"]["page_transfers"] == 7
        assert cycle["stats"]["winners"] == 1

    def test_availability_ratio(self):
        ticks = iter([0.0, 0.25])
        profile = RecoveryProfile(clock=lambda: next(ticks))
        profile.begin_cycle()
        profile.end_cycle()
        profile.finalize(run_wall_ms=1000.0)
        doc = profile.to_dict()
        assert doc["availability"] == pytest.approx(0.75)
        assert doc["mttr_ms"]["mean"] == pytest.approx(250.0)

    def test_finalize_closes_dangling_cycle(self):
        profile = RecoveryProfile()
        profile.begin_cycle()
        profile.finalize()
        assert profile.crashes == 1


class TestSimulatorWiring:
    """Acceptance: per-phase breakdown and MTTR for all four recovery
    classes, on single-engine and sharded databases."""

    @pytest.mark.parametrize("name", RECOVERY_CLASSES)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_profile_reports_phases_and_mttr(self, name, shards):
        report, simulator = run_with_crashes(name, shards=shards)
        profile = report.extra["recovery_profile"]
        assert profile["crashes"] == report.crashes > 0
        assert profile["recovery_class"] == \
            simulator.db.config.algorithm_name
        assert profile["mttr_ms"]["mean"] > 0
        assert profile["mttr_ms"]["max"] >= profile["mttr_ms"]["mean"]
        assert len(profile["mttr_ms"]["per_cycle"]) == profile["crashes"]
        assert 0.0 <= profile["availability"] <= 1.0
        phases = profile["phases"]
        assert "analysis" in phases
        # the class's signature phase appears with wall time accounted
        signature = ("redo" if "noforce" in name else
                     "parity_undo" if "rda" in name else "undo")
        assert signature in phases
        for row in phases.values():
            assert row["count"] > 0
            assert row["wall_ms"] >= 0
        if shards > 1:
            assert set(profile["shards"]) == \
                {str(i) for i in range(shards)}

    def test_untraced_run_has_no_profile(self):
        db = make_db("page-force-rda", None)
        simulator = Simulator(db, WorkloadSpec(concurrency=2,
                                               pages_per_txn=3), seed=1)
        report = simulator.run(20, crash_every=10)
        assert simulator.profile is None
        assert "recovery_profile" not in report.extra

    def test_crashless_run_has_no_profile_entry(self):
        tracer = Tracer(RingBufferSink())
        db = make_db("page-force-rda", tracer)
        simulator = Simulator(db, WorkloadSpec(concurrency=2,
                                               pages_per_txn=3), seed=1)
        report = simulator.run(10)
        assert "recovery_profile" not in report.extra


class TestFormatting:
    def test_format_lists_phases(self):
        report, _ = run_with_crashes("page-noforce-rda")
        text = format_recovery_profile(report.extra["recovery_profile"])
        assert "MTTR mean" in text
        assert "availability" in text
        assert "analysis" in text
        assert "redo" in text

    def test_format_puts_the_scrubbed_groups_on_the_parity_row(self):
        report, _ = run_with_crashes("page-noforce-rda")
        profile = report.extra["recovery_profile"]
        scrubbed = sum(cycle["stats"]["groups_scrubbed"]
                       for cycle in profile["cycles"])
        assert scrubbed > 0
        rows = [line.split() for line
                in format_recovery_profile(profile).splitlines()]
        (parity,) = [row for row in rows if row[0] == "parity_undo"]
        assert f"groups_scrubbed={scrubbed}" in parity[-1].split(",")
        assert all("groups_scrubbed" not in row[-1] for row in rows
                   if row[0] != "parity_undo")
