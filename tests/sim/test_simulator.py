"""Tests for the simulation driver, under crashes and media failures."""

import pytest

from repro.check import verify_database
from repro.db import Database, preset
from repro.sim import SimulationReport, Simulator, WorkloadSpec, run_workload


def make_db(name, **kw):
    defaults = dict(group_size=5, num_groups=12, buffer_capacity=20)
    defaults.update(kw)
    return Database(preset(name, **defaults))


SPEC = WorkloadSpec(concurrency=4, pages_per_txn=5, communality=0.6,
                    abort_probability=0.1)


class TestSimulatorBasics:
    @pytest.mark.parametrize("name", ["page-force-rda", "page-force-log",
                                      "page-noforce-rda", "page-noforce-log"])
    def test_runs_to_completion(self, name):
        db = make_db(name, checkpoint_interval=None)
        report = run_workload(db, SPEC, transactions=60, seed=1)
        assert report.transactions >= 60
        assert report.committed > 0
        assert report.page_transfers > 0
        assert db.verify_parity() == []

    def test_deterministic(self):
        a = run_workload(make_db("page-force-rda"), SPEC, 40, seed=5)
        b = run_workload(make_db("page-force-rda"), SPEC, 40, seed=5)
        assert a.committed == b.committed
        assert a.page_transfers == b.page_transfers

    def test_abort_probability_drives_aborts(self):
        spec = WorkloadSpec(concurrency=2, pages_per_txn=4,
                            update_txn_fraction=1.0, abort_probability=0.5)
        report = run_workload(make_db("page-force-rda"), spec, 60, seed=2)
        assert report.aborted >= 10

    def test_throughput_definition(self):
        report = SimulationReport(committed=10, page_transfers=1000)
        assert report.throughput(interval=100_000) == 1000.0
        assert report.cost_per_transaction() == 100.0

    def test_rda_logs_fewer_before_images(self):
        rda = run_workload(make_db("page-force-rda"), SPEC, 60, seed=3)
        log = run_workload(make_db("page-force-log"), SPEC, 60, seed=3)
        assert rda.extra["before_images_logged"] < \
            log.extra["before_images_logged"]
        assert rda.unlogged_steal_fraction > 0.5
        assert log.unlogged_steal_fraction == 0.0

    def test_checkpoints_fire(self):
        db = make_db("page-noforce-rda", checkpoint_interval=40)
        report = run_workload(db, SPEC, 50, seed=4)
        assert report.checkpoints >= 1


class TestRecordModeDriving:
    @pytest.mark.parametrize("name", ["record-force-rda", "record-noforce-log"])
    def test_record_mode_runs(self, name):
        db = make_db(name, checkpoint_interval=300)
        sim = Simulator(db, SPEC, seed=2)
        assert sim.record_mode
        sim.seed_records()
        report = sim.run(40)
        assert report.committed > 0
        assert db.verify_parity() == []

    def test_record_mode_crash_cycle(self):
        db = make_db("record-noforce-rda", checkpoint_interval=200)
        sim = Simulator(db, SPEC, seed=3)
        sim.seed_records()
        report = sim.run(40, crash_every=15)
        assert report.crashes >= 1
        assert db.verify_parity() == []

    def test_page_mode_flag_off(self):
        assert not Simulator(make_db("page-force-rda"), SPEC).record_mode


class TestCrashDuringLoad:
    @pytest.mark.parametrize("name", ["page-force-rda", "page-noforce-rda",
                                      "page-force-log", "page-noforce-log"])
    def test_crash_every_n(self, name):
        db = make_db(name, checkpoint_interval=100)
        report = run_workload(db, SPEC, 60, seed=6, crash_every=20)
        assert report.crashes >= 2
        assert db.verify_parity() == []

    def test_crash_campaign_clean(self):
        db = make_db("page-noforce-rda", checkpoint_interval=80)
        sim = Simulator(db, SPEC, seed=7)
        for cycle in range(3):
            sim.run(sim.report.transactions + 20)
            db.crash()
            db.recover()
            assert verify_database(db) == [], cycle

    def test_media_campaign_every_disk(self):
        db = make_db("page-force-rda")
        reports = fail_every_disk(db, seed=8)
        assert len(reports) == len(db.array.disks)
        assert sum(report.slots_rebuilt for report in reports) > 0

    def test_media_campaign_baseline_array(self):
        db = make_db("page-force-log")
        slots = fail_every_disk(db, seed=9)
        assert len(slots) == len(db.array.disks)
        assert all(rebuilt > 0 for rebuilt in slots)


def fail_every_disk(db, seed):
    """Fail and rebuild each disk in turn under load, verifying the
    whole database after every rebuild.  A dirty group whose committed
    twin was lost adopts the on-disk state.  Returns the rebuild
    reports."""
    sim = Simulator(db, SPEC, seed=seed)
    reports = []
    for disk_id in range(len(db.array.disks)):
        sim.run(sim.report.transactions + 8)
        db.media_failure(disk_id)
        reports.append(db.media_recover(disk_id, on_lost_undo="adopt"))
        assert verify_database(db) == [], disk_id
    return reports


class TestMeasuredShape:
    """The simulator's qualitative agreement with the paper."""

    def test_rda_beats_baseline_force(self):
        spec = WorkloadSpec(concurrency=4, pages_per_txn=8,
                            update_txn_fraction=0.8, update_probability=0.9,
                            communality=0.7, abort_probability=0.01)
        rda = run_workload(make_db("page-force-rda", num_groups=20), spec,
                           100, seed=11)
        log = run_workload(make_db("page-force-log", num_groups=20), spec,
                           100, seed=11)
        assert rda.throughput() > log.throughput()

    def test_noforce_beats_force(self):
        rda_force = run_workload(make_db("page-force-rda"), SPEC, 80, seed=12)
        rda_lazy = run_workload(
            make_db("page-noforce-rda", checkpoint_interval=500), SPEC, 80,
            seed=12)
        assert rda_lazy.throughput() > rda_force.throughput()
