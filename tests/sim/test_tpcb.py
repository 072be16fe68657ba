"""Tests for the TPC-B / DebitCredit workload."""

import pytest

from repro.check import verify_database
from repro.db import Database, preset
from repro.errors import ModelError
from repro.sim import TPCB, TPCBConfig


def make_tpcb(name="record-noforce-rda", seed=1, **kw):
    defaults = dict(group_size=5, num_groups=16, buffer_capacity=20,
                    checkpoint_interval=300)
    if "force" in name and "noforce" not in name:
        defaults.pop("checkpoint_interval")
    defaults.update(kw)
    db = Database(preset(name, **defaults))
    workload = TPCB(db, seed=seed)
    workload.setup()
    return db, workload


class TestSetup:
    def test_record_mode_required(self):
        db = Database(preset("page-force-rda"))
        with pytest.raises(ModelError):
            TPCB(db)

    def test_config_validation(self):
        with pytest.raises(ModelError):
            TPCBConfig(branches=0)
        with pytest.raises(ModelError):
            TPCBConfig(abort_probability=2.0)

    def test_initial_conservation(self):
        _, workload = make_tpcb()
        assert workload.conserved()
        totals = workload.totals()
        assert totals["accounts"] == 0

    def test_transaction_before_setup_rejected(self):
        db = Database(preset("record-force-rda", group_size=5, num_groups=16,
                             buffer_capacity=20))
        with pytest.raises(ModelError):
            TPCB(db).transaction()


class TestConservation:
    @pytest.mark.parametrize("name", ["record-force-rda", "record-force-log",
                                      "record-noforce-rda",
                                      "record-noforce-log"])
    def test_conserved_under_load(self, name):
        db, workload = make_tpcb(name)
        report = workload.run(40)
        assert report["committed"] > 0
        assert workload.conserved(), workload.totals()
        assert verify_database(db) == []

    def test_conserved_across_crashes(self):
        db, workload = make_tpcb("record-noforce-rda", seed=3)
        report = workload.run(45, crash_every=15)
        assert report["crashes"] == 3
        assert workload.conserved(), workload.totals()
        assert verify_database(db) == []

    def test_conserved_across_media_failure(self):
        db, workload = make_tpcb("record-force-rda", seed=4)
        workload.run(20)
        db.media_failure(2)
        db.media_recover(2, on_lost_undo="adopt")
        workload.run(10)
        assert workload.conserved(), workload.totals()

    def test_aborts_happen_and_preserve_money(self):
        db, workload = make_tpcb(seed=7)
        workload.config = TPCBConfig(abort_probability=0.5)
        workload.run(30)
        assert workload.aborted > 3
        assert workload.conserved()

    def test_deterministic_given_seed(self):
        _, a = make_tpcb(seed=11)
        _, b = make_tpcb(seed=11)
        a.run(25)
        b.run(25)
        assert a.totals() == b.totals()
