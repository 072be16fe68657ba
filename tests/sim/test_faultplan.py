"""Tests for the exhaustive crash-point fault-injection harness."""

import json

import pytest

from repro.cli import main
from repro.check import Violation
from repro.db import Database, preset
from repro.sim import (FaultPlan, FaultSweepReport, fault_workload,
                       record_fault_setup, record_schedule, run_plan,
                       run_sweep)
from repro.storage import make_page

SIZES = dict(group_size=4, num_groups=8, buffer_capacity=16)


def factory(name="page-force-rda"):
    return lambda: Database(preset(name, **SIZES))


@pytest.fixture
def ops():
    return fault_workload(transactions=2, group_size=4)


class TestScriptBuilder:
    """The CLI's three script shapes — page writes, record updates, and
    single-shard transactions for a K-way engine — are the op lists the
    three builders the one replaced returned."""

    def test_page_script(self):
        assert fault_workload(transactions=3, group_size=4) == [
            ("begin", 0), ("write", 0, 0, 1), ("write", 0, 4, 1),
            ("write", 0, 0, 2), ("commit", 0),
            ("begin", 1), ("write", 1, 8, 1), ("write", 1, 12, 1),
            ("write", 1, 8, 2), ("write", 1, 0, 3), ("commit", 1),
            ("begin", 2), ("write", 2, 16, 1), ("write", 2, 20, 1),
            ("write", 2, 16, 2), ("write", 2, 8, 4), ("abort", 2)]

    def test_record_script_updates_the_same_pages(self):
        pages = fault_workload(transactions=3, group_size=4)
        records = fault_workload(transactions=3, group_size=4, op="update")
        assert records == [("update", *op[1:]) if op[0] == "write" else op
                           for op in pages]

    def test_sharded_script(self):
        assert fault_workload(transactions=4, group_size=4, shards=2) == [
            ("begin", 0), ("write", 0, 0, 1), ("write", 0, 8, 1),
            ("write", 0, 0, 2), ("commit", 0),
            ("begin", 1), ("write", 1, 1, 1), ("write", 1, 9, 1),
            ("write", 1, 1, 2), ("commit", 1),
            ("begin", 2), ("write", 2, 16, 1), ("write", 2, 24, 1),
            ("write", 2, 16, 2), ("write", 2, 0, 4), ("abort", 2),
            ("begin", 3), ("write", 3, 17, 1), ("write", 3, 25, 1),
            ("write", 3, 17, 2), ("write", 3, 1, 5), ("commit", 3)]


class TestSchedule:
    def test_records_every_write(self, ops):
        schedule = record_schedule(factory(), ops)
        assert schedule, "workload produced no writes"
        assert [w.index for w in schedule] == list(range(len(schedule)))
        kinds = {w.kind for w in schedule}
        assert kinds == {"data", "log"}, "both I/O classes must appear"

    def test_recording_is_deterministic(self, ops):
        first = record_schedule(factory(), ops)
        second = record_schedule(factory(), ops)
        assert first == second

    def test_log_devices_have_negative_ids(self, ops):
        schedule = record_schedule(factory(), ops)
        assert all(w.device < 0 for w in schedule if w.kind == "log")
        assert all(w.device >= 0 for w in schedule if w.kind == "data")


class TestFaultPlan:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            FaultPlan(0, mode="gamma-ray")

    def test_clean_crash_before_any_commit_recovers_empty(self, ops):
        outcome = run_plan(factory(), ops, FaultPlan(0, "clean"))
        assert outcome.outcome == "recovered"
        assert outcome.winners == []

    def test_clean_crash_after_everything_keeps_all_commits(self, ops):
        outcome = run_plan(factory(), ops, FaultPlan(10 ** 6, "clean"))
        assert outcome.outcome == "recovered"
        assert outcome.winners == [0, 1]

    @pytest.mark.parametrize("op", ["write", "update"])
    def test_reference_oracle_flags_a_page_planted_after_restart(self, op):
        """Restart succeeds, then a transaction outside the script
        commits a wrong value onto a page the winners wrote: the state
        stays structurally consistent, so only the reference database
        can object."""
        ops = fault_workload(transactions=2, group_size=4, op=op)
        name = "record-force-rda" if op == "update" else "page-force-rda"

        def make_db():
            db = factory(name)()
            recover = db.recover

            def recover_then_plant():
                stats = recover()
                txn = db.begin()
                if op == "update":
                    db.update_record(txn, 0, 0, b"planted")
                else:
                    db.write_page(txn, 0, make_page(b"planted"))
                db.commit(txn)
                return stats

            db.recover = recover_then_plant
            return db

        setup = record_fault_setup(ops) if op == "update" else None
        outcome = run_plan(make_db, ops, FaultPlan(10 ** 6, "clean"),
                           setup=setup)
        assert outcome.winners == [0, 1]
        assert outcome.outcome == "violation"
        assert [v.kind for v in outcome.violations] == ["state-divergence"]


class TestSweep:
    """The acceptance criterion: every crash point of the 2-transaction
    workload, plus a torn and a latent variant of each, recovers to the
    committed-state oracle."""

    @pytest.mark.parametrize("name", ["page-force-rda", "page-noforce-rda"])
    def test_rda_sweep_all_recovered(self, name, ops):
        report = run_sweep(factory(name), ops)
        assert len(report.results) == 3 * len(report.schedule)
        assert report.clean, [str(v) for v in report.violations]
        assert report.counts["recovered"] == len(report.results)

    @pytest.mark.parametrize("name", ["page-force-log", "page-noforce-log"])
    def test_wal_baseline_sweep_clean(self, name, ops):
        """Regression for the RAID write hole: a crash between a
        small-write's data and parity transfers must be resynced at
        restart, not left as silent parity corruption."""
        report = run_sweep(factory(name), ops)
        assert report.clean, [str(v) for v in report.violations]

    @pytest.mark.parametrize("name, group_size, buffer", [
        ("record-force-rda", 4, 2), ("record-noforce-rda", 4, 2),
        ("record-noforce-rda-redo", 4, 2), ("record-force-log", 2, 2),
        ("record-force-log", 2, 3)])
    def test_record_sweep_at_the_smallest_buffers(self, name, group_size,
                                                  buffer):
        """Record updates with an abort at two or three frames: the
        rollback corrects its resident frames before it fetches, so no
        eviction steals them; and at two-page groups, where a
        reconstruct-write never reads the old bytes, the rollback's
        flush of a page it never stole names no unnamed change."""
        ops = fault_workload(transactions=5, group_size=group_size,
                             op="update")
        report = run_sweep(
            lambda: Database(preset(name, group_size=group_size,
                                    num_groups=12, buffer_capacity=buffer)),
            ops, setup=record_fault_setup(ops))
        assert report.clean, report.violations_by_kind()

    def test_report_json_round_trip(self, ops):
        report = run_sweep(factory(), ops, modes=("clean",))
        data = json.loads(report.to_json())
        assert data["clean"] is True
        assert data["write_count"] == len(report.schedule)
        assert len(data["runs"]) == len(report.schedule)
        assert data["counts"]["recovered"] == len(report.schedule)
        assert {run["mode"] for run in data["runs"]} == {"clean"}

    def test_sweep_rejects_unknown_mode(self, ops):
        with pytest.raises(ValueError):
            run_sweep(factory(), ops, modes=("clean", "bogus"))

    def test_tracer_gets_one_event_per_schedule(self, ops):
        from repro.obs.tracer import RingBufferSink, Tracer

        sink = RingBufferSink()
        report = run_sweep(factory(), ops, modes=("clean",),
                           tracer=Tracer(sink))
        events = [e for e in sink.events()
                  if e["name"] == "faultplan.crash_point"]
        assert len(events) == len(report.results)
        assert all(e["attrs"]["outcome"] == "recovered" for e in events)


class TestViolationTuples:
    def test_fields_and_str(self):
        violation = Violation("durability", "transaction 1 vanished")
        assert violation.kind == "durability"
        assert violation.detail == "transaction 1 vanished"
        assert str(violation) == "durability: transaction 1 vanished"

    def test_report_counts_by_kind(self):
        report = FaultSweepReport()
        assert report.clean
        assert report.violations_by_kind() == {}


class TestCli:
    def test_fault_sweep_smoke(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(["simulate", "--fault-sweep", "--fault-transactions", "2",
                   "--group-size", "4", "--num-groups", "8", "--buffer", "16",
                   "--fault-modes", "clean", "--fault-report", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["clean"] is True
        assert "0 violations" in capsys.readouterr().out

    def test_fault_sweep_runs_record_mode(self, capsys):
        # the record fault workload (with its seeding setup) sweeps a
        # record-logging preset
        rc = main(["simulate", "--fault-sweep",
                   "--preset", "record-force-rda"])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_fault_sweep_refuses_a_pure_redo_pool_below_a_transaction(
            self, capsys):
        """The pure REDO-only class never steals: a pool smaller than
        the pages one transaction of the script holds is refused up
        front, in one line naming the class and the bound, rather than
        dying of a full buffer mid-schedule."""
        argv = ["simulate", "--preset", "page-noforce-redo", "--fault-sweep",
                "--fault-transactions", "5", "--group-size", "2",
                "--num-groups", "12"]
        assert main(argv + ["--buffer", "2"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert "REDO-only never steals" in lines[0]
        assert "the 3 pages one transaction" in lines[0]
        assert "(have 2)" in lines[0]
        assert main(argv + ["--buffer", "3", "--fault-modes", "clean"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_fault_sweep_runs_record_mode_on_shards(self, capsys):
        # each transaction of the K-shard script updates records of one
        # shard only, as its page writes do
        rc = main(["simulate", "--fault-sweep", "--preset",
                   "record-noforce-rda", "--shards", "2", "--buffer", "2",
                   "--num-groups", "12"])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out
