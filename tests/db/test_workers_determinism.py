"""The differential worker tier: worker-process sharding must be
*byte-identical* to the in-process engine.

The worker facade replaces direct method calls with a pipe protocol,
one OS process per shard, and scatter-gather dispatch — three brand-new
machineries that must not change a single observable bit.  These tests
run the same seeded workload through :class:`ShardedDatabase` and
:class:`WorkerShardedDatabase` and compare the full
``SimulationReport`` JSON and the recorded operation history, across
all four RDA recovery classes, K ∈ {1, 2, 4}, with and without crash
cycles, plus the conformance harness end to end.
"""

import dataclasses
import json

import pytest

from repro.check import HistoryRecorder, run_conformance, verify_database
from repro.db import (ShardedDatabase, WorkerShardedDatabase, make_sharded,
                      preset)
from repro.sim import Simulator, WorkloadSpec
from repro.storage.page import make_page

RDA_PRESETS = ("page-force-rda", "page-noforce-rda",
               "record-force-rda", "record-noforce-rda")

REDO_PRESETS = ("page-noforce-redo", "record-noforce-rda-redo")

SPEC = WorkloadSpec(concurrency=4, pages_per_txn=5,
                    update_txn_fraction=0.8, update_probability=0.9,
                    abort_probability=0.05, communality=0.6)

OVERRIDES = dict(group_size=5, num_groups=12, buffer_capacity=16)


def one_run(cls, name, shards, seed=11, crash_every=None, transactions=30,
            flush_horizon=4):
    recorder = HistoryRecorder()
    db = cls(preset(name, **OVERRIDES), shards=shards,
             flush_horizon=flush_horizon, history=recorder)
    try:
        simulator = Simulator(db, SPEC, seed=seed)
        if db.config.record_logging:
            simulator.seed_records()
        report = simulator.run(transactions, crash_every=crash_every)
        problems = verify_database(db)
        stats = db.statistics()
    finally:
        if hasattr(db, "close"):
            db.close()
    report_json = json.dumps(dataclasses.asdict(report), sort_keys=True)
    return report_json, recorder.history.to_json(), problems, stats


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("name", RDA_PRESETS)
def test_worker_mode_byte_identical_clean(name, shards):
    """Clean runs: report + history byte-identical for every RDA class."""
    inproc = one_run(ShardedDatabase, name, shards)
    worker = one_run(WorkerShardedDatabase, name, shards)
    assert inproc[0] == worker[0], "SimulationReport diverged"
    assert inproc[1] == worker[1], "recorded history diverged"
    assert inproc[2] == worker[2] == []


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("name", RDA_PRESETS)
def test_worker_mode_byte_identical_with_crashes(name, shards):
    """Crash cycles exercise the coordinator drain, the parallel
    restart fan-out, and the global-winner cross-check."""
    inproc = one_run(ShardedDatabase, name, shards, crash_every=7)
    worker = one_run(WorkerShardedDatabase, name, shards, crash_every=7)
    assert inproc[0] == worker[0], "SimulationReport diverged"
    assert inproc[1] == worker[1], "recorded history diverged"
    assert inproc[2] == worker[2] == []


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("name", REDO_PRESETS)
def test_worker_mode_byte_identical_redo_class(name, shards):
    """The REDO-only class in worker mode: the write-behind gate, the
    chain-replay restart, and the hybrid's un-steal must all behave
    bit-for-bit like the in-process engine, clean and across crashes."""
    for crash_every in (None, 7):
        inproc = one_run(ShardedDatabase, name, shards,
                         crash_every=crash_every)
        worker = one_run(WorkerShardedDatabase, name, shards,
                         crash_every=crash_every)
        assert inproc[0] == worker[0], "SimulationReport diverged"
        assert inproc[1] == worker[1], "recorded history diverged"
        assert inproc[2] == worker[2] == []


def test_redo_only_writes_under_buffer_pressure_match_in_process():
    """REDO-only's write-behind gate can refuse a frame with
    ``BufferFullError`` — an error the writer sees at that call, as under
    NO-STEAL — so a REDO-only write must never go one-way: a worker
    would hold the error until the transaction's next call, and the run
    would stall (and transfer) differently from in-process."""
    spec = WorkloadSpec(concurrency=6, pages_per_txn=8,
                        update_txn_fraction=0.9, update_probability=0.9,
                        abort_probability=0, communality=0.3)
    config = preset("page-noforce-redo", group_size=4, num_groups=8,
                    buffer_capacity=12, checkpoint_interval=200)
    reports = []
    for cls in (ShardedDatabase, WorkerShardedDatabase):
        db = cls(config, shards=2)
        try:
            reports.append(Simulator(db, spec, seed=3).run(200))
        finally:
            if hasattr(db, "close"):
                db.close()
    inproc, worker = reports
    assert inproc.extra["buffer_stalls"] > 0, "the gate must refuse frames"
    assert dataclasses.asdict(worker) == dataclasses.asdict(inproc)


def test_worker_conformance_hybrid_cell_clean():
    """The extended matrix's hybrid K=2 cell, worker-process edition."""
    inproc = run_conformance("record-noforce-rda-redo", transactions=20,
                             seed=3, crash_every=8, shards=2,
                             flush_horizon=4)
    worker = run_conformance("record-noforce-rda-redo", transactions=20,
                             seed=3, crash_every=8, shards=2,
                             flush_horizon=4, workers=True)
    assert worker.clean, [str(v) for v in worker.violations[:3]]
    assert worker.to_dict() == inproc.to_dict()


def test_worker_statistics_match_in_process():
    """The monitoring snapshot agrees key for key (modulo the worker
    extras, which only the worker facade reports)."""
    inproc = one_run(ShardedDatabase, "page-noforce-rda", 2, crash_every=9)
    worker = one_run(WorkerShardedDatabase, "page-noforce-rda", 2,
                     crash_every=9)
    for key, value in inproc[3].items():
        assert worker[3][key] == value, f"statistics[{key!r}] diverged"
    assert worker[3]["workers"] is True
    assert worker[3]["worker_deaths"] == 0


def _views_in_flight(cls):
    """Every facade view, read while transactions are in flight."""
    db = cls(preset("page-noforce-rda", group_size=5, num_groups=12,
                    buffer_capacity=6, checkpoint_interval=50),
             shards=2, flush_horizon=4)
    try:
        done = db.begin()
        db.write_page(done, 3, make_page(b"done"))
        db.commit(done)
        writer, reader, idle = db.begin(), db.begin(), db.begin()
        for page in range(10, 24):          # past both shards' buffers
            db.write_page(writer, page, make_page(b"w%d" % page))
        db.read_page(reader, 3)
        stats, buffer, counters = db.stats, db.buffer.stats, db.counters
        seen = {
            "txns": {txn: (view.is_active, view.state, view.must_commit,
                           view.is_update_transaction)
                     for txn in (done, writer, reader, idle)
                     for view in [db.txns.get(txn)]},
            "active": [view.txn_id
                       for view in db.txns.active_transactions()],
            "buffered": [page in db.buffer for page in range(30)],
            "resident": db.buffer.resident_pages(),
            "stats": (stats.reads, stats.writes, stats.total,
                      stats.log_transfers, stats.snapshot()),
            "buffer.stats": (buffer.hits, buffer.misses, buffer.evictions,
                             buffer.dirty_evictions, buffer.steals,
                             buffer.references, buffer.hit_ratio),
            "counters": (counters.unlogged_steals, counters.logged_steals,
                         counters.committed_writebacks,
                         counters.before_images_logged, counters.promotions,
                         counters.transactions_committed,
                         counters.transactions_aborted, counters.steals,
                         counters.unlogged_fraction),
            "statistics": {key: value
                           for key, value in db.statistics().items()
                           if key not in ("workers", "worker_deaths")},
        }
        checkpointer = db.checkpointer
        seen["checkpointer"] = (checkpointer.maybe_checkpoint(),
                                checkpointer.note_work(60),
                                checkpointer.maybe_checkpoint(),
                                checkpointer.checkpoint())
        seen["after checkpoint"] = (stats.total, buffer.steals,
                                    db.buffer.resident_pages())
    finally:
        if hasattr(db, "close"):
            db.close()
    return seen


def test_worker_views_match_in_process_mid_run():
    """The views agree while transactions are in flight, not only in
    the end-of-run statistics: transaction flags, the active list,
    buffer membership, every stats/buffer.stats/counters attribute and
    the checkpointer facade's return values."""
    inproc = _views_in_flight(ShardedDatabase)
    worker = _views_in_flight(WorkerShardedDatabase)
    assert inproc["counters"][7] > 0, "the scenario must steal pages"
    assert inproc["checkpointer"][2] is not None
    for key, value in inproc.items():
        assert worker[key] == value, f"{key} diverged"


@pytest.mark.parametrize("name", RDA_PRESETS)
def test_worker_conformance_cell_clean(name):
    """`repro check --shards` equivalent: the conformance harness (lock
    oracle, differential mirror, invariant barriers, final-state sweep)
    judges worker mode clean, and produces the same verdict payload as
    the in-process cell."""
    inproc = run_conformance(name, transactions=20, seed=3, crash_every=8,
                             shards=2, flush_horizon=4)
    worker = run_conformance(name, transactions=20, seed=3, crash_every=8,
                             shards=2, flush_horizon=4, workers=True)
    assert worker.clean, [str(v) for v in worker.violations[:3]]
    assert worker.to_dict() == inproc.to_dict()


def test_make_sharded_selects_engine(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    config = preset("page-force-rda", **OVERRIDES)
    db = make_sharded(config, shards=2)
    assert type(db) is ShardedDatabase
    monkeypatch.setenv("REPRO_WORKERS", "on")
    db = make_sharded(config, shards=2)
    try:
        assert type(db) is WorkerShardedDatabase
    finally:
        db.close()
    db = make_sharded(config, shards=2, workers=False)
    assert type(db) is ShardedDatabase
