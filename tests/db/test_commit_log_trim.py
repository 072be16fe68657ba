"""History independence of the global commit log: it forgets when the
shards forget.  What ``recover()`` scans and what the log holds depend
on the commits since the last ``trim_log``, never on how many
transactions ran before it — the last O(history) restart structure
(``tests/txn/test_steady_state.py`` covers the per-shard ones).
Count-based; no wall clock."""

import pytest

from repro.db import (ShardedDatabase, WorkerShardedDatabase, preset,
                      verify_database)
from repro.sim.faultplan import (FaultInjector, run_sweep,
                                 shard_aligned_fault_workload)
from repro.storage import make_page
from repro.stress import NemesisProfile, StressOptions, StressRunner
from repro.wal import CommitRecord

NO_ARCHIVE = 1 << 62
CONFIG = preset("page-force-rda", group_size=4, num_groups=16,
                buffer_capacity=16)
TAIL = 5        # commits between the last trim and the restart


def run_segments(db, segments: int) -> None:
    pages = db.num_data_pages
    for n in range(segments * 50):
        txn = db.begin()
        db.write_page(txn, n % pages, make_page(b"v%d" % n))
        db.commit(txn)
        if n % 50 == 49:
            db.trim_log(archive_floor=NO_ARCHIVE)


def restart_footprint(cls, shards: int, segments: int) -> tuple:
    """(commit-log bytes after the last trim, commit-log bytes and
    records the restart scans, recovery verdict)."""
    db = cls(CONFIG, shards=shards, flush_horizon=4)
    try:
        run_segments(db, segments)
        trimmed_bytes = db.commit_log.size_bytes
        tail = []
        for n in range(TAIL):
            tail.append(db.begin())
            db.write_page(tail[-1], n, make_page(b"tail"))
            db.commit(tail[-1])
        db.crash()
        scanned = sum(1 for _ in db.commit_log.scan(CommitRecord))
        tail_bytes = db.commit_log.size_bytes
        winners = db.recover()["winners"]
        assert set(tail) <= set(winners)
        assert verify_database(db) == []
        for n in range(TAIL):
            assert db.committed_view(n) == make_page(b"tail")
        return trimmed_bytes, tail_bytes, scanned
    finally:
        if hasattr(db, "close"):
            db.close()


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("cls", [ShardedDatabase, WorkerShardedDatabase])
def test_commit_log_holds_only_commits_since_the_trim(cls, shards):
    footprints = {segments: restart_footprint(cls, shards, segments)
                  for segments in (1, 4, 16)}
    assert footprints[1] == footprints[4] == footprints[16]
    trimmed_bytes, tail_bytes, scanned = footprints[1]
    assert trimmed_bytes == 0
    assert tail_bytes > 0 and scanned == TAIL


def test_trim_log_counts_the_commit_log_records():
    """The return value is every record discarded — the shards' and the
    global commit log's."""
    db = ShardedDatabase(CONFIG, shards=2)
    for n in range(3):
        txn = db.begin()
        db.write_page(txn, n, make_page(b"x"))
        db.commit(txn)
    per_shard = sum(len(shard.undo_log.records())
                    + len(shard.redo_log.records()) for shard in db.shards)
    assert len(db.commit_log.records()) == 3
    assert db.trim_log(archive_floor=NO_ARCHIVE) == per_shard + 3
    assert db.commit_log.records() == []
    assert db.trim_log(archive_floor=NO_ARCHIVE) == 0


def test_fault_sweep_after_a_trim_still_covers_the_commit_log():
    """The fault injector lists the (emptied) commit log with the shard
    WALs, and every crash point of a script run on top of a trimmed
    engine recovers."""
    def make_db():
        return ShardedDatabase(CONFIG, shards=2, flush_horizon=2)

    def setup(db):
        for page in (60, 61, 62, 63):
            txn = db.begin()
            db.write_page(txn, page, make_page(b"old"))
            db.commit(txn)
        db.trim_log(archive_floor=NO_ARCHIVE)
        assert db.commit_log.size_bytes == 0

    db = make_db()
    assert db.commit_log in FaultInjector(db)._logs()
    ops = shard_aligned_fault_workload(2, transactions=3)
    report = run_sweep(make_db, ops, setup=setup)
    assert report.clean, report.violations[:3]
    # the commit log's two mirror copies are the last aliases handed out
    commit_log_aliases = {-9, -10}
    assert any(w.kind == "log" and w.device in commit_log_aliases
               for w in report.schedule)


@pytest.mark.parametrize("workers", [False, True])
def test_shard_kill_winner_set_survives_trims(workers):
    """``shard_kill`` reads the commit log right after a flush and
    checks its winners against the restarted shards' losers; with trims
    in the mix the set is smaller, never wrong."""
    profile = NemesisProfile(name="trim-and-kill",
                             weights={"trim": 1.0, "shard_kill": 1.0})
    report = StressRunner(StressOptions(
        preset="page-force-rda", shards=2, workers=workers, ops=96,
        seed=5, nemesis_profile=profile, baseline=False)).run()
    assert report.clean, report.violations[:3]
    assert report.injected_by_kind.get("trim", 0) > 0
    assert report.injected_by_kind.get("shard_kill", 0) > 0
