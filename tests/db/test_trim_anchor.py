"""A trim drops commit records a stale WORKING twin header's verdict
once needed; the anchor answers instead.

Commit is a main-memory twin flip, so a committed steal's WORKING header
stays on disk until its group is written again, and a trim leaves it
there.  Every class anchors — ¬FORCE at its last ACC checkpoint, FORCE
at the checkpoint record its trim appends — and no trim drops the anchor
the durable log pages carry, so a restart after any trim finds the
owner below the anchor's next-id ceiling and absent from its table: it
finished before the anchor, and since an abort demotes its twin, it
committed.  Judged on the five twin classes at K = 1 and K = 2: every
crash point of a fault script that trims after each abort, and a crash
right after a trim with no log write since.
"""

import pytest

from repro.check import verify_database
from repro.db import Database, make_sharded, preset
from repro.sim import (Simulator, WorkloadSpec, fault_workload,
                       record_fault_setup, run_sweep)
from repro.storage import TwinState, make_page
from repro.wal import BOTRecord, CommitRecord

TWIN_PRESETS = ["page-force-rda", "page-noforce-rda", "record-force-rda",
                "record-noforce-rda", "record-noforce-rda-redo"]
NO_ARCHIVE = 1 << 62
CELLS = pytest.mark.parametrize("shards", [1, 2], ids=["k1", "k2"])
CLASSES = pytest.mark.parametrize("name", TWIN_PRESETS)


def build(name: str, shards: int, **overrides):
    config = preset(name, group_size=4, **overrides)
    if shards == 1:
        return Database(config)
    return make_sharded(config, shards=shards, flush_horizon=2,
                        workers=False)


def trimming_workload(transactions: int, shards: int, op: str) -> list:
    """:func:`~repro.sim.fault_workload` with a trim after each abort."""
    ops = []
    for step in fault_workload(transactions=transactions, group_size=4,
                               shards=shards, op=op):
        ops.append(step)
        if step[0] == "abort":
            ops.append(("trim",))
    return ops


@pytest.mark.parametrize("name, shards", [
    (name, 1) for name in TWIN_PRESETS] + [
    # the record-logging script routes record updates only single-shard
    # (the CLI sweeps those presets at --shards 1); the REDO-only hybrid
    # holds at K = 2 as it is
    ("page-force-rda", 2), ("page-noforce-rda", 2),
    ("record-noforce-rda-redo", 2)])
def test_every_crash_point_of_a_trimming_script_recovers(name, shards):
    """Five transactions, the third aborting and a trim after it, a
    checkpoint every six page writes under ¬FORCE: every crash point,
    clean, torn and latent, recovers to the committed state — the
    commits the trim dropped from the log included."""
    record = name.startswith("record")
    ops = trimming_workload(5, shards, "update" if record else "write")
    assert ("trim",) in ops
    report = run_sweep(
        lambda: build(name, shards, num_groups=12 * shards,
                      buffer_capacity=4, checkpoint_interval=6),
        ops, setup=record_fault_setup(ops) if record else None)
    assert report.clean, report.violations_by_kind()
    assert report.counts["recovered"] > 0


@pytest.mark.parametrize("name", ["page-force-rda", "page-force-log"])
def test_a_force_commit_before_the_anchor_is_no_loser(name):
    """FORCE's undo log keeps a finished transaction's BOT behind an
    older active one's, while its commit lies before the redo log's
    anchor: below the anchor's ceiling and not in its table, that BOT
    makes no loser, and the commit's twin-borne pages stay."""
    db = build(name, 1, num_groups=8, buffer_capacity=8)
    elder = db.begin()
    db.write_page(elder, 1, make_page(b"elder"))
    winner = db.begin()
    db.write_page(winner, 5, make_page(b"won"))
    db.commit(winner)
    db.trim_log()
    assert winner in db.undo_log.txn_ids(BOTRecord)
    assert winner not in db.redo_log.txn_ids(CommitRecord,
                                             db.redo_log.anchor)
    db.crash()
    stats = db.recover()
    assert stats["losers"] == [elder]
    assert stats["parity_undone_pages"] == 0
    assert db.committed_view(5) == make_page(b"won")
    assert verify_database(db) == []


@CELLS
@CLASSES
def test_a_crash_right_after_a_trim_trusts_the_committed_steal(name, shards):
    """A committed unlogged steal, a trim that leaves its commit record
    before the anchor — dropped, but for REDO-only's page chains — then
    a crash before any log write: the header is still WORKING, and the
    restart takes its owner for committed — no parity undo, the page
    reads as committed, and the judges are clean."""
    db = build(name, shards, num_groups=8, buffer_capacity=8)
    target = db.shards[0] if shards > 1 else db
    record = db.config.record_logging
    if record:
        Simulator(db, WorkloadSpec()).seed_records()
    if db.checkpointer is not None:
        db.checkpoint()         # the seed on disk: the steal is alone
    winner = db.begin()
    if record:
        db.update_record(winner, 0, 0, b"stolen")
    else:
        db.write_page(winner, 0, make_page(b"stolen"))
    target.buffer.flush_pages_of(winner)
    [group] = target.rda.dirty_set.groups_of(winner)
    working = target.rda.dirty_set.entry(group).working_twin
    db.commit(winner)
    if db.checkpointer is not None:
        db.checkpoint()
    db.trim_log(archive_floor=NO_ARCHIVE)
    log = target.redo_log
    assert winner not in log.txn_ids(CommitRecord, log.anchor)
    assert db.config.redo_only or winner not in log.txn_ids(CommitRecord)
    assert target.array.peek_twin(group, working)[1].state \
        is TwinState.WORKING
    db.crash()
    stats = db.recover()
    assert stats["parity_undone_pages"] == 0 and stats["losers"] == []
    if record:
        reader = db.begin()
        assert db.read_record(reader, 0, 0) == b"stolen"
        db.commit(reader)
    else:
        assert db.committed_view(0) == make_page(b"stolen")
    assert verify_database(db) == []
