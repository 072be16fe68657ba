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
from repro.errors import InvalidTransactionState
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
    (name, shards) for shards in (1, 2) for name in TWIN_PRESETS])
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


PINNED = pytest.mark.parametrize("name", [
    "page-noforce-rda", "page-force-rda", "record-noforce-rda",
    "record-force-rda"])


def _anchor(db) -> None:
    """Take the class's restart anchor: an ACC checkpoint, or FORCE's
    trim."""
    if db.checkpointer is not None:
        db.checkpoint()
    else:
        db.trim_log()


def _write(db, txn: int, page: int, version: bytes) -> None:
    if db.config.record_logging:
        db.update_record(txn, page, 0, version)
    else:
        db.write_page(txn, page, make_page(version))


@PINNED
def test_an_anchor_spends_the_ids_under_its_ceiling(name):
    """An id under the anchor's next-id ceiling and outside its table
    finished before the anchor — that is how restart reads a WORKING
    header whose owner left no record since.  So once the anchor is
    taken no transaction may begin under it: pinning 7 after an anchor
    at ceiling 41 is refused, where before it began a transaction whose
    stolen page the restart then kept as committed."""
    db = build(name, 1, num_groups=4, buffer_capacity=2)
    if db.config.record_logging:
        Simulator(db, WorkloadSpec()).seed_records()
    elder = db.begin(txn_id=40)
    _write(db, elder, 0, b"elder")
    _anchor(db)
    with pytest.raises(InvalidTransactionState):
        db.begin(txn_id=7)
    late = db.begin()
    assert late == 41
    before = db.committed_view(5)
    _write(db, late, 5, b"lost")
    db.buffer.flush_page(5)
    db.crash()
    stats = db.recover()
    assert stats["losers"] == [40, 41]
    assert db.committed_view(5) == before
    assert verify_database(db) == []


@PINNED
def test_a_pinned_id_begun_before_the_anchor_is_in_its_table(name):
    """An id pinned under the next id before the anchor is live in the
    anchor's table, BOT or not: its stolen page is undone."""
    db = build(name, 1, num_groups=4, buffer_capacity=2)
    if db.config.record_logging:
        Simulator(db, WorkloadSpec()).seed_records()
    elder = db.begin(txn_id=40)
    _write(db, elder, 0, b"elder")
    pinned = db.begin(txn_id=7)
    _anchor(db)
    before = db.committed_view(5)
    _write(db, pinned, 5, b"lost")
    db.buffer.flush_page(5)
    db.crash()
    stats = db.recover()
    assert stats["losers"] == [7, 40]
    assert db.committed_view(5) == before
    assert verify_database(db) == []
