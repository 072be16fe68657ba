"""Anchored restart analysis against a whole-log one.

Analysis reads the log from the restart anchor (the last forced ACC
checkpoint) and the anchor's transaction table instead of the whole
retained log.  Wherever the verdicts are asked — every restart of the
¬FORCE fault sweeps, every restart of a ``crash_restart``-shaped run,
and online by the ``writeback-named`` rule — the anchored losers and
the twin scan's classification of every parity group must be the ones
a walk of the whole log gives: the losers are the transactions with a
BOT and no EOT anywhere in the log, and a WORKING header is trusted iff
its owner has a commit record.
"""

import random

import pytest

from repro.db import Database, make_sharded, preset
from repro.db import recovery
from repro.sim import fault_workload, record_fault_setup, run_sweep
from repro.storage.page import NO_TXN, TwinState, make_page
from repro.storage.twin_array import select_current_twin
from repro.wal import AbortRecord, BOTRecord, CommitRecord

from .test_crash_recovery import run_segment, segment_db


def twin_verdicts(db, committed) -> list:
    """Per parity group: the current twin and which twins are live
    steals, under ``committed``."""
    out = []
    for group in range(db.array.geometry.num_groups):
        headers = (db.array.peek_twin(group, 0)[1],
                   db.array.peek_twin(group, 1)[1])
        live = tuple(h.state is TwinState.WORKING and h.txn_id != NO_TXN
                     and h.txn_id not in committed for h in headers)
        out.append((select_current_twin(headers, committed), live))
    return out


@pytest.fixture
def compared(monkeypatch):
    """Wrap :func:`repro.db.recovery.verdicts`: each call also walks
    the whole log and asserts the two analyses agree.  Yields the
    number of calls made with an anchor."""
    verdicts = recovery.verdicts
    calls = {"anchored": 0}

    def checked(db):
        winners, losers, committed = verdicts(db)
        undo_log = db.undo_log
        every_commit = db.redo_log.txn_ids(CommitRecord)
        assert losers == (undo_log.txn_ids(BOTRecord) - every_commit
                          - undo_log.txn_ids(AbortRecord))
        assert winners <= every_commit
        if db.rda is not None:
            assert twin_verdicts(db, committed) == \
                twin_verdicts(db, every_commit)
        calls["anchored"] += bool(db.redo_log.anchor)
        return winners, losers, committed

    monkeypatch.setattr(recovery, "verdicts", checked)
    return calls


@pytest.mark.parametrize("name, transactions", [
    ("page-noforce-rda", 4), ("record-noforce-rda", 6),
    ("page-noforce-log", 4), ("record-noforce-log", 4)])
def test_the_fault_sweeps_analyse_as_the_whole_log_does(name, transactions,
                                                         compared):
    """Every crash point of a script that checkpoints every six page
    writes, in every mode; some restarts start at an anchor."""
    config = dict(group_size=4, num_groups=12, buffer_capacity=4,
                  checkpoint_interval=6)
    record = name.startswith("record")
    ops = fault_workload(transactions=transactions, group_size=4,
                         op="update" if record else "write")
    report = run_sweep(lambda: Database(preset(name, **config)), ops,
                       setup=record_fault_setup(ops) if record else None)
    assert report.clean, report.violations_by_kind()
    assert compared["anchored"] > 0


@pytest.mark.parametrize("name", ["record-noforce-rda", "page-noforce-rda"])
def test_a_crash_restart_run_analyses_as_the_whole_log_does(name, compared):
    """Segments with checkpoints, aborts and transactions left in
    flight across the last checkpoint, a crash each."""
    rng = random.Random(7)
    db, slots = segment_db(name)
    oracle = {}
    for _ in range(4):
        run_segment(db, rng, slots, 4, oracle)
        db.crash()
        db.recover()
        assert db.redo_log.anchor
        assert db.verify_parity() == []
    assert compared["anchored"] >= 4


def test_a_steal_whose_bot_never_reached_the_disk(compared):
    """The owner of a WORKING twin need not have a durable BOT: an
    unlogged steal forces nothing.  Begun after the checkpoint, it is
    above the table's next-id ceiling, so the scan still undoes it.
    (The shards' group-commit logs make exactly the forced bytes
    durable.)"""
    db = make_sharded(preset("page-noforce-rda", group_size=4,
                             num_groups=8, buffer_capacity=8),
                      shards=2, workers=False)
    shard = db.shards[0]
    before = make_page(b"committed")
    setup = db.begin()
    db.write_page(setup, 0, before)
    db.commit(setup)
    db.checkpoint()
    carrier = db.begin()
    db.write_page(carrier, 2, make_page(b"other"))
    db.commit(carrier)              # a forced page carries the anchor
    thief = db.begin()
    db.write_page(thief, 0, make_page(b"stolen"))
    shard.buffer.flush_pages_of(thief)
    assert shard.rda.dirty_set.groups_of(thief)
    assert shard.undo_log.durable_lsn < shard.txns.get(thief).bot_lsn
    db.crash()
    stats = db.recover()
    assert shard.redo_log.anchor
    assert stats["losers"] == [thief]
    assert stats["parity_undone_pages"] == 1
    assert db.committed_view(0) == before
    assert compared["anchored"] > 0
