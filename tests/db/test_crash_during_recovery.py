"""Crashes *during* recovery: restart must be idempotent from any point.

A power failure can hit the recovery pass itself.  Recovery derives its
work list purely from durable state (log + twin headers) and applies
absolute images, so being interrupted before any write and restarted —
any number of times — must converge to the same committed state.
"""

import pytest

from repro.db import Database, preset, verify_database
from repro.storage import make_page

PRESETS = ["page-force-rda", "page-force-log",
           "page-noforce-rda", "page-noforce-log"]


class MidRecoveryCrash(Exception):
    pass


def crashing_hook(at_write: int):
    """Raise at the N-th recovery write."""
    counter = {"n": 0}

    def hook(label):
        counter["n"] += 1
        if counter["n"] == at_write:
            raise MidRecoveryCrash(label)

    return hook


def build_scenario(name):
    db = Database(preset(name, group_size=4, num_groups=8,
                         buffer_capacity=6))
    winner = db.begin()
    db.write_page(winner, 0, make_page(b"win"))
    db.commit(winner)
    loser = db.begin()
    for page in (1, 5, 9):               # three different groups
        db.write_page(loser, page, make_page(b"lose"))
    db.buffer.flush_pages_of(loser)      # stolen to disk
    db.crash()
    return db


def assert_final_state(db):
    t = db.begin()
    assert db.read_page(t, 0) == make_page(b"win")
    for page in (1, 5, 9):
        assert db.read_page(t, page) == bytes(512)
    db.commit(t)
    assert verify_database(db) == []


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("crash_at", [1, 2, 3])
def test_recovery_survives_interruption(name, crash_at):
    db = build_scenario(name)
    with pytest.raises(MidRecoveryCrash):
        db.recover(fault_hook=crashing_hook(crash_at))
    db.crash()                 # the machine went down mid-recovery
    db.recover()               # second attempt runs to completion
    assert_final_state(db)


@pytest.mark.parametrize("name", ["page-force-rda", "page-noforce-log"])
def test_recovery_survives_repeated_interruption(name):
    db = build_scenario(name)
    for attempt in (1, 2):     # die at progressively later points
        with pytest.raises(MidRecoveryCrash):
            db.recover(fault_hook=crashing_hook(attempt))
        db.crash()
    db.recover()
    assert_final_state(db)


def test_hook_not_called_on_clean_recovery():
    db = Database(preset("page-force-rda", group_size=4, num_groups=8,
                         buffer_capacity=6))
    db.crash()
    calls = []
    db.recover(fault_hook=calls.append)
    assert calls == ["abort records"]      # no data writes needed


# -- record mode: every point of the restore, then every point again -------

RECORD_PRESETS = ["record-force-rda", "record-noforce-rda",
                  "record-noforce-rda-redo"]
# (page, record) -> committed value the restart must arrive at
RECORD_FINAL = {(0, "a"): b"a1", (0, "b"): b"b0", (5, "w"): b"w1",
                (9, "l"): b"l0", (13, "x"): b"x1"}


def build_record_scenario(name):
    """A winner and a loser on different records of page 0, the winner's
    other records committed but (under ¬FORCE) never flushed, and the
    loser's page 9 stolen to disk under twin parity alone."""
    db = Database(preset(name, group_size=4, num_groups=8,
                         buffer_capacity=6))
    db.format_record_pages(range(db.num_data_pages))
    setup = db.begin()
    slots = {(page, record): db.insert_record(setup, page, record.encode()
                                              + b"0")
             for page, record in RECORD_FINAL}
    db.commit(setup)
    if db.checkpointer is not None:
        db.checkpoint()
    winner, loser = db.begin(), db.begin()
    for page, record, txn in ((0, "a", winner), (0, "b", loser),
                              (5, "w", winner), (9, "l", loser),
                              (13, "x", winner)):
        db.update_record(txn, page, slots[page, record],
                         record.encode() + b"1")
    assert db.buffer.flush_page(9)          # the unlogged steal
    assert db.rda.dirty_set.is_dirty(db.array.geometry.group_of(9))
    db.commit(winner)
    db.buffer.flush_page(0)                 # shared page, loser on it
    db.crash()
    return db, slots


def assert_record_state(db, slots):
    t = db.begin()
    for (page, record), value in RECORD_FINAL.items():
        assert db.read_record(t, page, slots[page, record]) == value
    db.commit(t)
    assert verify_database(db) == []
    assert db.verify_parity() == []


def restart_points(name) -> list:
    """The labels an uninterrupted restart of the scenario reports."""
    db, slots = build_record_scenario(name)
    labels = []
    db.recover(fault_hook=labels.append)
    assert_record_state(db, slots)
    return labels


def interrupted(db, at_write: int) -> bool:
    """Restart, dying at the N-th recovery write; False when the restart
    finished before reaching it."""
    try:
        db.recover(fault_hook=crashing_hook(at_write))
    except MidRecoveryCrash:
        db.crash()
        return True
    return False


@pytest.mark.parametrize("name", RECORD_PRESETS)
def test_record_restart_reports_every_kind_of_point(name):
    # FORCE flushed the winner's pages at commit; ¬FORCE redoes them
    redone = [] if name == "record-force-rda" else ["restore page 5",
                                                    "restore page 13"]
    assert restart_points(name) == ["parity-undo group 2", "restore page 0",
                                    *redone, "abort records"]


@pytest.mark.parametrize("name", RECORD_PRESETS)
def test_record_restart_survives_interruption_at_every_point(name):
    for at_write in range(1, len(restart_points(name)) + 1):
        db, slots = build_record_scenario(name)
        assert interrupted(db, at_write)
        db.recover()
        assert_record_state(db, slots)


@pytest.mark.parametrize("name", RECORD_PRESETS)
def test_record_restart_survives_a_second_interruption(name):
    """Die at every point of the first restart, then at every point of
    the restart that follows it."""
    for first in range(1, len(restart_points(name)) + 1):
        second = 1
        while True:
            db, slots = build_record_scenario(name)
            assert interrupted(db, first)
            if not interrupted(db, second):
                assert_record_state(db, slots)      # it ran to the end
                break
            db.recover()
            assert_record_state(db, slots)
            second += 1
        assert second > 1
