"""Crashes *during* recovery: restart must be idempotent from any point.

A power failure can hit the recovery pass itself.  Recovery derives its
work list purely from durable state (log + twin headers) and applies
absolute images, so being interrupted before any write and restarted —
any number of times — must converge to the same committed state.
"""

import pytest

from repro.check import verify_database
from repro.db import Database, preset
from repro.storage import make_page
from repro.wal import CheckpointRecord

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
    # FORCE flushed the winner's pages at commit; ¬FORCE redoes them.
    # Three groups of one page: each data write, then its group's parity
    redone = [] if name == "record-force-rda" else [
        "restore page 5", "restore parity group 1",
        "restore page 13", "restore parity group 3"]
    assert restart_points(name) == [
        "parity-undo group 2", "restore page 0", "restore parity group 0",
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


# -- several restored pages in one parity group: die inside the group body --

GROUP_PRESETS = ["page-noforce-rda", "page-noforce-log", "record-noforce-rda",
                 "record-force-rda", "record-noforce-rda-redo"]
# winner and loser share pages 0, 1, 2 (parity group 0) and 5 (group 1)
SHARED_PAGES = (0, 1, 2, 5)


def build_group_scenario(name):
    """A restart whose restore writes pages 0, 1 and 2 of parity group
    0, page 5 alone in group 1, and whose parity undo rewinds page 9 in
    group 2 (``page-noforce-log`` undoes it from the log: a second
    singleton).  Returns the crashed database and a check of the
    committed state.

    Page presets: the winner's pages are redone from whole after-images
    (no base), and page 2 — overwritten by the loser over the winner's
    unflushed commit, so stolen under a logged before-image — is then
    undone from a whole ``PageBeforeImage``.  Record presets: winner
    and loser hold different records of every shared page; ¬FORCE
    redoes the winner's records onto the base it reads (and undoes the
    loser's stolen record of page 0), FORCE flushed all four pages at
    the winner's commit as logged steals and undoes the loser's records.
    """
    db = Database(preset(name, group_size=4, num_groups=8,
                         buffer_capacity=8))
    if not db.config.record_logging:
        winner = db.begin()
        for page in SHARED_PAGES:
            # a value per page: two equal deltas would cancel in the
            # parity and hide the hole a death between them leaves
            db.write_page(winner, page, make_page(b"win%d" % page))
        db.commit(winner)
        loser = db.begin()
        db.write_page(loser, 2, make_page(b"lose"))
        db.write_page(loser, 9, make_page(b"lose"))
        assert db.buffer.flush_page(9)
        assert db.buffer.flush_page(2)      # residue under it: logged steal
        db.crash()

        def check():
            t = db.begin()
            for page in SHARED_PAGES:
                assert db.read_page(t, page) == make_page(b"win%d" % page)
            assert db.read_page(t, 9) == bytes(512)
            db.commit(t)
        return db, check

    db.format_record_pages(range(db.num_data_pages))
    setup = db.begin()
    slots = {(page, who): db.insert_record(setup, page, who.encode() + b"-")
             for page in (*SHARED_PAGES, 9) for who in ("w", "l")}
    db.commit(setup)
    if db.checkpointer is not None:
        db.checkpoint()
    winner, loser = db.begin(), db.begin()
    for page in SHARED_PAGES:       # a value per page, as above
        db.update_record(winner, page, slots[page, "w"], b"w%d" % page)
        db.update_record(loser, page, slots[page, "l"], b"l%d" % page)
    db.update_record(loser, 9, slots[9, "l"], b"l9")
    assert db.buffer.flush_page(9)          # the unlogged steal
    db.commit(winner)
    db.buffer.flush_page(0)     # the loser's record with it (the hybrid's
    db.crash()                  # gate holds the frame back instead)

    def check():
        t = db.begin()
        for page in SHARED_PAGES:
            assert db.read_record(t, page, slots[page, "w"]) == b"w%d" % page
        for page in (*SHARED_PAGES, 9):
            assert db.read_record(t, page, slots[page, "l"]) == b"l-"
        db.commit(t)
    return db, check


def assert_group_state(db, check):
    check()
    assert verify_database(db) == []
    assert db.verify_parity() == []


def group_restart_points(name) -> list:
    db, check = build_group_scenario(name)
    labels = []
    db.recover(fault_hook=labels.append)
    assert_group_state(db, check)
    return labels


@pytest.mark.parametrize("name", GROUP_PRESETS)
def test_group_restart_reports_each_physical_write(name):
    """A label immediately before every data write and before each
    group's one parity write, in write order."""
    page_9 = (["restore page 9", "restore parity group 2"]
              if name == "page-noforce-log" else [])
    assert group_restart_points(name) == [
        *([] if page_9 else ["parity-undo group 2"]),
        "restore page 0", "restore page 1", "restore page 2",
        "restore parity group 0",
        "restore page 5", "restore parity group 1",
        *page_9, "abort records"]


def test_a_label_fires_immediately_before_its_write():
    """Not all of a group's labels before its first write: at ``restore
    page 2`` pages 0 and 1 are on disk, page 2 and the twin are not."""
    db, _ = build_group_scenario("page-noforce-rda")
    twin = db.array.peek_twin(0, db.rda.current_twin(0))
    seen = {}

    def hook(label):
        seen[label] = ([db.array.peek_page(page) for page in (0, 1, 2)],
                       db.array.peek_twin(0, db.rda.current_twin(0)))

    db.recover(fault_hook=hook)
    win = [make_page(b"win%d" % page) for page in (0, 1, 2)]
    lose = make_page(b"lose")
    assert seen["restore page 0"] == ([bytes(512), bytes(512), lose], twin)
    assert seen["restore page 2"] == ([win[0], win[1], lose], twin)
    assert seen["restore parity group 0"] == (win, twin)
    assert seen["restore page 5"][1] != twin


@pytest.mark.parametrize("name", GROUP_PRESETS)
def test_group_restart_survives_interruption_at_every_point(name):
    points = group_restart_points(name)
    assert points.index("restore page 2") == \
        points.index("restore page 0") + 2      # between two data writes
    for at_write, label in enumerate(points, start=1):
        db, check = build_group_scenario(name)
        assert interrupted(db, at_write)
        stats = db.recover()
        assert_group_state(db, check)
        # dead right after a data write, before its group's parity write
        # (k of those points in a group of k): the data is newer than
        # the parity, the hole the restart scrub resyncs
        after_data_write = at_write > 1 and \
            points[at_write - 2].startswith("restore page")
        assert stats["parity_resynced"] == after_data_write, label


@pytest.mark.parametrize("name", GROUP_PRESETS)
def test_group_restart_survives_a_second_interruption(name):
    for first in range(1, len(group_restart_points(name)) + 1):
        second = 1
        while True:
            db, check = build_group_scenario(name)
            assert interrupted(db, first)
            if not interrupted(db, second):
                assert_group_state(db, check)       # it ran to the end
                break
            db.recover()
            assert_group_state(db, check)
            second += 1
        assert second > 1


# -- the scan's twins and the headers' page LSNs across two deaths (PR 23) --


def build_vouched_scenario(name):
    """:func:`build_group_scenario` on an array whose headers already
    vouch for something: a first winner's versions of pages 0, 1 and 5
    were evicted (stamped on their twins) before the scenario's winner
    and loser rewrote them, so the restart skips some records by header,
    restores others into the same groups, rewinds group 2 and keeps the
    named groups' twins from its scan."""
    db, check = build_group_scenario(name)
    # build_group_scenario ends in a crash: restart it once, cleanly, so
    # its restore stamps what it wrote, then crash with more work on top
    db.recover()
    if db.checkpointer is not None:
        db.checkpoint()
    if not db.config.record_logging:
        winner, loser = db.begin(), db.begin()
        for page in (0, 1, 5):
            db.write_page(winner, page, make_page(b"new%d" % page))
        db.commit(winner)
        assert db.buffer.flush_page(1)          # vouched for by its twin
        db.write_page(loser, 9, make_page(b"lose"))
        assert db.buffer.flush_page(9)          # rides group 2's twins
        db.crash()

        def check_new():
            t = db.begin()
            for page in (0, 1, 5):
                assert db.read_page(t, page) == make_page(b"new%d" % page)
            assert db.read_page(t, 2) == make_page(b"win2")
            assert db.read_page(t, 9) == bytes(512)
            db.commit(t)
        return db, check_new

    def slot_of(page, who):
        # the slots build_group_scenario inserted: w then l on each page
        return 0 if who == "w" else 1

    winner, loser = db.begin(), db.begin()
    for page in (0, 1, 5):
        db.update_record(winner, page, slot_of(page, "w"), b"n%d" % page)
    db.update_record(loser, 0, slot_of(0, "l"), b"l0")
    db.update_record(loser, 9, slot_of(9, "l"), b"l9")
    assert db.buffer.flush_page(9)
    db.commit(winner)           # FORCE: page 0 goes out, a logged steal
    db.buffer.flush_page(0)     # ¬FORCE: now; the winner's record on it
    db.buffer.flush_page(1)     # is vouched for, the loser's is undone
    db.crash()

    def check_new():
        t = db.begin()
        for page in (0, 1, 5):
            assert db.read_record(t, page, slot_of(page, "w")) \
                == b"n%d" % page
        assert db.read_record(t, 2, slot_of(2, "w")) == b"w2"
        for page in (0, 9):
            assert db.read_record(t, page, slot_of(page, "l")) == b"l-"
        db.commit(t)
    return db, check_new


def kind_of(label: str) -> str:
    """A fault label minus its page or group number."""
    return label.rstrip("0123456789").rstrip()


def die_at(db, at_write: int, restarts) -> bool:
    """:func:`interrupted`, also checking that the restart value —
    and the scanned twins it holds — is gone once the restart returns
    or dies."""
    try:
        db.recover(fault_hook=crashing_hook(at_write))
        died = False
    except MidRecoveryCrash:
        died = True
    assert restarts.all_gone()
    if died:
        db.crash()
    return died


@pytest.mark.parametrize("name", GROUP_PRESETS)
def test_vouched_restart_survives_two_interruptions_and_keeps_no_twin(
        name, restarts):
    """Die at every label of a restart that skips by header, restores
    with the scan's twins in hand, rewinds a group and (after a death
    inside a group body) resyncs one — then at every label of the
    restart that follows.  Each time: the oracle, a consistent parity,
    page LSNs that vouch for nothing the disk lacks, and no scanned twin
    outliving the restart it was read for."""
    db, check = build_vouched_scenario(name)
    points, kept = [], []

    def note(label):
        # what the live restart holds at its first label
        if not points:
            kept.append(len(restarts[-1]().twins))
        points.append(label)

    db.recover(fault_hook=note)
    assert_group_state(db, check)
    kinds = {kind_of(label) for label in points}
    assert {"restore page", "restore parity group", "abort records"} <= kinds
    if db.rda is not None:
        assert kept[0] > 0                  # the scan did keep some
    seen = set(kinds)
    for first in range(1, len(points) + 1):
        second = 1
        while True:
            db, check = build_vouched_scenario(name)
            assert die_at(db, first, restarts)
            finished = not die_at(db, second, restarts)
            if not finished:
                db.recover(fault_hook=lambda label: seen.add(
                    kind_of(label)))
            assert_group_state(db, check)
            assert verify_database(db) == []
            if finished:
                break
            second += 1
        assert second > 1
    if db.rda is not None:
        assert {"parity-undo group", "parity resync group"} <= seen


# -- the second restore writes what the first did not reach (PR 22) --------


def restore_labels(labels) -> list:
    return [label for label in labels if label.startswith("restore")]


@pytest.mark.parametrize("name", GROUP_PRESETS)
def test_the_next_restore_writes_only_what_the_first_did_not_reach(name):
    """Die at every restore label: the restart that follows finds the
    pages already written equal to their base and writes exactly the
    others — its restore labels are the first run's from the crash point
    on, minus the parity write of a group whose data was complete (the
    scrub resynced that one).  Then die at every label of *that*
    restart too."""
    points = group_restart_points(name)
    for at_write, label in enumerate(points, start=1):
        if not label.startswith("restore"):
            continue
        db, check = build_group_scenario(name)
        assert interrupted(db, at_write)
        second = []
        db.recover(fault_hook=second.append)
        assert_group_state(db, check)
        unreached = restore_labels(points[at_write - 1:])
        if label.startswith("restore parity group"):
            unreached = unreached[1:]
        assert restore_labels(second) == unreached, label
        for at_second in range(1, len(second) + 1):
            db, check = build_group_scenario(name)
            assert interrupted(db, at_write)
            assert interrupted(db, at_second)
            db.recover()
            assert_group_state(db, check)


def test_a_dropped_page_still_advances_its_durable_lsn():
    """REDO-only: die before group 0's parity write — its three pages
    are on disk, their durable page LSNs not yet advanced.  The next
    restart replays their chains, finds every page equal to the disk and
    drops it, and still records the disk as current: a third restart
    replays nothing."""
    name = "record-noforce-rda-redo"
    points = group_restart_points(name)
    db, check = build_group_scenario(name)
    assert interrupted(db, points.index("restore parity group 0") + 1)
    assert all(db._durable_page_lsn.get(page, 0)
               < db.redo_log.page_chain_head(page) for page in (0, 1, 2))
    second = db.recover()
    assert second["pages_unchanged"] == 3 and second["redo_applied"] >= 3
    assert all(db._durable_page_lsn[page] == db.redo_log.page_chain_head(page)
               for page in SHARED_PAGES)
    db.crash()
    third = db.recover()
    assert (third["redo_applied"], third["pages_unchanged"]) == (0, 0)
    assert_group_state(db, check)


# -- a torn or latent write right after a label, then a death anywhere ------

PERTURBED = ("restore page", "restore parity group", "parity-undo group")


def perturbing_hook(db, at_label: int, mode: str):
    """Restart fault hook: at the ``at_label``-th label, arm every disk so
    the write right after it lands ``mode`` — ``torn``, the new head over
    the old tail, or ``latent``, a flipped byte — with its intended
    checksum recorded, as :mod:`repro.sim.faultplan` perturbs its crash
    point; the write after that one is the power cut."""
    labels, landed = [], []

    def on_write(disk, slot, payload):
        if landed:
            raise MidRecoveryCrash(labels[-1])
        landed.append(slot)
        if mode == "torn":
            half = len(payload) // 2
            return payload[:half] + disk.peek(slot)[half:]
        return bytes([payload[0] ^ 0xFF]) + payload[1:]

    def hook(label):
        labels.append(label)
        if len(labels) == at_label:
            for disk in db.array.disks:
                disk.fault_hook = (lambda disk_id, slot, payload, disk=disk:
                                   on_write(disk, slot, payload))
    return hook


def perturbed_restart(db, at_label: int, mode: str) -> None:
    """Restart with :func:`perturbing_hook`, then crash — whether the cut
    came or the restart ran to its end over the damaged sector."""
    try:
        db.recover(fault_hook=perturbing_hook(db, at_label, mode))
    except MidRecoveryCrash:
        pass
    finally:
        for disk in db.array.disks:
            disk.fault_hook = None
    db.crash()


def survives_a_death_at_every_next_label(build, name, at_label: int,
                                          mode: str) -> int:
    """Perturb the write after label ``at_label``, crash, die at each
    label of the next restart in turn and finish with one more; judge
    every run by the oracle, the judges and the parity.  Returns how
    many deaths were tried."""
    second = 1
    while True:
        db, check = build(name)
        perturbed_restart(db, at_label, mode)
        finished = not interrupted(db, second)
        if not finished:
            db.recover()
        assert_group_state(db, check)
        if finished:
            return second - 1
        second += 1


def behind_a_landed_page(points, at_label: int) -> bool:
    """The label names a data write of a group body whose earlier data
    writes have landed ahead of the group's parity."""
    return at_label > 1 and kind_of(points[at_label - 1]) == "restore page" \
        and kind_of(points[at_label - 2]) == "restore page"


@pytest.mark.parametrize("mode", ["torn", "latent"])
@pytest.mark.parametrize("build", [build_group_scenario,
                                   build_vouched_scenario],
                         ids=["group", "vouched"])
@pytest.mark.parametrize("name", GROUP_PRESETS)
def test_a_perturbed_restart_write_survives_a_death_at_every_next_label(
        name, build, mode):
    """The write right after every ``restore page``, ``restore parity
    group`` and ``parity-undo group`` label lands torn or latent, then
    the machine dies; the next restart dies at each of its labels in
    turn (its media scan's among them), and the one after that
    finishes.  Each time: the oracle, the judges and a consistent
    parity.

    Left out under record logging: a data write behind a landed page of
    its own group body.  The media scan rebuilds the damaged page from
    a parity that does not cover the landed page yet — two faults in
    one group, which single parity cannot repair — and a restore that
    reads the page's base builds on the wreck
    (:func:`test_a_torn_page_behind_a_landed_page_is_a_double_fault`)."""
    db, check = build(name)
    points = []
    db.recover(fault_hook=points.append)
    assert_group_state(db, check)
    targets = [at for at, label in enumerate(points, start=1)
               if kind_of(label) in PERTURBED
               and not (db.config.record_logging
                        and behind_a_landed_page(points, at))]
    assert {kind_of(points[at - 1]) for at in targets} >= (
        {"restore page", "restore parity group"} if db.rda is None
        else set(PERTURBED))
    for at_label in targets:
        assert survives_a_death_at_every_next_label(build, name, at_label,
                                                    mode) > 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a torn page behind a landed page of its group "
                          "body is a write hole and a media error in one "
                          "parity group; record-mode redo reads the "
                          "wrongly rebuilt page as its base")
def test_a_torn_page_behind_a_landed_page_is_a_double_fault():
    """``restore page 1`` follows the landed ``restore page 0`` of group
    0: tearing page 1 and dying leaves a stray copy of the loser's
    record on it after the next restart, with or without the bound on
    the restart scrub."""
    name = "record-noforce-rda"
    db, check = build_group_scenario(name)
    points = []
    db.recover(fault_hook=points.append)
    at_label = points.index("restore page 1") + 1
    assert behind_a_landed_page(points, at_label)
    survives_a_death_at_every_next_label(build_group_scenario, name,
                                         at_label, "torn")


ANCHORED_PRESETS = ["page-noforce-rda", "page-noforce-log",
                    "record-noforce-rda"]


def build_anchored_scenario(name, carried: bool = True):
    """:func:`build_group_scenario`'s writes around a checkpoint, so the
    restart reads its log from an anchor: the loser begins, steals page
    9 and stays in the checkpoint's transaction table, and its chain
    reaches back past the anchor; the winner commits after it.  With
    ``carried`` False a second checkpoint is forced just before the
    crash, with no log write since: the force that made it durable
    carries it, and the restart reads from it, the loser still in its
    table."""
    db = Database(preset(name, group_size=4, num_groups=8,
                         buffer_capacity=8))
    record_mode = db.config.record_logging
    if record_mode:
        db.format_record_pages(range(db.num_data_pages))
        setup = db.begin()
        slots = {(page, who): db.insert_record(setup, page,
                                               who.encode() + b"-")
                 for page in (*SHARED_PAGES, 9) for who in ("w", "l")}
        db.commit(setup)
    loser = db.begin()
    if record_mode:
        db.update_record(loser, 9, slots[9, "l"], b"l9")
    else:
        db.write_page(loser, 9, make_page(b"lose"))
    assert db.buffer.flush_page(9)
    db.checkpoint()
    winner = db.begin()
    for page in SHARED_PAGES:
        if record_mode:
            db.update_record(winner, page, slots[page, "w"], b"w%d" % page)
            db.update_record(loser, page, slots[page, "l"], b"l%d" % page)
        else:
            db.write_page(winner, page, make_page(b"win%d" % page))
    db.commit(winner)
    if record_mode:
        db.buffer.flush_page(0)
    else:
        db.write_page(loser, 2, make_page(b"lose"))
        assert db.buffer.flush_page(2)
    if not carried:
        db.checkpoint()
    db.crash()

    def check():
        t = db.begin()
        for page in SHARED_PAGES:
            if record_mode:
                assert db.read_record(t, page, slots[page, "w"]) == \
                    b"w%d" % page
            else:
                assert db.read_page(t, page) == make_page(b"win%d" % page)
        for page in (*SHARED_PAGES, 9) if record_mode else ():
            assert db.read_record(t, page, slots[page, "l"]) == b"l-"
        if not record_mode:
            assert db.read_page(t, 9) == bytes(512)
        db.commit(t)
    return db, check


def build_uncarried_scenario(name):
    return build_anchored_scenario(name, carried=False)


@pytest.mark.parametrize("build", [build_anchored_scenario,
                                   build_uncarried_scenario],
                         ids=["carried", "not-carried"])
@pytest.mark.parametrize("name", ANCHORED_PRESETS)
def test_an_anchored_restart_reads_the_losers_chain_past_its_anchor(
        name, build):
    db, check = build(name)
    stats = db.recover()
    assert len(stats["losers"]) == 1
    last_checkpoint = [r.lsn for r in db.undo_log.records()
                       if isinstance(r, CheckpointRecord)][-1]
    assert db.undo_log.anchor == last_checkpoint
    assert_group_state(db, check)


@pytest.mark.parametrize("mode", ["torn", "latent"])
@pytest.mark.parametrize("build", [build_anchored_scenario,
                                   build_uncarried_scenario],
                         ids=["carried", "not-carried"])
@pytest.mark.parametrize("name", ANCHORED_PRESETS)
def test_an_anchored_restart_survives_a_perturbed_write_then_any_death(
        name, build, mode):
    """The slice above, read from an anchor — also the one a crash
    right after a checkpoint's force, with no log write since, leaves."""
    db, check = build(name)
    points = []
    db.recover(fault_hook=points.append)
    assert_group_state(db, check)
    targets = [at for at, label in enumerate(points, start=1)
               if kind_of(label) in PERTURBED
               and not (db.config.record_logging
                        and behind_a_landed_page(points, at))]
    assert targets
    for at_label in targets:
        assert survives_a_death_at_every_next_label(build, name, at_label,
                                                    mode) > 0
