"""Regression: record-granularity undo on pages shared between
transactions must not trample each other's effects.

Record locking lets two transactions hold records on the *same* page,
but the RDA steal path protects stolen pages at page granularity (the
parity twins restore a whole-page before-image).  Two historical bugs:

1. Promoting an unlogged steal to logged undo wrote a *page-level*
   before-image even in record mode; the later abort restored the whole
   page, resurrecting records another transaction had deleted and
   committed in between.

2. An abort's corrected-page flush performed a committed write onto a
   page while *another* transaction's unlogged steal was outstanding on
   it, silently invalidating that steal's parity-undo baseline; the
   second abort (or restart) then rewound the page to the stale
   baseline, losing the first abort's corrections.

Both fixes route shared-page conflicts through steal promotion: the
outstanding steal's per-slot before-entries become durable log undo,
the parity group is cleaned, and every undo is applied record-by-record
against the page's *current* contents.

3. An abort's corrected-page flush went out as a *committed* write even
   when another transaction still had uncommitted slots in the frame, so
   a loser's update became durable with no undo record behind it.  The
   co-modifiers now stay on the re-installed frame and the flush is a
   steal: twin-covered, or logged when the disk copy still holds the
   aborting transaction's own stolen values.

4. The same flush changes the disk copy under every transaction that
   stole the page earlier; their buffered old image for the next small
   write went stale and corrupted the group's parity.

5. Bug 4 was one instance of a general one: "what is on disk" was
   remembered per (transaction, page), but any other transaction's
   write-back of a shared page changes it.  The shortcut is keyed by
   page now and refreshed by every write-back of the page.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import Database, preset
from repro.db.config import extended_preset_names

RECORD_PRESETS = [name for name in extended_preset_names()
                  if preset(name).record_logging]
# REDO-only holds a multi-modifier page behind the write-behind gate,
# so flush_page cannot interleave write-backs of a shared page there
UNDO_RECORD_PRESETS = [name for name in RECORD_PRESETS
                       if not preset(name).redo_only]


def _seeded_db():
    db = Database(preset("record-noforce-rda"))
    seeder = db.begin()
    for page in range(db.num_data_pages):
        for i in range(2):
            db.insert_record(seeder, page, b"seed%d" % i)
    db.commit(seeder)
    return db


def _read_slots(db):
    reader = db.begin()
    state = {}
    for slot in (0, 1):
        try:
            state[slot] = db.read_record(reader, 0, slot)
        except KeyError:
            state[slot] = None
    db.commit(reader)
    return state


def _shared_page_conflict(db):
    """t2 deletes slot 0, is stolen via checkpoint; t3 deletes slot 1
    on the same page, forcing promotion; second checkpoint steals
    again.  Returns (t2, t3)."""
    t2 = db.begin()
    db.delete_record(t2, 0, 0)
    t3 = db.begin()
    db.checkpoint()                   # steals t2's page unlogged
    db.delete_record(t3, 0, 1)        # same page: promotes t2's steal
    db.checkpoint()                   # steals again for t3
    return t2, t3


def test_committed_delete_survives_other_txn_abort():
    """Bug 1: aborting t2 must not resurrect t3's committed delete on
    the shared page."""
    db = _seeded_db()
    t2, t3 = _shared_page_conflict(db)
    db.commit(t3)
    db.abort(t2)
    assert _read_slots(db) == {0: b"seed0", 1: None}
    db.buffer.flush_all_dirty()
    assert db.verify_parity() == []


def test_abort_abort_restores_both_records():
    """Bug 2: t2's abort flush must not invalidate t3's parity-undo
    baseline; after both aborts both seeds are back."""
    db = _seeded_db()
    t2, t3 = _shared_page_conflict(db)
    db.abort(t2)
    db.abort(t3)
    assert _read_slots(db) == {0: b"seed0", 1: b"seed1"}
    db.buffer.flush_all_dirty()
    assert db.verify_parity() == []


def test_abort_update_then_abort_delete():
    """Bug 2 with an update instead of a delete as the first change."""
    db = _seeded_db()
    t2 = db.begin()
    db.update_record(t2, 0, 0, b"\x00")
    t3 = db.begin()
    db.checkpoint()
    db.delete_record(t3, 0, 1)
    db.checkpoint()
    db.abort(t2)
    db.abort(t3)
    assert _read_slots(db) == {0: b"seed0", 1: b"seed1"}
    db.buffer.flush_all_dirty()
    assert db.verify_parity() == []


def test_crash_between_aborts_recovers_both_records():
    """The crash window after the first abort: restart undo of the
    still-active t3 must not rewind t2's durable abort corrections."""
    db = _seeded_db()
    t2, t3 = _shared_page_conflict(db)
    db.abort(t2)
    db.crash()
    db.recover()
    assert _read_slots(db) == {0: b"seed0", 1: b"seed1"}
    db.buffer.flush_all_dirty()
    assert db.verify_parity() == []


# -- an abort's flush with other modifiers still on the page ------------------


def _two_records(name, checkpointed):
    """One page, two committed records; optionally a checkpoint, so a
    ¬FORCE restart cannot paper over a bad page by redoing the seed."""
    db = Database(preset(name, num_groups=4, buffer_capacity=8))
    db.format_record_pages([0])
    seeder = db.begin()
    for i in range(2):
        db.insert_record(seeder, 0, b"seed%d" % i)
    db.commit(seeder)
    if checkpointed and db.checkpointer is not None:
        db.checkpoint()
    return db


def _crash_and_read(db):
    db.crash()
    stats = db.recover()
    state = _read_slots(db)
    db.buffer.flush_all_dirty()
    assert db.verify_parity() == []
    return stats, state


@pytest.mark.parametrize("checkpointed", [False, True])
@pytest.mark.parametrize("name", RECORD_PRESETS)
def test_abort_flush_keeps_co_modifier_undoable(name, checkpointed):
    """Bug 3: t3's abort flushes a page carrying t2's uncommitted slot;
    t2 is a loser at restart and its update must be gone."""
    db = _two_records(name, checkpointed)
    t2 = db.begin()
    db.update_record(t2, 0, 0, b"T2-dirty")
    t3 = db.begin()
    db.delete_record(t3, 0, 1)
    db.abort(t3)
    stats, state = _crash_and_read(db)
    assert t2 in stats["losers"]
    assert state == {0: b"seed0", 1: b"seed1"}


@pytest.mark.parametrize("checkpointed", [False, True])
@pytest.mark.parametrize("name", RECORD_PRESETS)
def test_abort_flush_after_own_logged_steal(name, checkpointed):
    """Bug 3, the case the twins must *not* cover: t3's value is on disk
    (a logged steal with two modifiers) when it aborts, so a parity
    before-image of the abort's flush would resurrect it at restart."""
    db = _two_records(name, checkpointed)
    t2 = db.begin()
    db.update_record(t2, 0, 0, b"T2-first")
    t3 = db.begin()
    db.update_record(t3, 0, 1, b"T3-dirty")
    db.buffer.flush_page(0)
    db.update_record(t2, 0, 0, b"T2-again")
    db.abort(t3)
    _, state = _crash_and_read(db)
    assert state == {0: b"seed0", 1: b"seed1"}


@pytest.mark.parametrize("name", RECORD_PRESETS)
def test_abort_flush_refreshes_other_stealers_old_image(name):
    """Bug 4: t2 stole the page, t3's abort rewrote it on disk; t2's
    next small write must XOR out the rewritten page, not its own stale
    copy."""
    db = _two_records(name, checkpointed=True)
    t2 = db.begin()
    db.update_record(t2, 0, 0, b"T2-first")
    t3 = db.begin()
    db.update_record(t3, 0, 1, b"T3-dirty")
    db.buffer.flush_page(0)
    db.abort(t3)
    db.update_record(t2, 0, 0, b"T2-again")
    db.buffer.flush_page(0)
    assert db.verify_parity() == []
    _, state = _crash_and_read(db)
    assert state == {0: b"seed0", 1: b"seed1"}


# -- the on-disk image of a shared page is a fact about the page --------------


@pytest.mark.parametrize("name", UNDO_RECORD_PRESETS)
def test_other_txns_writeback_refreshes_old_image(name):
    """Bug 5: t2 and t4 share page 0 and are stolen together; t4's next
    write-back changes the disk under t2, whose next small write must
    XOR out what t4 wrote, not what t2 itself wrote last."""
    db = _two_records(name, checkpointed=True)
    t2 = db.begin()
    db.update_record(t2, 0, 0, b"T2-first")
    t4 = db.begin()
    db.update_record(t4, 0, 1, b"T4-first")
    db.buffer.flush_page(0)
    db.update_record(t4, 0, 1, b"T4-again")
    db.buffer.flush_page(0)
    db.update_record(t2, 0, 0, b"T2-again")
    db.buffer.flush_page(0)
    assert db.verify_parity() == []
    _, state = _crash_and_read(db)
    assert state == {0: b"seed0", 1: b"seed1"}


_EOT = st.one_of(st.none(), st.tuples(st.sampled_from(["commit", "abort"]),
                                       st.integers(0, 2)))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(UNDO_RECORD_PRESETS),
       rounds=st.lists(st.tuples(st.sets(st.integers(0, 2)), st.booleans(),
                                 _EOT), min_size=1, max_size=6))
@example(name="record-noforce-rda",       # bug 5, as rounds
         rounds=[({0, 1}, True, None), ({1}, True, None), ({0}, True, None)])
def test_shared_page_interleavings_keep_parity(name, rounds):
    """Up to three transactions, one slot each of one page; each round
    updates some slots, maybe ``flush_page``s, maybe ends a transaction.
    The group's parity matches its data after every step."""
    db = Database(preset(name, num_groups=4, buffer_capacity=8))
    db.format_record_pages([0])
    seeder = db.begin()
    for slot in range(3):
        db.insert_record(seeder, 0, b"seed%d" % slot)
    db.commit(seeder)
    if db.checkpointer is not None:
        db.checkpoint()
    txns = {}
    for count, (slots, flush, eot) in enumerate(rounds):
        for slot in sorted(slots):
            if slot not in txns:
                txns[slot] = db.begin()
            db.update_record(txns[slot], 0, slot, b"v%d.%d" % (count, slot))
        if flush:
            db.buffer.flush_page(0)
            assert db.verify_parity() == [], (count, "flush")
        if eot is not None and eot[1] in txns:
            getattr(db, eot[0])(txns.pop(eot[1]))
            assert db.verify_parity() == [], (count, eot)
