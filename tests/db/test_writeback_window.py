"""A write-back window is a loop over the per-page write-back.

The buffer pool hands :meth:`RecoveryPolicy.writeback_batch` one entry
(eviction, ``flush_page``) or many (FORCE commit, checkpoint); either
way each page meets the one Figure 3 decision and the one writer per
layer.  These tests pin that a window is nothing more than its pages
flushed one at a time, and that the Figure 3 check still fires before
any transfer.
"""

import pytest

from repro.check import HistoryRecorder
from repro.db import Database, preset
from repro.db.policy import RdaProtection, RecoveryPolicy
from repro.errors import ParityGroupError
from repro.storage import make_page


def _db():
    return Database(preset("page-noforce-rda", group_size=4, num_groups=4,
                           buffer_capacity=12),
                    history=HistoryRecorder())


def _disk_image(db):
    return [[(disk.peek(slot), disk.peek_header(slot))
             for slot in range(disk.capacity)] for disk in db.array.disks]


def _transfers(db):
    """Totals, and per-arm counts of the array's disks (log devices
    draw process-wide ids, so theirs are compared by total only)."""
    stats = db.stats
    return (stats.reads, stats.writes, stats.log_transfers,
            {d: n for d, n in stats.per_disk_reads.items() if d >= 0},
            {d: n for d, n in stats.per_disk_writes.items() if d >= 0})


def _observed(db):
    return {"disks": _disk_image(db), "transfers": _transfers(db),
            "history": db.history.history.to_dicts(),
            "counters": vars(db.counters),
            "dirty": db.buffer.dirty_pages(),
            "dirty_groups": sorted(e.group for e in db.rda.dirty_set.entries())}


def _mixed_window(db):
    """Dirty frames, in frame order: an unlogged steal, a committed
    write into the group that steal just dirtied (two twins), then two
    pages of one other group by one transaction (unlogged steal, then a
    logged steal).  Returns the pages in that order."""
    groups = db.array.geometry.group_pages
    stolen, residue = groups(1)[0], groups(1)[1]
    first, second = groups(0)[0], groups(0)[1]
    t1 = db.begin()
    db.write_page(t1, stolen, make_page(b"t1"))
    t0 = db.begin()
    db.write_page(t0, residue, make_page(b"t0"))
    db.commit(t0)                       # ¬FORCE: stays dirty, committed
    ta = db.begin()
    db.write_page(ta, first, make_page(b"ta-0"))
    db.write_page(ta, second, make_page(b"ta-1"))
    return [stolen, residue, first, second]


def test_window_is_its_pages_flushed_one_at_a_time():
    window, single = _db(), _db()
    pages = _mixed_window(window)
    assert _mixed_window(single) == pages

    assert window.buffer.flush_all_dirty() == pages
    for page in pages:
        assert single.buffer.flush_page(page)

    assert window.counters.unlogged_steals == 2
    assert window.counters.logged_steals == 1
    assert window.counters.committed_writebacks == 1
    assert _observed(window) == _observed(single)
    assert window.verify_parity() == []


class _Overclaiming(RdaProtection):
    """A protection that claims twin cover for every steal, so the
    policy's own Figure 3 test no longer guards the RDA manager's."""

    def covers_unlogged_steal(self, db, page, single, was_residue):
        return True


def _overclaiming_db():
    db = _db()
    db.policy = RecoveryPolicy(db.policy.logging, db.policy.discipline,
                               _Overclaiming())
    return db


def _colliding_window(db):
    """One transaction's dirty frames, in frame order: pages of groups
    0 and 1, a *second* page of group 0, a page of group 2."""
    groups = db.array.geometry.group_pages
    pages = [groups(0)[0], groups(1)[0], groups(0)[1], groups(2)[0]]
    txn = db.begin()
    for i, page in enumerate(pages):
        db.write_page(txn, page, make_page(b"p%d" % i))
    return pages


def test_illegal_unlogged_steal_alone_transfers_nothing():
    db = _overclaiming_db()
    pages = _colliding_window(db)
    assert db.buffer.flush_page(pages[0])
    image, transfers = _disk_image(db), db.stats.snapshot()
    with pytest.raises(ParityGroupError):
        db.buffer.flush_page(pages[2])
    assert db.stats.snapshot() == transfers
    assert _disk_image(db) == image
    assert db.buffer.is_dirty(pages[2])


def test_illegal_unlogged_steal_as_third_page_of_a_window():
    db, reference = _overclaiming_db(), _overclaiming_db()
    pages = _colliding_window(db)
    assert _colliding_window(reference) == pages
    for page in pages[:2]:
        assert reference.buffer.flush_page(page)

    with pytest.raises(ParityGroupError):
        db.buffer.flush_all_dirty()
    # pages one and two are on disk and clean; page three stopped the
    # window before any of its transfers, and page four never started
    assert db.buffer.dirty_pages() == sorted(pages[2:])
    assert _transfers(db) == _transfers(reference)
    assert _disk_image(db) == _disk_image(reference)
    assert db.verify_parity() == []
