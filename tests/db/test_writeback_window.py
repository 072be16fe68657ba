"""A write-back window is a loop over the per-page write-back.

The buffer pool hands :meth:`RecoveryPolicy.writeback_batch` one entry
(eviction, ``flush_page``) or many (FORCE commit, checkpoint); either
way each page meets the one Figure 3 decision and the one writer per
layer.  These tests pin that a window is nothing more than its pages
flushed one at a time, and that the Figure 3 check still fires before
any transfer.
"""

import pytest

from repro.check import HistoryRecorder, InvariantEngine
from repro.db import Database, preset
from repro.db.policy import RdaProtection, RecoveryPolicy
from repro.errors import ParityGroupError
from repro.sim.timed import TimedObserver
from repro.storage import kernels, make_page


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


# -- a FORCE commit window: the paper's headline cell ----------------------


class _RecordingEngine(InvariantEngine):
    """The invariant engine, keeping every barrier it is asked in order
    (the array's and the RDA manager's hooks bind this method too)."""

    def __init__(self, db, rules=None):
        super().__init__(db, rules)
        self.seen = []

    def barrier(self, name, **ctx):
        self.seen.append((name, ctx))
        return super().barrier(name, **ctx)


def _force_db(observe):
    """A ``page-force-rda`` engine with ``observe`` attached: nothing,
    a history, or the (recording) invariant engine.  Every disk's
    accesses are logged in order and timed."""
    db = Database(preset("page-force-rda", group_size=4, num_groups=6,
                         buffer_capacity=24),
                  history=HistoryRecorder() if observe == "history"
                  else None)
    if observe == "invariants":
        _RecordingEngine.attach(db)
    timed = TimedObserver.attach(db)
    db.accesses = []
    for disk in db.array.disks:
        def on_access(disk_id, slot, kind, timed_access=disk.on_access):
            db.accesses.append((disk_id, slot, kind))
            timed_access(disk_id, slot, kind)
        disk.on_access = on_access
    db.timed = timed
    db.general_writes = []
    general = db.array._small_write_inner

    def small_write_inner(page, *args):
        db.general_writes.append(page)
        return general(page, *args)
    db.array._small_write_inner = small_write_inner
    return db


def _force_observed(db):
    seen = {"disks": _disk_image(db), "transfers": _transfers(db),
            "accesses": db.accesses,
            "arms": {d: (t.busy_ms, t.seeks)
                     for d, t in db.timed.timers.items()},
            "counters": vars(db.counters),
            "dirty": db.buffer.dirty_pages(),
            "dirty_set": db.rda.dirty_set.entries(),
            "general_writes": db.general_writes}
    if db.history is not None:
        seen["history"] = db.history.history.to_dicts()
    if db.invariants is not None:
        db.invariants.assert_clean()
        seen["barriers"] = db.invariants.seen
    return seen


def _force_window(db, committed_page: bool):
    """One transaction's dirty frames, in frame order: unlogged steals
    into clean groups 0 and 1, a re-steal (group 2, stolen once by a
    flush), a second page of group 0 — which the window's first page
    has just dirtied, so it must go logged — and, with
    ``committed_page``, a committed frame of group 3 ahead of them.
    The groups have been written and committed before, so their twin
    headers are cached.  Returns the transaction and the pages in frame
    order."""
    group = db.array.geometry.group_pages
    pages = [group(0)[0], group(1)[0], group(2)[0], group(0)[1]]
    warm = db.begin()
    for g in range(4):
        db.write_page(warm, group(g)[2], make_page(b"warm"))
    db.commit(warm)
    txn = db.begin()
    for page in pages[:3]:
        db.write_page(txn, page, make_page(b"first"))
    assert db.buffer.flush_page(pages[2])
    db.write_page(txn, pages[2], make_page(b"again"))
    db.write_page(txn, pages[3], make_page(b"logged"))
    if committed_page:
        # a committed frame, as a restart's restore leaves one: the
        # warm commit's version, which its logged after-image names
        # (its frame, loaded by that commit, comes first)
        db.buffer.put_page(group(3)[2], make_page(b"warm"))
        pages.insert(0, group(3)[2])
    return txn, pages


@pytest.mark.parametrize("observe", ["none", "history", "invariants"])
def test_force_commit_window_is_its_pages_flushed_one_at_a_time(observe):
    window, single = _force_db(observe), _force_db(observe)
    txn, pages = _force_window(window, committed_page=False)
    assert _force_window(single, committed_page=False) == (txn, pages)

    for page in pages:
        assert single.buffer.flush_page(page)
    assert single.buffer.flush_pages_of(txn) == []
    single.commit(txn)
    window.commit(txn)

    # the warm commit's four, the re-steal's first, the window's three
    assert window.counters.unlogged_steals == 4 + 1 + 3
    assert window.counters.logged_steals == 1
    # the logged page's group is dirty: both twins, the general path
    assert window.general_writes == [pages[3]]
    # each steal was noted on the transaction, so the on-disk versions
    # the engine kept for the small writes are forgotten with it
    assert window._last_written == {}
    assert _force_observed(window) == _force_observed(single)
    assert window.verify_parity() == []


@pytest.mark.parametrize("observe", ["none", "history", "invariants"])
def test_force_window_with_a_committed_page(observe):
    window, single = _force_db(observe), _force_db(observe)
    txn, pages = _force_window(window, committed_page=True)
    assert _force_window(single, committed_page=True) == (txn, pages)

    assert window.buffer.flush_all_dirty() == pages
    for page in pages:
        assert single.buffer.flush_page(page)

    assert window.counters.committed_writebacks == 1
    assert window.counters.logged_steals == 1
    assert window.rda.dirty_set.entries() \
        == single.rda.dirty_set.entries()
    assert [entry.group for entry in window.rda.dirty_set.entries()] \
        == [0, 1, 2]
    assert _force_observed(window) == _force_observed(single)
    window.commit(txn)
    single.commit(txn)
    assert _force_observed(window) == _force_observed(single)
    assert window.verify_parity() == []


def _spared_pages(db):
    """Three pages of three groups and the disk that holds only the
    middle one's data: neither the others' data nor any of the three
    groups' twins live there."""
    geometry = db.array.geometry
    for middle_group in range(geometry.num_groups):
        middle = geometry.group_pages(middle_group)[0]
        failed = geometry.data_address(middle).disk
        chosen = []
        for g in range(geometry.num_groups):
            if g == middle_group or len(chosen) == 2 or any(
                    addr.disk == failed
                    for addr in geometry.parity_addresses(g)):
                continue
            chosen += [page for page in geometry.group_pages(g)
                       if geometry.data_address(page).disk != failed][:1]
        if len(chosen) == 2 and all(
                addr.disk != failed
                for addr in geometry.parity_addresses(middle_group)):
            return [chosen[0], middle, chosen[1]], failed
    raise AssertionError("no such pages")


@pytest.mark.parametrize("observe", ["none", "history"])
def test_force_window_with_a_failed_data_disk_mid_window(observe):
    """The middle page's data disk has failed: that page alone takes
    the general small write (its twins absorb the write), between two
    inline ones, and the window still equals its pages one at a
    time.  (The invariant engine judges a healthy array: its
    twin-parity rule reads the failed disk's stale slot.)"""
    window, single = _force_db(observe), _force_db(observe)
    pages, failed = _spared_pages(window)
    for db in (window, single):
        warm = db.begin()
        for page in pages:
            db.write_page(warm, page, make_page(b"warm"))
        db.commit(warm)
        db.array.fail_disk(failed)
        txn = db.begin()
        for page in pages:
            db.write_page(txn, page, make_page(b"stolen"))
    for page in pages:
        assert single.buffer.flush_page(page)
    single.commit(txn)
    window.commit(txn)

    assert window.general_writes == [pages[1]]
    assert window.counters.unlogged_steals == 3 + 3     # warm, window
    assert _force_observed(window) == _force_observed(single)


# -- a FORCE window's six writes: faults, the kernel tier, the disk -------


class _PowerCut(Exception):
    pass


def _three_page_window(db):
    """Three pages of three groups, each group written and committed
    before (twin headers cached), then stolen by one transaction:
    three unlogged steals, six array writes — each twin, then its
    data page.  Returns the transaction and the pages in frame order."""
    group = db.array.geometry.group_pages
    pages = [group(g)[0] for g in range(3)]
    warm = db.begin()
    for page in pages:
        db.write_page(warm, page, make_page(b"warm"))
    db.commit(warm)
    txn = db.begin()
    for page in pages:
        db.write_page(txn, page, make_page(b"stolen%d" % page))
    return txn, pages


def _cut_at(db, write: int) -> list:
    """Make the array's ``write``-th disk write from now on raise
    (1-based; 0: none does).  Returns the list each write's
    ``(disk, slot)`` lands in."""
    landed = []

    def hook(disk_id, slot, payload):
        if len(landed) + 1 == write:
            raise _PowerCut
        landed.append((disk_id, slot))

    for disk in db.array.disks:
        disk.fault_hook = hook
    return landed


def _window_state(db, landed):
    rda = db.rda
    return {"disks": _disk_image(db), "transfers": _transfers(db),
            "landed": landed,
            "dirty": db.buffer.dirty_pages(),
            "dirty_set": rda.dirty_set.entries(),
            "owners": {txn: sorted(groups)
                       for txn, groups in rda.dirty_set.by_txn.items()},
            "headers": {group: list(pair)
                        for group, pair in rda._headers.items()},
            "first_steals": rda.first_steals,
            "last_written": dict(db._last_written),
            "counters": vars(db.counters)}


@pytest.mark.parametrize("write", range(7))
def test_a_window_cut_at_each_write_equals_its_pages_cut_there(write):
    window, single = _force_db("none"), _force_db("none")
    txn, pages = _three_page_window(window)
    assert _three_page_window(single) == (txn, pages)
    landed = {db: _cut_at(db, write) for db in (window, single)}

    if write:
        with pytest.raises(_PowerCut):
            window.buffer.flush_pages_of(txn)
        with pytest.raises(_PowerCut):
            for page in pages:
                single.buffer.flush_page(page)
    else:
        assert window.buffer.flush_pages_of(txn) == pages
        for page in pages:
            assert single.buffer.flush_page(page)

    assert len(landed[window]) == (write - 1 if write else 6)
    # twin before data, page by page
    geometry = window.array.geometry
    twins = {(addr.disk, addr.slot) for page in pages
             for addr in geometry.locate(page).parity}
    assert [write in twins for write in landed[window]] \
        == [True, False, True, False, True, False][:len(landed[window])]
    assert _window_state(window, landed[window]) \
        == _window_state(single, landed[single])
    # a cut leaves the page it hit, and every later one, dirty
    hit = (write - 1) // 2 if write else 3
    assert window.buffer.dirty_pages() == sorted(pages[hit:])


def _committed_window(tier=None):
    db = _force_db("none")
    txn, pages = _three_page_window(db)
    if tier is None:
        db.commit(txn)
    else:
        with kernels.use_kernel(tier):
            db.commit(txn)
    return db


def _counting_tier():
    calls = []
    real = kernels.StdlibKernel

    def counted(op):
        def call(*args):
            calls.append(op)
            return getattr(real, op)(*args)
        return staticmethod(call)

    tier = type("CountingKernel", (), {
        "name": "counting",
        **{op: counted(op) for op in (
            "xor", "xor_blocks", "xor_accumulate", "xor_inplace",
            "gf_scale", "gf_scale_accumulate")}})
    return tier, calls


def test_the_window_xors_through_the_active_tier():
    stdlib, reference = _committed_window(), _committed_window("reference")
    assert _disk_image(reference) == _disk_image(stdlib)
    assert reference.verify_parity() == []
    # the tier is read when the steal runs, not when the array is built
    db = _force_db("none")
    txn, pages = _three_page_window(db)
    tier, calls = _counting_tier()
    kernels.KERNELS["counting"] = tier
    try:
        with kernels.use_kernel("counting"):
            db.commit(txn)
    finally:
        del kernels.KERNELS["counting"]
    assert calls == ["xor_accumulate"] * len(pages)
    assert _disk_image(db) == _disk_image(stdlib)


def test_each_write_transfer_is_one_disk_write_call():
    db = _force_db("none")
    txn, pages = _three_page_window(db)
    calls = {}
    for disk in db.array.disks:
        def write(slot, payload, header=None, disk=disk,
                  real=disk.write):
            calls[disk.disk_id] = calls.get(disk.disk_id, 0) + 1
            return real(slot, payload, header)
        disk.write = write
    before = {d: n for d, n in db.stats.per_disk_writes.items() if d >= 0}
    db.commit(txn)
    after = {d: n for d, n in db.stats.per_disk_writes.items() if d >= 0}
    written = {d: after[d] - before.get(d, 0) for d in after
               if after[d] != before.get(d, 0)}
    assert calls == written
    assert sum(calls.values()) == 2 * len(pages)
