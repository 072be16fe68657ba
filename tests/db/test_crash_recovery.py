"""Crash- and media-recovery tests across all eight configurations.

The invariant: after any crash + restart, the database equals the serial
effects of committed transactions only (atomicity + durability).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import InvariantEngine, TwinPageLsnRule
from repro.db import Database, LockWait, SlottedPage, preset
from repro.errors import BufferFullError, DeadlockError
from repro.obs import RingBufferSink, Tracer
from repro.storage import TwinState, make_page

PAGE_PRESETS = ["page-force-rda", "page-force-log",
                "page-noforce-rda", "page-noforce-log"]
RECORD_PRESETS = ["record-force-rda", "record-force-log",
                  "record-noforce-rda", "record-noforce-log"]


def make_db(name, tracer=None, **kw):
    defaults = dict(group_size=4, num_groups=8, buffer_capacity=6)
    defaults.update(kw)
    db = Database(preset(name, **defaults), tracer=tracer)
    if db.config.record_logging:
        db.format_record_pages(range(db.num_data_pages))
    return db


@pytest.fixture(params=PAGE_PRESETS)
def pdb(request):
    return make_db(request.param)


@pytest.fixture(params=RECORD_PRESETS)
def rdb(request):
    return make_db(request.param)


class TestPageModeCrash:
    def test_committed_survives(self, pdb):
        t = pdb.begin()
        pdb.write_page(t, 0, make_page(b"durable"))
        pdb.commit(t)
        pdb.crash()
        stats = pdb.recover()
        assert t in stats["winners"]
        t2 = pdb.begin()
        assert pdb.read_page(t2, 0) == make_page(b"durable")

    def test_uncommitted_buffered_vanishes(self, pdb):
        t = pdb.begin()
        pdb.write_page(t, 0, make_page(b"ghost"))
        pdb.crash()
        pdb.recover()
        t2 = pdb.begin()
        assert pdb.read_page(t2, 0) == bytes(512)

    def test_uncommitted_stolen_rolled_back(self, pdb):
        pdb.load_pages({0: make_page(b"base")})
        loser = pdb.begin()
        pdb.write_page(loser, 0, make_page(b"stolen"))
        spill = pdb.begin()
        for p in range(4, 18):
            pdb.write_page(spill, p, make_page(bytes([p])))
        pdb.commit(spill)
        assert pdb.disk_page(0) == make_page(b"stolen")
        pdb.crash()
        stats = pdb.recover()
        assert loser in stats["losers"]
        t2 = pdb.begin()
        assert pdb.read_page(t2, 0) == make_page(b"base")
        assert pdb.verify_parity() == []

    def test_mixed_winners_and_losers_same_group(self, pdb):
        pages = pdb.array.geometry.group_pages(0)
        winner = pdb.begin()
        pdb.write_page(winner, pages[0], make_page(b"win"))
        pdb.commit(winner)
        loser = pdb.begin()
        pdb.write_page(loser, pages[1], make_page(b"lose"))
        spill = pdb.begin()
        for p in range(8, 20):
            pdb.write_page(spill, p, make_page(bytes([p])))
        pdb.commit(spill)
        pdb.crash()
        pdb.recover()
        t = pdb.begin()
        assert pdb.read_page(t, pages[0]) == make_page(b"win")
        assert pdb.read_page(t, pages[1]) == bytes(512)
        assert pdb.verify_parity() == []

    def test_double_crash(self, pdb):
        t = pdb.begin()
        pdb.write_page(t, 0, make_page(b"v"))
        pdb.commit(t)
        pdb.crash()
        pdb.recover()
        pdb.crash()
        pdb.recover()
        t2 = pdb.begin()
        assert pdb.read_page(t2, 0) == make_page(b"v")

    def test_recovery_is_idempotent_under_repeat(self, pdb):
        loser = pdb.begin()
        pdb.write_page(loser, 0, make_page(b"x"))
        spill = pdb.begin()
        for p in range(4, 18):
            pdb.write_page(spill, p, make_page(bytes([p])))
        pdb.commit(spill)
        pdb.crash()
        first = pdb.recover()
        pdb.crash()
        second = pdb.recover()
        assert loser not in second["losers"]    # abort record persisted
        t = pdb.begin()
        assert pdb.read_page(t, 0) == bytes(512)

    def test_work_after_recovery(self, pdb):
        t = pdb.begin()
        pdb.write_page(t, 0, make_page(b"a"))
        pdb.commit(t)
        pdb.crash()
        pdb.recover()
        t2 = pdb.begin()
        pdb.write_page(t2, 0, make_page(b"b"))
        pdb.commit(t2)
        t3 = pdb.begin()
        assert pdb.read_page(t3, 0) == make_page(b"b")
        assert pdb.verify_parity() == []


class TestNoForceSpecifics:
    @pytest.fixture(params=["page-noforce-rda", "page-noforce-log"])
    def db(self, request):
        return make_db(request.param)

    def test_committed_unflushed_redone(self, db):
        t = db.begin()
        db.write_page(t, 0, make_page(b"only-in-log"))
        db.commit(t)
        assert db.disk_page(0) != make_page(b"only-in-log")
        db.crash()
        stats = db.recover()
        assert stats["redo_applied"] >= 1
        assert db.disk_page(0) == make_page(b"only-in-log")

    def test_checkpoint_bounds_redo(self, db):
        for i in range(3):
            t = db.begin()
            db.write_page(t, i, make_page(bytes([i + 1])))
            db.commit(t)
        db.checkpoint()
        t = db.begin()
        db.write_page(t, 5, make_page(b"after-cp"))
        db.commit(t)
        db.crash()
        stats = db.recover()
        assert stats["redo_applied"] == 1     # only the post-checkpoint txn
        t2 = db.begin()
        for i in range(3):
            assert db.read_page(t2, i) == make_page(bytes([i + 1]))
        assert db.read_page(t2, 5) == make_page(b"after-cp")

    def test_residue_after_loser_steal_recovers(self, db):
        """Committed-unflushed data under a loser's stolen page."""
        t = db.begin()
        db.write_page(t, 0, make_page(b"committed"))
        db.commit(t)                                  # residue on page 0
        loser = db.begin()
        db.write_page(loser, 0, make_page(b"loser"))
        spill = db.begin()
        for p in range(4, 18):
            db.write_page(spill, p, make_page(bytes([p])))
        db.commit(spill)
        db.crash()
        db.recover()
        t2 = db.begin()
        assert db.read_page(t2, 0) == make_page(b"committed")
        assert db.verify_parity() == []


class TestRecordModeCrash:
    def test_committed_record_survives(self, rdb):
        t = rdb.begin()
        slot = rdb.insert_record(t, 0, b"durable")
        rdb.commit(t)
        rdb.crash()
        rdb.recover()
        t2 = rdb.begin()
        assert rdb.read_record(t2, 0, slot) == b"durable"

    def test_loser_update_rolled_back(self, rdb):
        t = rdb.begin()
        slot = rdb.insert_record(t, 0, b"v0")
        rdb.commit(t)
        if rdb.checkpointer is not None:
            rdb.checkpoint()
        loser = rdb.begin()
        rdb.update_record(loser, 0, slot, b"v1")
        spill = rdb.begin()
        for p in range(1, 14):
            rdb.insert_record(spill, p, b"spill")
        rdb.commit(spill)
        rdb.crash()
        rdb.recover()
        t2 = rdb.begin()
        assert rdb.read_record(t2, 0, slot) == b"v0"
        assert rdb.verify_parity() == []

    def test_interleaved_txns_on_one_page(self, rdb):
        setup = rdb.begin()
        a = rdb.insert_record(setup, 0, b"aaa")
        b = rdb.insert_record(setup, 0, b"bbb")
        rdb.commit(setup)
        winner, loser = rdb.begin(), rdb.begin()
        rdb.update_record(winner, 0, a, b"WIN")
        rdb.update_record(loser, 0, b, b"LOSE")
        rdb.commit(winner)
        rdb.crash()
        rdb.recover()
        t = rdb.begin()
        assert rdb.read_record(t, 0, a) == b"WIN"
        assert rdb.read_record(t, 0, b) == b"bbb"

    def test_loser_insert_and_delete_undone(self, rdb):
        setup = rdb.begin()
        keep = rdb.insert_record(setup, 0, b"keep")
        rdb.commit(setup)
        if rdb.checkpointer is not None:
            rdb.checkpoint()
        loser = rdb.begin()
        ghost = rdb.insert_record(loser, 0, b"ghost")
        rdb.delete_record(loser, 0, keep)
        spill = rdb.begin()
        for p in range(1, 14):
            rdb.insert_record(spill, p, b"spill")
        rdb.commit(spill)
        rdb.crash()
        rdb.recover()
        t = rdb.begin()
        assert rdb.read_record(t, 0, keep) == b"keep"
        with pytest.raises(KeyError):
            rdb.read_record(t, 0, ghost)


def test_restore_reads_each_page_once():
    """What a record-mode restart transfers: the twin scan (2 per
    group), the log reads redo charges, and per restored page one read
    to apply the record images to, its data write and its group's twin
    write — what ``page_base`` read is the write's old data (it was
    read again by the write, a = 4, before PR 19) and what the scan
    read is the write's old parity (read again, a = 3, before PR 23:
    re-pinned from ``1 + 3`` a page)."""
    db = make_db("record-noforce-rda")
    setup = db.begin()
    slots = {page: db.insert_record(setup, page, b"v0") for page in (0, 5, 9)}
    db.commit(setup)
    db.checkpoint()
    for page, slot in slots.items():
        t = db.begin()
        db.update_record(t, page, slot, b"v1")
        db.commit(t)                    # ¬FORCE: durable in the log only
    db.crash()
    log_before = db.stats.log_transfers
    stats = db.recover()
    log_reads = db.stats.log_transfers - log_before
    assert stats["redo_applied"] == 3 and log_reads > 0
    groups = db.array.geometry.num_groups
    assert stats["page_transfers"] == (2 * groups + (1 + 2) * len(slots)
                                       + log_reads)
    t = db.begin()
    for page, slot in slots.items():
        assert db.read_record(t, page, slot) == b"v1"
    assert db.verify_parity() == []


@pytest.mark.parametrize("name, parent_transfers",
                         [("record-noforce-rda", 41),
                          ("record-noforce-log", 25)])
def test_restore_reads_and_writes_each_groups_parity_once(name,
                                                          parent_transfers):
    """Six restored pages in three parity groups ({0, 1, 2}, {5, 6},
    {9}): the restart transfers 2 × (pages − groups) fewer than the
    per-page restore loop did on this script (41 on the twin array — a
    16-transfer twin scan, one log read, 1 + 3 per page — and 25 on
    single parity), the same saving on either substrate.  Re-pinned by
    PR 23: on the twin array each group's one parity read is gone too,
    the scan already made it."""
    db = make_db(name)
    pages = (0, 1, 2, 5, 6, 9)
    setup = db.begin()
    slots = {page: db.insert_record(setup, page, b"v0") for page in pages}
    db.commit(setup)
    db.checkpoint()
    for page, slot in slots.items():
        t = db.begin()
        db.update_record(t, page, slot, b"v1")
        db.commit(t)                    # ¬FORCE: durable in the log only
    db.crash()
    stats = db.recover()
    assert stats["redo_applied"] == len(pages)
    groups = {db.array.geometry.group_of(page) for page in pages}
    in_hand = len(groups) if db.array.supports_twins else 0
    assert stats["page_transfers"] == \
        parent_transfers - 2 * (len(pages) - len(groups)) - in_hand
    t = db.begin()
    for page, slot in slots.items():
        assert db.read_record(t, page, slot) == b"v1"
    assert db.verify_parity() == []


# -- the restore writes only what the disk lacks (PR 22) -------------------

PRICED_PRESETS = ["page-noforce-rda", "page-noforce-log", "record-noforce-rda",
                  "record-noforce-log", "record-force-rda",
                  "record-noforce-rda-redo"]


def restore_spans(db) -> list:
    """Attributes of the ``restore`` phase span of every restart so far."""
    return [event["attrs"] for event in db.tracer.sink.events()
            if event["name"] == "recovery.phase"
            and event["attrs"]["phase"] == "restore"]


def build_priced_restart(name, k: int, u: int):
    """A crashed database whose restart finds ``k`` pages of parity
    group 1 in its log, ``u`` of which the disk already holds.  Returns
    it with what the restart will count: the pages in its cache, the
    bases redo/undo will have in hand, the pages the byte test will
    drop and the records the header test will skip.

    ¬FORCE: a winner's k pages, u of them evicted to disk after the
    commit; redo replays all k since no checkpoint followed — whole
    images under page logging (no base), records onto the base it reads
    otherwise.  On a twin array the eviction stamped the page's LSN on
    the twin, so redo skips the u pages' records and they never enter
    the cache; single parity has no header to ask, caches all k and
    drops u by their bytes.  REDO-only knows the u evicted pages current
    by their durable page LSN.  FORCE redoes nothing: a loser shares the
    k pages the winner's commit forced to disk, and on u of them it
    rewrote its record with the bytes it already had, so undoing those
    changes nothing."""
    db = make_db(name, tracer=Tracer(RingBufferSink()))
    pages = db.array.geometry.group_pages(1)[:k]
    vouched = u if db.array.supports_twins else 0   # by a twin header
    if not db.config.record_logging:
        winner = db.begin()
        for page in pages:
            db.write_page(winner, page, make_page(b"win%d" % page))
        db.commit(winner)
        for page in pages[:u]:
            assert db.buffer.flush_page(page)
        db.crash()
        return db, k - vouched, 0, u - vouched, vouched
    setup = db.begin()
    slots = {(page, who): db.insert_record(setup, page, who + b"-")
             for page in pages for who in (b"w", b"l")}
    db.commit(setup)
    if db.checkpointer is None:                 # FORCE
        winner, loser = db.begin(), db.begin()
        for i, page in enumerate(pages):
            db.update_record(winner, page, slots[page, b"w"], b"w%d" % page)
            db.update_record(loser, page, slots[page, b"l"],
                             b"l-" if i < u else b"l%d" % page)
        db.commit(winner)
        db.crash()
        return db, k, k, u, 0
    db.checkpoint()
    winner = db.begin()
    for page in pages:
        db.update_record(winner, page, slots[page, b"w"], b"w%d" % page)
    db.commit(winner)
    for page in pages[:u]:
        assert db.buffer.flush_page(page)
    db.crash()
    if db.policy.redo_only:
        return db, k - u, k - u, 0, 0
    return db, k - vouched, k - vouched, u - vouched, vouched


@pytest.mark.parametrize("name", PRICED_PRESETS)
@pytest.mark.parametrize("k, u", [(3, 0), (3, 1), (3, 2), (3, 3), (1, 1)])
def test_restore_costs_its_base_reads_and_what_differs(name, k, u):
    """k pages of one group in the log, u already on disk: one base
    read per cached page redo did not read, then k − u data writes and
    the twin write — or nothing at all when u = k.  Re-pinned by PR 23
    on the twin presets: the group's twin read is the scan's (``+ 1``
    where single parity keeps ``+ 2``), and on the two ¬FORCE ones the
    u pages are skipped by their header, so they cost no base read and
    ``pages_unchanged`` is 0."""
    db, cached, bases, unchanged, skipped = build_priced_restart(name, k, u)
    labels = []
    stats = db.recover(fault_hook=labels.append)
    (restore,) = restore_spans(db)
    twin_read = 0 if db.array.supports_twins else 1
    assert restore["transfers"] == \
        (cached - bases) + (k - u > 0) * (k - u + 1 + twin_read)
    assert restore["writes"] == (k - u > 0) * (k - u + 1)
    assert stats["pages_unchanged"] == unchanged
    assert stats["redo_skipped"] == skipped
    assert restore["pages"] == cached
    assert restore.get("unchanged", 0) == unchanged
    assert [label for label in labels if label.startswith("restore")] == (
        [f"restore page {page}"
         for page in db.array.geometry.group_pages(1)[u:k]]
        + ["restore parity group 1"] * (k > u))
    assert db.verify_parity() == []


def array_writes(db) -> dict:
    """Data and parity writes per disk (log devices have negative ids)."""
    return {disk: count for disk, count in db.stats.per_disk_writes.items()
            if disk >= 0}


@pytest.mark.parametrize("name", PRICED_PRESETS)
def test_a_restart_after_a_completed_restart_writes_nothing(name):
    """crash, recover, crash, recover with nothing in between: whatever
    the second restart restores again is what the first left on disk,
    so it writes no data page and no parity, fires no restore label,
    and transfers only its twin scan, its log reads and one base read
    per page.  Re-pinned by PR 23: not even the base reads on the two
    RDA ¬FORCE presets — the first restart stamped what it restored, so
    the second skips all three pages' records by their headers."""
    db, *_ = build_priced_restart(name, 3, 1)
    first = db.recover()
    writes = array_writes(db)
    db.crash()
    labels = []
    log_before = db.stats.log_transfers
    second = db.recover(fault_hook=labels.append)
    log_reads = db.stats.log_transfers - log_before
    assert array_writes(db) == writes
    assert labels == ["abort records"]
    # ¬FORCE replays the winner's three pages again; the first restart
    # aborted the FORCE loser, and advanced REDO-only's page LSNs
    replayed = 3 if db.checkpointer is not None and not db.policy.redo_only \
        else 0
    again = 0 if db.array.supports_twins else replayed
    assert second["redo_skipped"] == replayed - again
    assert second["pages_unchanged"] == again
    assert restore_spans(db)[1]["pages"] == again
    scan = 2 * db.array.geometry.num_groups if db.array.supports_twins else 0
    assert second["page_transfers"] == scan + log_reads + again
    assert second["winners"] == first["winners"]
    assert db.verify_parity() == []


def test_restore_on_a_degraded_array_compares_with_the_reconstructed_base():
    """The disk of a restored page failed with the crash: its base is a
    degraded read (mates + parity), and when that equals the redone
    image the page is dropped like any other — the lost disk gets the
    page from the rebuild, not from the restore."""
    db = make_db("page-noforce-log")
    pages = db.array.geometry.group_pages(1)[:3]
    winner = db.begin()
    for page in pages:
        db.write_page(winner, page, make_page(b"win%d" % page))
    db.commit(winner)
    assert db.buffer.flush_page(pages[1])
    db.crash()
    victim = db.array.geometry.data_address(pages[1]).disk
    db.media_failure(victim)
    labels = []
    stats = db.recover(fault_hook=labels.append)
    assert stats["pages_unchanged"] == 1
    assert f"restore page {pages[1]}" not in labels
    db.media_recover(victim)
    for page in pages:
        assert db.disk_page(page) == make_page(b"win%d" % page)
    assert db.verify_parity() == []


def test_an_unwritten_group_keeps_its_winners_working_header_until_the_seal():
    """A committed unlogged steal leaves a WORKING header on disk (commit
    is a memory-only flip).  Redo finds the stolen page already current,
    so the restore does not write the group and the header stays — the
    state of any group a restart does not touch: the crash scan resolves
    it against the commit set, and ``trim_log`` seals it before the
    commit record can go."""
    db = make_db("page-noforce-rda")
    winner = db.begin()
    db.write_page(winner, 5, make_page(b"stolen"))
    assert db.buffer.flush_page(5)                  # rides the twins
    db.commit(winner)
    group = db.array.geometry.group_of(5)
    db.crash()
    labels = []
    stats = db.recover(fault_hook=labels.append)
    assert stats["pages_unchanged"] == 1 and labels == ["abort records"]
    working = [which for which in range(2)
               if db.array.peek_twin(group, which)[1].state
               is TwinState.WORKING]
    assert working == [db.rda.current_twin(group)]
    db.checkpoint()
    db.trim_log()
    assert db.array.peek_twin(group, working[0])[1].state \
        is TwinState.COMMITTED
    db.crash()
    assert db.recover()["parity_undone_pages"] == 0
    assert db.committed_view(5) == make_page(b"stolen")
    assert db.verify_parity() == []


HISTORY_PRESETS = ["page-force-rda", "page-noforce-rda", "page-noforce-log",
                   "record-force-rda", "record-noforce-rda",
                   "record-noforce-rda-redo"]


@pytest.mark.parametrize("name", HISTORY_PRESETS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_history_restart_leaves_the_oracle_on_disk(name, data):
    """Committed, aborted and in-flight transactions over a few values
    (so rewrites of what the disk holds happen), random evictions, then
    a crash: after the restart every page reads as the oracle says,
    from a new reader and on the disk itself — the pages the restore
    wrote and the ones it counted unchanged alike — the parity is
    consistent, and every restored page was either written or counted."""
    db = make_db(name, tracer=Tracer(RingBufferSink()), group_size=3,
                 num_groups=4, buffer_capacity=5)
    pages = range(db.num_data_pages)
    if db.config.record_logging:
        slots = {}
        for page in pages:      # a transaction a page: the REDO-only
            setup = db.begin()  # gate holds an uncommitted frame back
            for i in range(2):
                slots[page, i] = db.insert_record(setup, page, b"-")
            db.commit(setup)
        oracle = dict.fromkeys(slots, b"-")

        def write(txn, cell, value):
            db.update_record(txn, cell[0], slots[cell], value)

        def read(image, cell):
            return SlottedPage.from_bytes(image).read(slots[cell])
    else:
        oracle = {(page, 0): b"" for page in pages}

        def write(txn, cell, value):
            db.write_page(txn, cell[0], make_page(value))

        def read(image, cell):
            return image[:1] if any(image) else b""

    live = {}

    def restart_and_check():
        db.crash()
        live.clear()
        before = [db.disk_page(page) for page in pages]
        labels = []
        stats = db.recover(fault_hook=labels.append)
        for cell, value in oracle.items():
            assert read(db.committed_view(cell[0]), cell) == value
            assert read(db.disk_page(cell[0]), cell) == value
        assert db.verify_parity() == []
        restore = restore_spans(db)[-1]
        written = [label for label in labels
                   if label.startswith("restore page")]
        assert restore["pages"] == len(written) + stats["pages_unchanged"]
        assert stats["pages_unchanged"] <= sum(
            db.disk_page(page) == before[page] for page in pages)

    for _ in range(data.draw(st.integers(5, 30), label="steps")):
        action = data.draw(st.sampled_from(
            ["begin", "write", "write", "commit", "abort", "flush",
             "checkpoint", "restart"]), label="action")
        if action == "begin" and len(live) < 3:
            live[db.begin()] = {}
        elif action == "write" and live:
            txn = data.draw(st.sampled_from(sorted(live)), label="txn")
            cell = data.draw(st.sampled_from(sorted(oracle)), label="cell")
            value = data.draw(st.sampled_from([b"a", b"b", b"-"]),
                              label="value")
            try:
                write(txn, cell, value)
            except (LockWait, DeadlockError, BufferFullError):
                continue    # the REDO-only gate can pin a whole small pool
            live[txn][cell] = value
        elif action == "commit" and live:
            txn = data.draw(st.sampled_from(sorted(live)), label="ctxn")
            db.commit(txn)
            oracle.update(live.pop(txn))
        elif action == "abort" and live:
            txn = data.draw(st.sampled_from(sorted(live)), label="atxn")
            db.abort(txn)
            del live[txn]
        elif action == "flush":
            db.buffer.flush_page(data.draw(st.sampled_from(pages),
                                           label="fpage"))
        elif action == "checkpoint" and db.checkpointer is not None:
            db.checkpoint()
        elif action == "restart":
            restart_and_check()
    restart_and_check()


# -- spend the scan: the header test and the twin in hand (PR 23) -----------


@pytest.mark.parametrize("name", ["page-noforce-rda", "record-noforce-rda"])
def test_a_committed_steal_is_dropped_by_its_bytes_not_its_header(name):
    """A page stolen while its writer was active was stamped with the
    LSN forced *then*, below the records the writer went on to commit:
    the header cannot vouch for them.  Redo applies them (a base read),
    and the byte test finds the disk already there."""
    db = make_db(name)
    winner = db.begin()
    if db.config.record_logging:
        db.insert_record(winner, 5, b"stolen")
    else:
        db.write_page(winner, 5, make_page(b"stolen"))
    assert db.buffer.flush_page(5)                  # rides the twins
    assert db.counters.unlogged_steals == 1
    db.commit(winner)
    db.crash()
    stats = db.recover()
    assert (stats["redo_skipped"], stats["redo_applied"],
            stats["pages_unchanged"]) == (0, 1, 1)
    assert db.verify_parity() == []


def test_a_rewound_page_answers_with_its_pre_steal_lsn():
    """Page 5 committed and flushed (stamped), then stolen by a loser:
    parity undo makes the committed twin current again, and its entry —
    not the working twin's newer one — is what redo asks.  The winner's
    record is skipped, the loser's steal is gone."""
    db = make_db("page-noforce-rda")
    winner = db.begin()
    db.write_page(winner, 5, make_page(b"kept"))
    db.commit(winner)
    assert db.buffer.flush_page(5)
    loser = db.begin()
    db.write_page(loser, 5, make_page(b"lost"))
    assert db.buffer.flush_page(5)
    assert db.counters.unlogged_steals == 1
    db.crash()
    stats = db.recover()
    assert stats["parity_undone_pages"] == 1
    assert (stats["redo_skipped"], stats["redo_applied"]) == (1, 0)
    assert db.disk_page(5) == make_page(b"kept")
    assert db.verify_parity() == []


def lose_log_tail(db, first_lost_lsn: int) -> None:
    """Both duplex copies lose everything from ``first_lost_lsn`` on —
    forced or not — in a way restart reads as a torn tail: the record's
    length field is damaged, so it runs past the end of the log."""
    log = db.redo_log
    offset = sum(r.serialized_size for r in log.records()
                 if r.lsn < first_lost_lsn)
    for copy in (0, 1):
        log.damage_copy(copy, offset + 31)      # payload_len's top byte


def test_a_stamp_the_log_lost_is_zeroed_before_it_can_lie():
    """The one way a stamp can lie: the log loses *forced* records, so
    the LSNs a twin header already carries are issued again.  The crash
    scan zeroes every entry at or above the recovered log's next LSN and
    seals the header durably (one counted write) before anything is
    appended; a later winner that reuses those LSNs is then redone."""
    db = make_db("record-noforce-rda")
    setup = db.begin()
    slot = db.insert_record(setup, 0, b"v0")
    db.commit(setup)
    kept = db.redo_log.last_lsn
    first = db.begin()
    db.update_record(first, 0, slot, b"v1")
    db.commit(first)
    assert db.buffer.flush_page(0)
    group, current = 0, db.rda.current_twin(0)
    stamp = db.array.peek_twin(group, current)[1].page_lsns[0]
    assert stamp == db.redo_log.forced_lsn > kept

    db.crash()
    lose_log_tail(db, kept + 1)
    writes = db.stats.writes
    sealed = []

    def at_first_write(label):
        if not sealed:          # the scan is done, the restore is not
            sealed.append((db.array.peek_twin(group, current)[1].page_lsns,
                           db.stats.writes - writes))

    stats = db.recover(fault_hook=at_first_write)
    assert stats["winners"] == [setup] and db.redo_log.next_lsn <= stamp
    # the header's one entry zeroed, by the one write made so far
    assert sealed == [((0, 0, 0, 0), 1)]
    # the restart then put back what its log says (the lost update is
    # lost) and stamped that with the log end it recovered
    assert db.array.peek_twin(group, current)[1].page_lsns[0] == kept

    second = db.begin()
    db.update_record(second, 0, slot, b"v2")
    db.commit(second)                           # not evicted
    reissued = [r.lsn for r in db.redo_log.records() if r.txn_id == second]
    assert min(reissued) <= stamp               # the old stamp would cover it
    db.crash()
    stats = db.recover()
    # the update is redone; what is skipped is the setup's insert, which
    # the first restart's restore wrote and vouched for
    assert (stats["redo_applied"], stats["redo_skipped"]) == (1, 1)
    t = db.begin()
    assert db.read_record(t, 0, slot) == b"v2"
    assert db.verify_parity() == []


@pytest.mark.parametrize("num_groups", [8, 40])
def test_kept_twins_are_bounded_by_the_log_not_by_g(num_groups):
    """The scan keeps the current twin of the groups the redo tail and
    the losers' undo records name, whatever G: none with an empty tail,
    and none survives the restart's return or a crash()."""
    kept = []
    db = make_db("page-noforce-rda", num_groups=num_groups)
    scan = db.rda.crash_scan

    def spy(*args, **kwargs):
        losers = scan(*args, **kwargs)
        kept.append(set(db.rda._scanned))
        return losers

    db.rda.crash_scan = spy
    winner = db.begin()
    for page in (0, 1, 9):
        db.write_page(winner, page, make_page(b"w%d" % page))
    db.commit(winner)
    db.crash()
    db.recover()
    group_of = db.array.geometry.group_of
    assert kept.pop() == {group_of(0), group_of(9)}
    assert db.rda._scanned == {}                    # all spent

    db.checkpoint()                                 # empties the redo tail
    db.crash()
    db.recover()
    assert kept.pop() == set()

    loser = db.begin()                              # a logged steal: undo
    db.write_page(loser, 1, make_page(b"lose"))     # names its group
    db.write_page(loser, 2, make_page(b"lose"))
    assert db.buffer.flush_page(1) and db.buffer.flush_page(2)
    db.crash()

    def die(label):
        if label.startswith("restore"):
            assert db.rda._scanned == {}    # spent by the group being written
            raise RuntimeError(label)

    with pytest.raises(RuntimeError):
        db.recover(fault_hook=die)
    assert kept.pop() == {group_of(1)} and db.rda._scanned == {}
    db.crash()
    db.recover()
    assert kept.pop() == {group_of(1)} and db.rda._scanned == {}
    assert db.verify_parity() == []


def test_an_interrupted_restarts_span_says_so():
    """The ``recovery.restart`` span of a restart the fault seam kills
    carries the exception's name; a completed one carries none."""
    db = make_db("page-noforce-rda", tracer=Tracer(RingBufferSink()))
    winner = db.begin()
    db.write_page(winner, 0, make_page(b"w"))
    db.commit(winner)
    db.crash()

    def die(label):
        raise KeyboardInterrupt(label)

    with pytest.raises(KeyboardInterrupt):
        db.recover(fault_hook=die)
    db.crash()
    db.recover()
    errors = [event["attrs"].get("error")
              for event in db.tracer.sink.events()
              if event["name"] == "recovery.restart"]
    assert errors == ["KeyboardInterrupt", None]


class RestartDied(Exception):
    pass


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_shared_page_history_keeps_the_page_lsns_honest(data):
    """Record mode, 2–4 transactions sharing every page: committed,
    aborted and in-flight work with random evictions, checkpoints,
    crashes and crashes inside the restart.  After every step the twin
    headers vouch for nothing the disk lacks (``twin-page-lsn``, with
    every other online rule at its barriers); after every restart a new
    reader sees the oracle."""
    db = make_db("record-noforce-rda", group_size=3, num_groups=2,
                 buffer_capacity=4)
    engine = InvariantEngine.attach(db)
    rule = TwinPageLsnRule()
    pages = range(db.num_data_pages)
    slots = {}
    for page in pages:
        setup = db.begin()
        for i in range(4):
            slots[page, i] = db.insert_record(setup, page, b"-")
        db.commit(setup)
    oracle = dict.fromkeys(slots, b"-")
    live = {}

    def restart(die_at=None):
        db.crash()
        live.clear()
        if die_at is not None:
            seen = []

            def hook(label):
                seen.append(label)
                if len(seen) == die_at:
                    raise RestartDied(label)
            try:
                db.recover(fault_hook=hook)
            except RestartDied:
                assert db.rda._scanned == {}
                db.crash()
                db.recover()
        else:
            db.recover()
        for cell, value in oracle.items():
            image = SlottedPage.from_bytes(db.committed_view(cell[0]))
            assert image.read(slots[cell]) == value
        assert db.verify_parity() == []

    for _ in range(data.draw(st.integers(5, 40), label="steps")):
        action = data.draw(st.sampled_from(
            ["begin", "write", "write", "write", "commit", "abort", "flush",
             "flush", "checkpoint", "restart", "die"]), label="action")
        if action == "begin" and len(live) < 4:
            live[db.begin()] = {}
        elif action == "write" and live:
            txn = data.draw(st.sampled_from(sorted(live)), label="txn")
            cell = data.draw(st.sampled_from(sorted(oracle)), label="cell")
            value = data.draw(st.sampled_from([b"a", b"b", b"-"]),
                              label="value")
            try:
                db.update_record(txn, cell[0], slots[cell], value)
            except (LockWait, DeadlockError, BufferFullError):
                continue
            live[txn][cell] = value
        elif action == "commit" and live:
            txn = data.draw(st.sampled_from(sorted(live)), label="ctxn")
            db.commit(txn)
            oracle.update(live.pop(txn))
        elif action == "abort" and live:
            txn = data.draw(st.sampled_from(sorted(live)), label="atxn")
            db.abort(txn)
            del live[txn]
        elif action == "flush":
            db.buffer.flush_page(data.draw(st.sampled_from(pages),
                                           label="fpage"))
        elif action == "checkpoint":
            db.checkpoint()
        elif action == "restart":
            restart()
        elif action == "die":
            restart(die_at=data.draw(st.integers(1, 6), label="die_at"))
        assert rule.check(db, "steal", {}) == []
        engine.assert_clean()
    restart()
    engine.assert_clean()


class TestMediaRecovery:
    @pytest.mark.parametrize("name", PAGE_PRESETS)
    def test_single_disk_failure_full_rebuild(self, name):
        db = make_db(name)
        for p in range(0, db.num_data_pages, 3):
            t = db.begin()
            db.write_page(t, p, make_page(bytes([p % 250 + 1])))
            db.commit(t)
        if db.checkpointer is not None:
            db.checkpoint()
        else:
            db.buffer.flush_all_dirty()
        db.media_failure(2)
        db.media_recover(2)
        for p in range(0, db.num_data_pages, 3):
            assert db.disk_page(p) == make_page(bytes([p % 250 + 1])), (name, p)
        assert db.verify_parity() == []

    def test_degraded_reads_while_failed(self):
        db = make_db("page-force-rda")
        t = db.begin()
        db.write_page(t, 0, make_page(b"v"))
        db.commit(t)
        victim = db.array.geometry.data_address(0).disk
        db.media_failure(victim)
        t2 = db.begin()
        assert db.read_page(t2, 0) == make_page(b"v")   # degraded read
        db.media_recover(victim)
        assert db.disk_page(0) == make_page(b"v")

    def test_rebuild_with_active_dirty_group(self):
        db = make_db("page-force-rda")
        db.load_pages({0: make_page(b"base")})
        t = db.begin()
        db.write_page(t, 0, make_page(b"active"))
        spill = db.begin()
        for p in range(4, 18):
            db.write_page(spill, p, make_page(bytes([p])))
        db.commit(spill)
        group = db.array.geometry.group_of(0)
        assert db.rda.dirty_set.is_dirty(group)
        victim = db.array.geometry.data_address(0).disk
        db.media_failure(victim)
        db.media_recover(victim)
        # undo capability survived the rebuild
        db.abort(t)
        assert db.disk_page(0) == make_page(b"base")
