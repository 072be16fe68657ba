"""The REDO-only restart reads the log from its anchor's redo point.

Each ACC anchor carries the first LSN a restart's REDO may need: the
lowest write-back marker + 1 of the pages whose chain head is past
their marker (no lower than the previous anchor's).  The restart walks
the log from there, not from its first retained record, and so does
the trim.  Two checks:

* a differential hypothesis script over both REDO presets — commits,
  aborts, a transaction left open across checkpoints (the gate keeps
  its pages, so they lag), trims and crashes — in which every
  restart's replay set equals the whole-log filter the class used
  before, kept here as the oracle;
* the 6-segment probe: six crash/restart cycles of 200 transactions,
  whose restarts used to check the whole log (1 578 → 9 460 records on
  the pure class) and now check a bounded read, with the same records
  replayed and the same transfers.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import verify_database
from repro.db import Database, preset
from repro.sim import Simulator, WorkloadSpec
from repro.storage import make_page
from repro.wal import NULL_LSN, CommitRecord

PRESETS = ["page-noforce-redo", "record-noforce-rda-redo"]


def whole_log_replay(db) -> list:
    """The oracle: the LSNs a restart must replay, read off a copy of
    the whole retained log — every winner's chained record past its
    page's write-back marker."""
    log = copy.deepcopy(db.redo_log)
    durable = db._durable_page_lsn
    winners = log.txn_ids(CommitRecord)
    return [r.lsn for r in log.records()
            if r.page_chained and r.txn_id in winners
            and r.lsn > durable.get(r.page_id, NULL_LSN)]


class JudgedRedo:
    """The database's discipline, with each restart's replay set (the
    records its redo charges) held to the oracle's."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.restarts = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def restart_redo(self, db, restart) -> tuple:
        expected = whole_log_replay(db)
        log = db.redo_log
        charged = []
        real = log.charge_read
        log.charge_read = lambda records: (
            charged.append([r.lsn for r in records]), real(records))[1]
        try:
            applied, skipped = self.inner.restart_redo(db, restart)
        finally:
            del log.charge_read
        assert charged == [expected]
        assert applied == len(expected)
        self.restarts += 1
        return applied, skipped


def seeded(name: str) -> Database:
    db = Database(preset(name, group_size=4, num_groups=6,
                         buffer_capacity=8, checkpoint_interval=50))
    if db.config.record_logging:
        db.format_record_pages(range(db.num_data_pages))
        for group in range(db.config.num_groups):
            txn = db.begin()
            for page in db.array.geometry.group_pages(group):
                db.insert_record(txn, page, b"seed")
            db.commit(txn)
    db.policy.discipline = JudgedRedo(db.policy.discipline)
    return db


def write(db, txn: int, page: int, value: int) -> None:
    if db.config.record_logging:
        db.update_record(txn, page, 0, b"v%d" % value)
    else:
        db.write_page(txn, page, make_page(b"v%d" % value))


def assert_committed(db, reference: dict) -> None:
    """Every page reads back the value its last commit wrote."""
    txn = db.begin()
    for page, value in reference.items():
        if db.config.record_logging:
            assert db.read_record(txn, page, 0) == b"v%d" % value
        else:
            assert db.read_page(txn, page) == make_page(b"v%d" % value)
    db.commit(txn)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_restart_replays_what_the_whole_log_filter_replays(data):
    db = seeded(data.draw(st.sampled_from(PRESETS), label="preset"))
    pages = range(db.num_data_pages)
    held: dict = {}         # the open transaction's page -> value
    opened = None
    committed: list = []    # pages with a commit since the checkpoint
    reference: dict = {}    # page -> the value its last commit wrote
    value = 0
    for _ in range(data.draw(st.integers(4, 24), label="steps")):
        step = data.draw(st.sampled_from(
            ["txn", "txn", "txn", "open", "end", "checkpoint", "trim",
             "crash"]), label="step")
        if step == "txn":
            txn = db.begin()
            free = [page for page in pages if page not in held]
            written = data.draw(st.lists(st.sampled_from(free), min_size=1,
                                         max_size=3, unique=True),
                                label="pages")
            values = {}
            for page in written:
                value += 1
                write(db, txn, page, value)
                values[page] = value
            if data.draw(st.booleans(), label="commit"):
                db.commit(txn)
                committed += written
                reference.update(values)
            else:
                db.abort(txn)
        elif step == "open" and opened is None:
            # a transaction left open across checkpoints on pages with
            # committed records past their markers: the gate keeps them
            # buffered, so they lag at the anchors it spans
            opened = db.begin()
            for page in data.draw(st.lists(st.sampled_from(
                    committed or list(pages)), min_size=1, max_size=2,
                    unique=True), label="held"):
                value += 1
                write(db, opened, page, value)
                held[page] = value
        elif step == "end" and opened is not None:
            if data.draw(st.booleans(), label="end commit"):
                db.commit(opened)
                reference.update(held)
            else:
                db.abort(opened)
            opened, held = None, {}
        elif step == "checkpoint":
            db.checkpoint()
            committed = []
        elif step == "trim":
            db.trim_log()
        elif step == "crash":
            db.crash()
            db.recover()
            opened, held = None, {}
            assert_committed(db, reference)
    db.crash()
    db.recover()
    assert db.policy.discipline.restarts >= 1
    assert_committed(db, reference)
    assert verify_database(db) == []


@pytest.mark.parametrize("name", PRESETS)
def test_a_lagging_page_holds_the_redo_point_and_the_trim_back(name):
    """A page whose committed record the gate keeps from a checkpoint
    (a live transaction modifies it) lags there: the anchor's redo
    point lies before the anchor, at the page's record, and a trim and
    a restart both keep the log from it."""
    db = seeded(name)
    txn = db.begin()
    write(db, txn, 0, 1)
    db.commit(txn)
    record = db.redo_log.page_chain_head(0)
    live = db.begin()
    write(db, live, 0, 2)
    db.checkpoint()
    log = db.redo_log
    assert log.redo_point <= record < log.anchor
    db.trim_log()
    assert log.base_lsn <= record
    db.crash()
    assert db.recover()["redo_applied"] >= 1
    assert_committed(db, {0: 1})
    assert verify_database(db) == []


def probe(name: str) -> tuple:
    """Six segments of 200 transactions, a crash and a restart after
    each: ``(each restart's stats, the log's records at each)``."""
    db = Database(preset(name, num_groups=100, buffer_capacity=64,
                         checkpoint_interval=200))
    sim = Simulator(db, WorkloadSpec(), seed=7)
    if db.config.record_logging:
        sim.seed_records()
    restarts, held = [], []
    for segment in range(1, 7):
        sim.run(200 * segment)
        db.crash()
        restarts.append(db.recover())
        held.append(db.redo_log.next_lsn - 1)
    return restarts, held


def test_the_restart_read_no_longer_grows_with_history():
    """On both REDO presets each restart checks the records from its
    anchor's redo point: the read stays bounded while the retained log
    grows (it used to be all of it, 1 578 → 9 460 records on the pure
    class, 2 211 → 10 222 on the hybrid), and redo replays the same
    records at the same transfers, naming the same parity groups for
    the scrub, as the whole-log read did."""
    same = {
        "page-noforce-redo": ([100, 68, 82, 87, 86, 95],
                              [237, 200, 226, 213, 226, 206],
                              [48, 46, 48, 45, 46, 44]),
        "record-noforce-rda-redo": ([77, 99, 74, 80, 86, 97],
                                    [329, 370, 350, 337, 343, 370],
                                    [49, 61, 48, 49, 53, 54]),
    }
    for name, (applied, transfers, scrubbed) in same.items():
        restarts, held = probe(name)
        checked = [stats["log_records"] for stats in restarts]
        assert [stats["redo_applied"] for stats in restarts] == applied
        assert [stats["page_transfers"] for stats in restarts] == transfers
        assert [stats["groups_scrubbed"] for stats in restarts] == scrubbed
        assert checked[0] < held[0]
        assert max(checked) <= 2 * checked[0], checked
        assert checked[-1] * 4 < held[-1], (checked, held)
