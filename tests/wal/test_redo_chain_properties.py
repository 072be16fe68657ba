"""Property tests for the per-page redo chains and their replay.

The REDO-only restart rests on two algebraic properties of chain
replay (absolute after-images applied forward in LSN order):

* **idempotent** — replaying a chain over a page that already reflects
  it (or any part of it) changes nothing;
* **prefix-closed** — after applying any prefix of the chain, the page
  equals the image of the prefix's last record, and replaying the
  remaining suffix reaches the same final state as a full replay.

Together they make single-page recovery and crash-during-recovery
safe: restart may begin from *any* durable page version at or behind
the chain head.  The chain-level tests exercise the
:class:`~repro.wal.log.LogManager` threading directly; the engine-level
tests drive whole REDO-only databases through random committed
workloads, crash them (including mid-recovery), and require
convergence to the committed reference state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import verify_database
from repro.db import Database, preset
from repro.storage import make_page
from repro.storage.page import ZERO_PAGE
from repro.wal import NULL_LSN, LogManager, PageRedoEntry

# ---------------------------------------------------------------------------
# chain-level: LogManager threading + replay algebra
# ---------------------------------------------------------------------------


def replay(records, base: bytes, floor: int = 0) -> bytes:
    """Forward chain replay: apply every record past ``floor``."""
    image = base
    for record in sorted(records, key=lambda r: r.lsn):
        if record.lsn > floor:
            image = record.image
    return image


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chain_threading_and_replay_algebra(data):
    log = LogManager(name="redo", page_size=256, transfers_per_log_page=1)
    pages = list(range(data.draw(st.integers(1, 4), label="pages")))
    per_page = {page: [] for page in pages}
    for step in range(data.draw(st.integers(1, 25), label="appends")):
        page = data.draw(st.sampled_from(pages), label="page")
        record = PageRedoEntry(txn_id=1 + step % 3, page_id=page,
                               image=b"%d:%d" % (page, step))
        log.append(record)
        per_page[page].append(record)

    for page, chain in per_page.items():
        # the head is the newest record; prev_page_lsn walks the chain
        # back through exactly this page's records, newest first
        if not chain:
            assert log.page_chain_head(page) == NULL_LSN
            continue
        assert log.page_chain_head(page) == chain[-1].lsn
        walked = []
        lsn = log.page_chain_head(page)
        while lsn != NULL_LSN:
            record = log.get(lsn)
            assert record.page_id == page
            walked.append(record)
            lsn = record.prev_page_lsn
        assert walked == list(reversed(chain))

        final = replay(chain, ZERO_PAGE)
        assert final == chain[-1].image
        # idempotent: replaying over an already-replayed page is a no-op
        assert replay(chain, final) == final
        # prefix-closed: stop anywhere, resume from there, same result
        cut = data.draw(st.integers(0, len(chain)), label="cut")
        prefix_state = replay(chain[:cut], ZERO_PAGE)
        if cut:
            assert prefix_state == chain[cut - 1].image
        assert replay(chain, prefix_state,
                      floor=chain[cut - 1].lsn if cut else 0) == final
        # replaying the full chain over any prefix state also converges
        # (restart does exactly this when the durable marker was lost)
        assert replay(chain, prefix_state) == final


# ---------------------------------------------------------------------------
# engine-level: random committed workloads, crashes, convergence
# ---------------------------------------------------------------------------

SIZES = dict(group_size=4, num_groups=6, buffer_capacity=20)


class MidRecoveryCrash(Exception):
    pass


def run_workload(db, data, reference, record_mode: bool):
    """Random committed/aborted transactions; ``reference`` tracks what
    a correct database must show afterwards."""
    pages = list(range(db.num_data_pages))
    for _ in range(data.draw(st.integers(1, 6), label="txns")):
        txn = db.begin()
        staged = {}
        for _ in range(data.draw(st.integers(1, 3), label="writes")):
            page = data.draw(st.sampled_from(pages), label="page")
            value = bytes([data.draw(st.integers(1, 250), label="byte")])
            if record_mode:
                db.update_record(txn, page, 0, value)
                staged[page] = value
            else:
                db.write_page(txn, page, make_page(value))
                staged[page] = make_page(value)
        if data.draw(st.booleans(), label="commit"):
            db.commit(txn)
            reference.update(staged)
            if data.draw(st.booleans(), label="checkpoint"):
                db.checkpoint()
        else:
            db.abort(txn)


def assert_reference_state(db, reference, record_mode: bool):
    txn = db.begin()
    for page, expected in reference.items():
        if record_mode:
            assert db.read_record(txn, page, 0) == expected
        else:
            assert db.read_page(txn, page) == expected
    db.commit(txn)
    assert verify_database(db) == []


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_redo_restart_converges_and_is_idempotent(data):
    """Crash after a random committed workload: recovery reaches the
    reference state, and recovering again from another crash (replaying
    the same chains over already-recovered pages) changes nothing."""
    name = data.draw(st.sampled_from(["page-noforce-redo",
                                      "record-noforce-rda-redo"]),
                     label="preset")
    db = Database(preset(name, **SIZES))
    record_mode = db.config.record_logging
    if record_mode:
        db.format_record_pages(range(db.num_data_pages))
        txn = db.begin()
        for page in range(db.num_data_pages):
            db.insert_record(txn, page, b"seed")
        db.commit(txn)
        db.checkpoint()
        reference = {}
    else:
        reference = {}
    run_workload(db, data, reference, record_mode)
    db.crash()
    db.recover()
    assert_reference_state(db, reference, record_mode)
    # idempotence: a second restart replays the same surviving chains
    db.crash()
    db.recover()
    assert_reference_state(db, reference, record_mode)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_redo_restart_survives_interruption_anywhere(data):
    """Prefix-closure at the system level: kill recovery at a random
    write, restart, and still converge to the reference state."""
    name = data.draw(st.sampled_from(["page-noforce-redo",
                                      "record-noforce-rda-redo"]),
                     label="preset")
    db = Database(preset(name, **SIZES))
    record_mode = db.config.record_logging
    if record_mode:
        db.format_record_pages(range(db.num_data_pages))
        txn = db.begin()
        for page in range(db.num_data_pages):
            db.insert_record(txn, page, b"seed")
        db.commit(txn)
        db.checkpoint()
    reference = {}
    run_workload(db, data, reference, record_mode)
    db.crash()

    crash_at = data.draw(st.integers(1, 5), label="crash_at")
    calls = {"n": 0}

    def hook(label):
        calls["n"] += 1
        if calls["n"] == crash_at:
            raise MidRecoveryCrash(label)

    try:
        db.recover(fault_hook=hook)
    except MidRecoveryCrash:
        db.crash()              # the machine died mid-recovery
        db.recover()
    assert_reference_state(db, reference, record_mode)
