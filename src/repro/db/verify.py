"""Whole-database consistency verification.

:func:`verify_database` sweeps every invariant the recovery protocols
promise and returns a list of human-readable violations (empty = clean).
Used by the failure campaigns and handy as a post-incident check in
examples and operations:

* **parity**: each group's current twin equals the XOR of its data;
* **twins**: at most one WORKING twin owned by an *active* transaction
  per group; the Dirty_Set agrees with the twin headers it asserts;
* **buffer**: every uncommitted modifier registered in a frame is an
  active transaction;
* **log**: per-transaction chains are well-formed (BOT first, at most
  one EOT, no records after the EOT), and the duplex copies match;
* **records** (record mode): every page parses as a slotted page.
"""

from __future__ import annotations

from ..storage.page import NO_TXN, TwinState
from ..wal.records import (AbortRecord, BOTRecord, CommitRecord)
from .slotted_page import SlottedPage


def verify_database(db) -> list:
    """Run every check against ``db``; returns violation strings.

    A :class:`~repro.db.sharded.ShardedDatabase` is verified shard by
    shard (violations are prefixed with the shard index) plus its
    global commit log's duplex integrity.
    """
    if getattr(db, "shards", None) is not None:
        # through the facade's scatter: worker-process shards verify
        # inside their workers, concurrently
        problems = [f"shard {i}: {problem}"
                    for i, found in enumerate(db._gather("verify"))
                    for problem in found]
        problems += _check_log(db.commit_log)
        return problems
    problems = []
    problems += _check_parity(db)
    problems += _check_twins(db)
    problems += _check_buffer(db)
    problems += _check_log(db.undo_log)
    if db.redo_log is not db.undo_log:
        problems += _check_log(db.redo_log)
    if db.config.record_logging:
        problems += _check_slotted_pages(db)
    return problems


def _check_parity(db) -> list:
    bad = db.verify_parity()
    return [f"parity mismatch in group {group}" for group in bad]


def _check_twins(db) -> list:
    if db.rda is None:
        return []
    problems = []
    active = {t.txn_id for t in db.txns.active_transactions()}
    for group in range(db.array.geometry.num_groups):
        headers = [db.array.peek_twin(group, which)[1] for which in range(2)]
        owned = [h for h in headers
                 if h.state is TwinState.WORKING and h.txn_id in active]
        if len(owned) > 1:
            problems.append(
                f"group {group}: two WORKING twins owned by active txns")
        entry = db.rda.dirty_set.get(group)
        if entry is not None:
            header = headers[entry.working_twin]
            if header.txn_id != entry.txn_id:
                problems.append(
                    f"group {group}: Dirty_Set names txn {entry.txn_id} "
                    f"but the twin header says {header.txn_id}")
            if header.state is not TwinState.WORKING:
                problems.append(
                    f"group {group}: Dirty_Set working twin not WORKING "
                    f"({header.state.name})")
        elif owned:
            problems.append(
                f"group {group}: active WORKING twin (txn "
                f"{owned[0].txn_id}) missing from the Dirty_Set")
    return problems


def _check_buffer(db) -> list:
    problems = []
    active = {t.txn_id for t in db.txns.active_transactions()}
    for page in db.buffer.resident_pages():
        for txn_id in db.buffer.modifiers_of(page):
            if txn_id not in active:
                problems.append(
                    f"page {page}: frame names finished txn {txn_id} "
                    "as an uncommitted modifier")
    return problems


def _check_log(log) -> list:
    problems = []
    if not log.verify_duplex():
        problems.append(f"log {log.name}: duplex copies diverge")
    per_txn: dict = {}
    # verify_database judges BOT/EOT order over every retained record
    for record in log.records():
        if record.txn_id == 0 or record.txn_id == NO_TXN:
            continue
        state = per_txn.setdefault(record.txn_id,
                                   {"bot": False, "eot": False})
        if isinstance(record, BOTRecord):
            if state["bot"]:
                problems.append(
                    f"log {log.name}: duplicate BOT for txn {record.txn_id}")
            state["bot"] = True
        elif isinstance(record, (CommitRecord, AbortRecord)):
            if state["eot"]:
                problems.append(
                    f"log {log.name}: second EOT for txn {record.txn_id}")
            state["eot"] = True
        elif state["eot"]:
            problems.append(
                f"log {log.name}: record after EOT for txn {record.txn_id}")
    return problems


def _check_slotted_pages(db) -> list:
    problems = []
    for page in range(db.num_data_pages):
        try:
            SlottedPage.from_bytes(db.disk_page(page))
        except Exception as error:  # noqa: BLE001 - any parse failure counts
            problems.append(f"page {page}: unparseable slotted page ({error})")
    return problems
