"""Property tests for the log manager's full lifecycle.

Random interleavings of appends, forces, truncations and crashes must
preserve: LSNs strictly increasing among surviving records, `get`
agreeing with `records()`, duplex copies identical, and every surviving
record being one that was (a) appended, (b) not lost to a crash, and
(c) at or above the truncation floor.  A crash may rewind the unforced
tail, after which its LSN *positions* are legitimately reused — exactly
like a real WAL overwriting a torn tail.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (LogCorruptionError, TornRecordError,
                          UnrecoverableDataError)
from repro.wal import (NULL_LSN, AbortRecord, BOTRecord, CheckpointRecord,
                       CommitRecord, LogManager, PageAfterImage,
                       PageBeforeImage, PageRedoEntry, RecordAfterEntry,
                       RecordBeforeEntry, RecordRedoEntry, deserialize)


def lifecycle(data):
    """One random life of a log: appends, forces, trims and crashes."""
    log = LogManager(page_size=data.draw(st.sampled_from([64, 256, 2048]),
                                         label="page_size"),
                     transfers_per_log_page=1)
    shadow = {}            # lsn -> txn_id of appended records
    floor = 1              # lowest lsn that may still exist
    appended_lsns = []

    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        action = data.draw(st.sampled_from(
            ["append", "append_big", "force", "truncate", "crash"]),
            label="action")
        if action == "append":
            txn = data.draw(st.integers(1, 9), label="txn")
            lsn = log.append(BOTRecord(txn_id=txn))
            assert lsn not in shadow            # unique among the living
            shadow[lsn] = txn
            appended_lsns.append(lsn)
        elif action == "append_big":
            txn = data.draw(st.integers(1, 9), label="btxn")
            lsn = log.append(PageBeforeImage(txn_id=txn, page_id=1,
                                             image=b"x" * 100))
            assert lsn not in shadow
            shadow[lsn] = txn
            appended_lsns.append(lsn)
        elif action == "force":
            log.force()
        elif action == "truncate" and appended_lsns:
            cut = data.draw(st.sampled_from(appended_lsns), label="cut")
            log.truncate_before(cut)
            floor = max(floor, cut)
        elif action == "crash":
            log.crash()
            log.after_crash()
            # records above the durable point died; their positions may
            # be reused by future appends
            shadow = {lsn: txn for lsn, txn in shadow.items()
                      if lsn <= log.last_lsn}
            appended_lsns = [lsn for lsn in appended_lsns
                             if lsn <= log.last_lsn]

    assert log.verify_duplex()
    survivors = log.records()
    lsns = [r.lsn for r in survivors]
    assert lsns == sorted(lsns)
    assert len(set(lsns)) == len(lsns)
    for record in survivors:
        assert record.lsn in shadow
        assert record.lsn >= floor
        assert record.txn_id == shadow[record.lsn]
        assert log.get(record.lsn) is record
    # next appends still work and keep growing
    new_lsn = log.append(BOTRecord(txn_id=99))
    assert new_lsn > max(lsns, default=0)
    assert new_lsn not in shadow


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_log_lifecycle_invariants(data):
    lifecycle(data)


@pytest.mark.soak
@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_log_lifecycle_invariants_soak(data):
    lifecycle(data)


# -- the lazy index against an eager parse ---------------------------------

TXNS = st.integers(1, 4)
PAGES = st.integers(0, 5)
IMAGES = st.binary(max_size=24)
SLOTS = st.integers(0, 3)
ANY_RECORD = st.one_of(
    st.builds(BOTRecord, txn_id=TXNS),
    st.builds(CommitRecord, txn_id=TXNS),
    st.builds(AbortRecord, txn_id=TXNS),
    st.builds(PageBeforeImage, txn_id=TXNS, page_id=PAGES, image=IMAGES),
    st.builds(PageAfterImage, txn_id=TXNS, page_id=PAGES, image=IMAGES),
    st.builds(RecordBeforeEntry, txn_id=TXNS, page_id=PAGES, slot=SLOTS,
              image=IMAGES),
    st.builds(RecordAfterEntry, txn_id=TXNS, page_id=PAGES, slot=SLOTS,
              image=IMAGES),
    st.builds(CheckpointRecord, txn_id=st.just(0),
              active_txns=st.lists(TXNS, max_size=3).map(tuple),
              flushed_pages=st.lists(PAGES, max_size=3).map(tuple)),
    st.builds(PageRedoEntry, txn_id=TXNS, page_id=PAGES, image=IMAGES),
    st.builds(RecordRedoEntry, txn_id=TXNS, page_id=PAGES, slot=SLOTS,
              image=IMAGES),
)


def eager_parse(copies: list, start: int = 0) -> tuple:
    """The oracle: every copy parsed record by record with
    ``deserialize`` from byte ``start``, the longest valid run kept —
    ``(records, its bytes)`` — and a refusal when log bytes past
    ``start`` exist but every copy ends in a CRC or type failure."""
    best, prefix, any_clean = [], b"", False
    for blob in copies:
        records, offset, clean = [], start, True
        try:
            while offset < len(blob):
                record, offset = deserialize(blob, offset)
                records.append(record)
        except TornRecordError:
            pass
        except LogCorruptionError:
            clean = False
        any_clean = any_clean or clean
        if len(records) > len(best):
            best, prefix = records, blob[start:offset]
    if any(len(blob) > start for blob in copies) and not any_clean:
        raise UnrecoverableDataError("every copy is corrupt")
    return best, prefix


def anchor_of(copies: list, carried: list):
    """The oldest anchor the copies carry, if every copy carries one and
    its checkpoint record parses at its offset on some copy, with the
    lowest redo point the copies carry, no later than it (None: none
    does) — or None."""
    if None in carried:
        return None
    oldest = min(carried, key=lambda anchor: anchor.lsn)
    for blob in copies:
        try:
            record, _ = deserialize(blob, oldest.offset)
        except (TornRecordError, LogCorruptionError):
            continue
        if isinstance(record, CheckpointRecord) and record.lsn == oldest.lsn:
            lagged = [(anchor.redo, anchor.redo_offset) for anchor in carried
                      if anchor.redo is not None]
            redo, offset = (min(*lagged, (oldest.lsn, oldest.offset))
                            if lagged else (None, None))
            return oldest._replace(redo=redo, redo_offset=offset)
    return None


def merged_parse(copies: list, end: int, offset: int = 0) -> tuple:
    """The records from byte ``offset`` to ``end`` (before the redo
    point, or from it to the anchor), each parsed from whichever copy
    holds it intact: ``(records, their bytes, lost)``, ``lost`` True
    when a record no copy holds intact ended the walk."""
    records, clean = [], b""
    while offset < end:
        for blob in copies:
            try:
                record, following = deserialize(blob[:end], offset)
                break
            except (TornRecordError, LogCorruptionError):
                continue
        else:
            return records, clean, True
        records.append(record)
        clean += blob[offset:following]
        offset = following
    return records, clean, False


class EagerModel:
    """What a log holding ``records`` (parsed, or appended since) must
    answer, computed from the record objects alone."""

    def __init__(self, records: list, next_lsn: int, forced_lsn: int,
                 device_bytes: bytes, walk_start: int = NULL_LSN) -> None:
        self.records = records
        self.next_lsn = next_lsn
        self.base_lsn = records[0].lsn if records else next_lsn
        self.forced_lsn = forced_lsn
        self.device_bytes = device_bytes
        # the first LSN the last restart checked: a page's previous
        # record before it is linked only if a read indexed it since
        self.walk_start = walk_start

    def last_of(self, key) -> int:
        return max((r.lsn for r in self.records if key(r)), default=NULL_LSN)

    def links(self, record) -> tuple:
        """``(lsn, prev_lsn, prev_page_lsn)`` an append must give the
        record (``prev_page_lsn`` None for an unchained type)."""
        prev = (self.last_of(lambda r: r.txn_id == record.txn_id)
                if record.txn_id else record.prev_lsn)
        prev_page = (self.last_of(lambda r: r.page_chained
                                  and r.page_id == record.page_id)
                     if record.page_chained else None)
        return self.next_lsn, prev, prev_page

    def add(self, record) -> None:
        self.next_lsn = record.lsn + 1
        self.records.append(record)
        self.device_bytes += record.serialize()

    def truncate_before(self, lsn: int) -> None:
        lsn = min(max(lsn, self.base_lsn), self.next_lsn)
        dropped = [r for r in self.records if r.lsn < lsn]
        self.records = [r for r in self.records if r.lsn >= lsn]
        self.base_lsn = lsn
        if not self.records:
            self.forced_lsn = NULL_LSN
        cut = sum(r.serialized_size for r in dropped)
        self.device_bytes = self.device_bytes[cut:]

    def chain(self, txn_id: int) -> list:
        by_lsn = {r.lsn: r for r in self.records}
        lsn = self.last_of(lambda r: r.txn_id == txn_id)
        out = []
        while lsn in by_lsn:
            out.append(by_lsn[lsn])
            lsn = by_lsn[lsn].prev_lsn
        return out


def assert_agrees(log, model: EagerModel) -> None:
    # the header-only answers first: they decode nothing
    decoded = log.records_decoded
    assert log.last_checkpoint_lsn() == model.last_of(
        lambda r: isinstance(r, CheckpointRecord))
    for cls in (BOTRecord, CommitRecord, AbortRecord):
        assert log.txn_ids(cls) == {r.txn_id for r in model.records
                                    if isinstance(r, cls)}
    assert {page: log.page_chain_head(page) for page in range(6)
            if log.page_chain_head(page)} == {
        r.page_id: r.lsn for r in model.records if r.page_chained}
    assert (log.base_lsn, log.next_lsn, log.forced_lsn) == (
        model.base_lsn, model.next_lsn, model.forced_lsn)
    assert log.last_lsn == (model.records[-1].lsn if model.records
                            else NULL_LSN)
    assert [d.contents for d in log._devices] == [model.device_bytes] * 2
    assert log.records_decoded == decoded
    for txn_id in range(1, 5):
        assert log.records_of(txn_id) == model.chain(txn_id)
    for record in model.records:
        assert log.get(record.lsn) == record
    assert log.records() == model.records
    if model.records:
        middle = model.records[len(model.records) // 2].lsn
        assert log.records_from(middle) == [r for r in model.records
                                            if r.lsn >= middle]


def assert_lost(log, prefix: list, suffix: list, lost: range) -> None:
    """A record before the anchor that every copy lost: reads that need
    it refuse, the rest answer as the parse does."""
    for record in prefix:
        assert log.get(record.lsn) == record
    for lsn in lost:
        with pytest.raises(UnrecoverableDataError):
            log.get(lsn)
    assert log.records_from(lost.stop) == suffix
    with pytest.raises(UnrecoverableDataError):
        log.records()
    known = {r.lsn: r for r in prefix + suffix}
    for txn_id in range(1, 5):
        newest = max((r.lsn for r in suffix if r.txn_id == txn_id),
                     default=None)
        chain, lsn = [], newest
        while lsn in known:
            chain.append(known[lsn])
            lsn = known[lsn].prev_lsn
        if newest is None or (lsn != NULL_LSN and lsn in lost):
            with pytest.raises(UnrecoverableDataError):
                log.records_of(txn_id)
        else:
            assert log.records_of(txn_id) == chain


def damaged_reads(log, model: EagerModel, offset: int) -> None:
    """One byte of copy 0 damaged between restarts: every read still
    answers as the model does — a record not yet decoded is checked on
    copy 0 and read from its mate when that fails.  The log before the
    anchor is checked (and healed) first, so the mate is intact; the
    byte is put back after."""
    assert log.base_lsn == model.base_lsn       # decodes nothing
    log.damage_copy(0, offset)
    assert log.records() == model.records
    for record in model.records:
        assert log.get(record.lsn) == record
    log.damage_copy(0, offset)


def lazy_index(data):
    """One random life of a log against an eager parse of its bytes."""
    log = LogManager(page_size=data.draw(st.sampled_from([64, 256, 2048]),
                                         label="page_size"))
    model = EagerModel([], 1, NULL_LSN, b"")
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        action = data.draw(st.sampled_from(
            ["append", "append", "append", "force", "truncate", "restart",
             "checkpoint", "damaged read"]), label="action")
        if action == "checkpoint":
            record = CheckpointRecord(txn_id=0, active_txns=(1,),
                                      bot_lsns=(model.base_lsn,),
                                      next_txn_id=5)
            assert log.append_anchor(record) == model.links(record)[0]
            model.add(record)
            model.forced_lsn = record.lsn
            assert log.anchor == record.lsn
            assert log.transaction_table() == record.transaction_table
        elif action == "append":
            # a commit window: one append_batch call, one to three records
            window = data.draw(st.lists(ANY_RECORD, min_size=1, max_size=3),
                               label="window")
            assert log.append_batch(window) == model.next_lsn + len(window) - 1
            for record in window:
                lsn, prev, prev_page = model.links(record)
                assert record.lsn == lsn
                assert record.prev_lsn == prev
                if prev_page is not None:
                    assert record.prev_page_lsn == prev_page or (
                        record.prev_page_lsn == NULL_LSN
                        and prev_page < model.walk_start)
                model.add(record)
        elif action == "damaged read":
            if log.size_bytes:
                damaged_reads(log, model, data.draw(
                    st.integers(0, log.size_bytes - 1), label="offset"))
        elif action == "force":
            log.force()
            if model.records:
                model.forced_lsn = model.records[-1].lsn
        elif action == "truncate":
            cut = data.draw(st.integers(model.base_lsn - 1,
                                        model.next_lsn + 1), label="cut")
            log.truncate_before(cut)
            model.truncate_before(cut)
        else:
            log.crash()
            for copy in data.draw(st.sampled_from([(), (0,), (1,), (0, 1)]),
                                  label="damaged"):
                if log.size_bytes:
                    log.damage_copy(copy, data.draw(
                        st.integers(0, log.size_bytes - 1), label="offset"))
            copies = [device.contents for device in log._devices]
            anchor = anchor_of(copies, [d.anchor for d in log._devices])
            start = walk = 0 if anchor is None else anchor.offset
            if anchor is not None and anchor.redo is not None:
                walk = anchor.redo_offset
            # from the redo point to the anchor record by record, from
            # the anchor on the longest run
            below, checked, lost = merged_parse(copies, start, walk)
            try:
                if lost:
                    raise UnrecoverableDataError("both copies lost one")
                records, tail = eager_parse(copies, start)
            except UnrecoverableDataError:
                with pytest.raises(UnrecoverableDataError):
                    log.after_crash()
                return
            records, tail = below + records, checked + tail
            assert log.after_crash() == len(records)
            assert log.anchor == (anchor.lsn if anchor else NULL_LSN)
            prefix, clean, lost = merged_parse(copies, walk)
            if lost:
                first_lost = prefix[-1].lsn + 1 if prefix else NULL_LSN
                assert_lost(log, prefix, records,
                            range(first_lost, records[0].lsn))
                return
            # a log that lost its whole tail keeps counting LSNs on
            model = EagerModel(prefix + records, records[-1].lsn + 1
                               if records else model.next_lsn,
                               records[-1].lsn if records else NULL_LSN,
                               clean + tail, records[0].lsn if records
                               else model.next_lsn)
            if data.draw(st.booleans(), label="read below the anchor now"):
                continue        # or leave it unchecked for the next step
        assert_agrees(log, model)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_lazy_index_answers_like_an_eager_parse(data):
    """Random records of all ten types appended in windows of one to
    three, forces, trims, checkpoints appended as the restart anchor,
    single-byte damage to copy 0 read through between restarts, and
    crashes with single-byte damage to either copy or both: at every
    restart the log's answers — records, every LSN, every chain, the
    header-only analysis answers, the LSN horizons, the device bytes
    after a trim, the chain links of later appends — are an eager
    parse's.  From the anchor on the parse is the longest valid run and
    the log refuses exactly when it refuses; before the anchor each
    record comes from whichever copy holds it intact, and a read
    refuses only if it needs one no copy holds."""
    lazy_index(data)


@pytest.mark.soak
@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_the_lazy_index_answers_like_an_eager_parse_soak(data):
    lazy_index(data)
