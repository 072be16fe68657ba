"""Tests for log record serialization."""

import json
import pathlib
import struct
import sys
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LogCorruptionError, TornRecordError
from repro.wal import records as records_module
from repro.wal.records import (AbortRecord, BOTRecord, CheckpointRecord,
                               CommitRecord, PageAfterImage, PageBeforeImage,
                               PageRedoEntry, RecordAfterEntry,
                               RecordBeforeEntry, RecordRedoEntry, RecordType,
                               deserialize)

simple_records = st.one_of(
    st.builds(BOTRecord, txn_id=st.integers(1, 1000)),
    st.builds(CommitRecord, txn_id=st.integers(1, 1000)),
    st.builds(AbortRecord, txn_id=st.integers(1, 1000)),
)
page_records = st.one_of(
    st.builds(PageBeforeImage, txn_id=st.integers(1, 1000),
              page_id=st.integers(0, 10_000), image=st.binary(max_size=64)),
    st.builds(PageAfterImage, txn_id=st.integers(1, 1000),
              page_id=st.integers(0, 10_000), image=st.binary(max_size=64)),
)
record_records = st.one_of(
    st.builds(RecordBeforeEntry, txn_id=st.integers(1, 1000),
              page_id=st.integers(0, 10_000), slot=st.integers(0, 100),
              image=st.binary(max_size=64)),
    st.builds(RecordAfterEntry, txn_id=st.integers(1, 1000),
              page_id=st.integers(0, 10_000), slot=st.integers(0, 100),
              image=st.binary(max_size=64)),
)
chained_records = st.one_of(
    st.builds(PageRedoEntry, txn_id=st.integers(1, 1000),
              page_id=st.integers(0, 10_000),
              prev_page_lsn=st.integers(0, 1 << 40),
              image=st.binary(max_size=64)),
    st.builds(RecordRedoEntry, txn_id=st.integers(1, 1000),
              page_id=st.integers(0, 10_000), slot=st.integers(0, 100),
              prev_page_lsn=st.integers(0, 1 << 40),
              image=st.binary(max_size=64)),
)
checkpoint_records = st.builds(
    CheckpointRecord, txn_id=st.just(0),
    active_txns=st.tuples(st.integers(1, 99)),
    flushed_pages=st.tuples(st.integers(0, 99)),
)
any_record = st.one_of(simple_records, page_records, record_records,
                       chained_records, checkpoint_records)


class TestRoundTrip:
    @given(any_record)
    def test_serialize_deserialize(self, record):
        record.lsn = 7
        record.prev_lsn = 3
        blob = record.serialize()
        parsed, offset = deserialize(blob)
        assert offset == len(blob)
        assert parsed == record
        assert type(parsed) is type(record)

    @given(st.lists(any_record, min_size=1, max_size=6))
    def test_concatenated_stream(self, records):
        blob = b""
        for lsn, record in enumerate(records, start=1):
            record.lsn = lsn
            blob += record.serialize()
        offset, parsed = 0, []
        while offset < len(blob):
            record, offset = deserialize(blob, offset)
            parsed.append(record)
        assert parsed == records

    @given(any_record)
    def test_serialized_size_matches(self, record):
        assert record.serialized_size == len(record.serialize())


class TestCorruption:
    def test_truncated_header(self):
        with pytest.raises(TornRecordError):
            deserialize(b"\x01\x02")

    def test_truncated_payload(self):
        blob = PageBeforeImage(txn_id=1, page_id=2, image=b"abcdef").serialize()
        with pytest.raises(TornRecordError):
            deserialize(blob[:-2])

    def test_flipped_header_bit_fails_the_crc_before_the_type_is_read(self):
        blob = bytearray(BOTRecord(txn_id=1).serialize())
        blob[0] = 0xEE              # the type field: no such record type
        with pytest.raises(LogCorruptionError, match="CRC") as raised:
            deserialize(bytes(blob))
        assert not isinstance(raised.value, TornRecordError)

    def test_unknown_type(self):
        """A record whose CRC holds but whose type no decoder claims."""
        prefix = struct.pack("<IqqqI", 0xEE, 7, 1, 0, 0)
        blob = prefix + struct.pack("<I", zlib.crc32(b"", zlib.crc32(prefix)))
        with pytest.raises(LogCorruptionError, match="unknown record type 238"):
            deserialize(blob)


ONE_OF_EACH = [
    BOTRecord(txn_id=1), CommitRecord(txn_id=1), AbortRecord(txn_id=1),
    PageBeforeImage(txn_id=1, page_id=2, image=bytes(512)),
    PageAfterImage(txn_id=1, page_id=2, image=bytes(512)),
    RecordBeforeEntry(txn_id=1, page_id=2, slot=3, image=b"old"),
    RecordAfterEntry(txn_id=1, page_id=2, slot=3, image=b"new"),
    CheckpointRecord(txn_id=0, active_txns=(4, 5), flushed_pages=(6,)),
    PageRedoEntry(txn_id=1, page_id=2, prev_page_lsn=9, image=bytes(512)),
    RecordRedoEntry(txn_id=1, page_id=2, slot=3, prev_page_lsn=9,
                    image=b"new"),
]


class TestDecodeTable:
    def test_one_decoder_per_record_type(self):
        assert set(records_module._DECODERS) == {t.value for t in RecordType}
        assert {type(r).record_type for r in ONE_OF_EACH} == set(RecordType)

    @pytest.mark.parametrize("record", ONE_OF_EACH,
                             ids=lambda r: type(r).__name__)
    def test_a_record_decodes_in_at_most_three_frames(self, record):
        """``deserialize``, the table's decoder, the dataclass
        ``__init__`` — in any file (5 to 6 before the table: an ``Enum``
        call is two stdlib frames).  A checkpoint's payload is a JSON
        document, one per ACC checkpoint: what the ``json`` package runs
        to parse it is not the decoder's."""
        blob = record.serialize()
        json_dir = str(pathlib.Path(json.__file__).parent)
        frames = []

        def profiler(frame, event, arg):
            code = frame.f_code
            if event == "call" and not code.co_filename.startswith(json_dir):
                frames.append(code.co_name)

        sys.setprofile(profiler)
        try:
            parsed, _ = deserialize(blob)
        finally:
            sys.setprofile(None)
        assert parsed == record and type(parsed) is type(record)
        assert len(frames) <= 3, frames


class TestSemantics:
    def test_record_types_distinct(self):
        seen = {cls.record_type for cls in
                (BOTRecord, CommitRecord, AbortRecord, PageBeforeImage,
                 PageAfterImage, RecordBeforeEntry, RecordAfterEntry,
                 CheckpointRecord, PageRedoEntry, RecordRedoEntry)}
        assert len(seen) == 10
        assert seen == set(RecordType)

    def test_bot_is_small(self):
        """BOT/EOT records are tiny (the model's l_bc = 16 bytes)."""
        assert BOTRecord(txn_id=1).serialized_size <= 40

    def test_page_image_dominated_by_payload(self):
        image = bytes(512)
        record = PageBeforeImage(txn_id=1, page_id=0, image=image)
        assert record.serialized_size < 512 + 60
