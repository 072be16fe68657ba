"""Log record types.

The paper's recovery algorithms (Section 4.3, 5) use:

* **BOT** — written when a transaction first writes back a modified page
  (or at its first update), *before* any of its pages reach disk, so
  crash recovery knows which transactions may have touched the database;
* **COMMIT / ABORT** — the EOT records;
* **page before-images** (UNDO) and **after-images** (REDO) under page
  logging;
* **record before/after entries** under record logging (Section 5.3),
  where only the modified bytes of a record are logged;
* **checkpoint** records for the ACC discipline (active transactions and
  the dirty-page list at the action-consistent point).

Each record serializes to bytes with a fixed header so the duplexed log
can be byte-compared, sized, and re-parsed after a crash.  Records carry
``prev_lsn``, the backward per-transaction chain the paper inherits from
TWIST: rollback follows the chain instead of scanning the whole log.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from enum import Enum

from ..errors import LogCorruptionError, TornRecordError

NULL_LSN = 0
"""LSN meaning "no record" (chains terminate here)."""

# type, lsn, txn_id, prev_lsn, payload_len, crc32(header prefix + payload)
_HEADER = struct.Struct("<IqqqII")
# the CRC-covered header fields (everything before the crc32 slot);
# "<" packing is unpadded, so _PREFIX bytes + "<I" crc == _HEADER bytes
_PREFIX = struct.Struct("<IqqqI")
_CRC = struct.Struct("<I")
# payload layouts of the image-carrying records: these fields, then the
# image — each class's own field order after (txn_id, lsn, prev_lsn),
# which is what lets the decode table construct positionally
_PAGE = struct.Struct("<q")             # page_id
_SLOT = struct.Struct("<qi")            # page_id, slot
_PAGE_CHAINED = struct.Struct("<qq")    # page_id, prev_page_lsn
_SLOT_CHAINED = struct.Struct("<qiq")   # page_id, slot, prev_page_lsn


def _record_crc(prefix: bytes, payload: bytes) -> int:
    """CRC32 over the header prefix *and* the payload.

    Covering only the payload would let a torn write that lands in a
    header field (txn_id, lsn, prev_lsn) parse cleanly with silently
    altered attribution — and win duplex healing's longest-prefix tie
    against the intact mirror copy.  The stress nemesis found exactly
    that hole; every header bit is covered now.
    """
    return zlib.crc32(payload, zlib.crc32(prefix))


class RecordType(Enum):
    """Discriminator for serialized log records."""

    BOT = 1
    COMMIT = 2
    ABORT = 3
    PAGE_BEFORE = 4
    PAGE_AFTER = 5
    RECORD_BEFORE = 6
    RECORD_AFTER = 7
    CHECKPOINT = 8
    PAGE_REDO = 9
    RECORD_REDO = 10


@dataclass
class LogRecord:
    """Base log record.

    Attributes:
        txn_id: owning transaction (0 for checkpoint records).
        lsn: log sequence number, assigned by the log manager on append.
        prev_lsn: previous record of the same transaction (the log chain).
    """

    txn_id: int
    lsn: int = NULL_LSN
    prev_lsn: int = NULL_LSN

    record_type = None  # set by subclasses
    page_chained = False  # True for per-page redo-chain record types
    page_id = None  # the data page a record names; a field where it does

    def payload_bytes(self) -> bytes:
        """Type-specific payload; overridden by subclasses."""
        return b""

    def serialize(self) -> bytes:
        """Full wire form: header (with header+payload CRC32) + payload."""
        payload = self.payload_bytes()
        prefix = _PREFIX.pack(self.record_type.value, self.lsn, self.txn_id,
                              self.prev_lsn, len(payload))
        return prefix + _CRC.pack(_record_crc(prefix, payload)) + payload

    @property
    def serialized_size(self) -> int:
        """Bytes this record occupies in the log."""
        return _HEADER.size + len(self.payload_bytes())


@dataclass
class BOTRecord(LogRecord):
    """Begin-of-transaction marker (paper Section 4.3)."""

    record_type = RecordType.BOT


@dataclass
class CommitRecord(LogRecord):
    """EOT: the transaction committed."""

    record_type = RecordType.COMMIT


@dataclass
class AbortRecord(LogRecord):
    """EOT: the transaction rolled back (undo already applied)."""

    record_type = RecordType.ABORT


def _pack_page(page_id: int, payload: bytes) -> bytes:
    return _PAGE.pack(page_id) + payload


@dataclass
class PageBeforeImage(LogRecord):
    """UNDO information: the page's contents before the update."""

    record_type = RecordType.PAGE_BEFORE
    page_id: int = 0
    image: bytes = b""

    def payload_bytes(self) -> bytes:
        return _pack_page(self.page_id, self.image)


@dataclass
class PageAfterImage(LogRecord):
    """REDO information: the page's contents after the update."""

    record_type = RecordType.PAGE_AFTER
    page_id: int = 0
    image: bytes = b""

    def payload_bytes(self) -> bytes:
        return _pack_page(self.page_id, self.image)


def _pack_record(page_id: int, slot: int, payload: bytes) -> bytes:
    return _SLOT.pack(page_id, slot) + payload


@dataclass
class RecordBeforeEntry(LogRecord):
    """UNDO at record granularity: old bytes of one record."""

    record_type = RecordType.RECORD_BEFORE
    page_id: int = 0
    slot: int = 0
    image: bytes = b""

    def payload_bytes(self) -> bytes:
        return _pack_record(self.page_id, self.slot, self.image)


@dataclass
class RecordAfterEntry(LogRecord):
    """REDO at record granularity: new bytes of one record."""

    record_type = RecordType.RECORD_AFTER
    page_id: int = 0
    slot: int = 0
    image: bytes = b""

    def payload_bytes(self) -> bytes:
        return _pack_record(self.page_id, self.slot, self.image)


@dataclass
class PageRedoEntry(LogRecord):
    """REDO-only class: a chained full-page after-image.

    ``prev_page_lsn`` threads the per-*page* redo chain (distinct from
    ``prev_lsn``'s per-transaction chain): restart replays a page's
    chain forward from its on-disk state, so each record must name the
    page's previous chain link for trim safety and single-page repair.
    """

    record_type = RecordType.PAGE_REDO
    page_chained = True
    page_id: int = 0
    prev_page_lsn: int = NULL_LSN
    image: bytes = b""

    def payload_bytes(self) -> bytes:
        return _PAGE_CHAINED.pack(self.page_id, self.prev_page_lsn) + self.image


@dataclass
class RecordRedoEntry(LogRecord):
    """REDO-only class at record granularity: chained slot after-image."""

    record_type = RecordType.RECORD_REDO
    page_chained = True
    page_id: int = 0
    slot: int = 0
    prev_page_lsn: int = NULL_LSN
    image: bytes = b""

    def payload_bytes(self) -> bytes:
        return (_SLOT_CHAINED.pack(self.page_id, self.slot,
                                   self.prev_page_lsn) + self.image)


@dataclass
class CheckpointRecord(LogRecord):
    """ACC checkpoint: the action-consistent snapshot marker.

    Attributes:
        active_txns: ids of transactions active at the checkpoint.
        flushed_pages: dirty pages written out by the checkpoint.
    """

    record_type = RecordType.CHECKPOINT
    active_txns: tuple = field(default_factory=tuple)
    flushed_pages: tuple = field(default_factory=tuple)

    def payload_bytes(self) -> bytes:
        doc = {"active": list(self.active_txns),
               "flushed": list(self.flushed_pages)}
        return json.dumps(doc, separators=(",", ":")).encode("ascii")


def _plain(cls):
    """Decoder for a record that is its header alone."""
    return lambda txn_id, lsn, prev_lsn, payload: cls(txn_id, lsn, prev_lsn)


def _imaged(cls, layout: struct.Struct):
    """Decoder for a payload of ``layout`` fields followed by the image."""
    unpack, size = layout.unpack_from, layout.size
    return lambda txn_id, lsn, prev_lsn, payload: cls(
        txn_id, lsn, prev_lsn, *unpack(payload), payload[size:])


def _decode_checkpoint(txn_id, lsn, prev_lsn, payload) -> CheckpointRecord:
    doc = json.loads(payload.decode("ascii"))
    return CheckpointRecord(txn_id, lsn, prev_lsn, tuple(doc["active"]),
                            tuple(doc["flushed"]))


# raw type value -> decoder(txn_id, lsn, prev_lsn, payload): the one
# place restart turns a CRC-checked payload back into a record
_DECODERS = {
    RecordType.BOT.value: _plain(BOTRecord),
    RecordType.COMMIT.value: _plain(CommitRecord),
    RecordType.ABORT.value: _plain(AbortRecord),
    RecordType.PAGE_BEFORE.value: _imaged(PageBeforeImage, _PAGE),
    RecordType.PAGE_AFTER.value: _imaged(PageAfterImage, _PAGE),
    RecordType.RECORD_BEFORE.value: _imaged(RecordBeforeEntry, _SLOT),
    RecordType.RECORD_AFTER.value: _imaged(RecordAfterEntry, _SLOT),
    RecordType.CHECKPOINT.value: _decode_checkpoint,
    RecordType.PAGE_REDO.value: _imaged(PageRedoEntry, _PAGE_CHAINED),
    RecordType.RECORD_REDO.value: _imaged(RecordRedoEntry, _SLOT_CHAINED),
}


def deserialize(blob: bytes, offset: int = 0) -> tuple:
    """Parse one record at ``offset``; returns ``(record, next_offset)``.

    Raises:
        LogCorruptionError: on a truncated or malformed record.
    """
    size = len(blob)
    start = offset + _HEADER.size
    if start > size:
        raise TornRecordError("truncated log record header")
    type_value, lsn, txn_id, prev_lsn, payload_len, crc = _HEADER.unpack_from(
        blob, offset)
    end = start + payload_len
    if end > size:
        raise TornRecordError("truncated log record payload")
    payload = blob[start:end]
    # _record_crc, inlined: restart pays this once per record in the log
    if zlib.crc32(payload,
                  zlib.crc32(blob[offset:offset + _PREFIX.size])) != crc:
        raise LogCorruptionError("log record CRC mismatch (header or payload)")
    try:
        decode = _DECODERS[type_value]
    except KeyError:
        raise LogCorruptionError(f"unknown record type {type_value}") from None
    return decode(txn_id, lsn, prev_lsn, payload), end
