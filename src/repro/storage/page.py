"""Fixed-size pages, XOR algebra, and parity-page headers.

The unit of I/O throughout the library is a *page* of :data:`PAGE_SIZE`
bytes, matching the paper's cost unit (the page transfer).  Parity pages
additionally carry a small header used by the twin-page scheme of
Section 4.2 of the paper:

* a **timestamp** that orders the two parity twins (algorithm
  ``Current_Parity``, Figure 7),
* the **transaction id** of the updater while the twin is *working*,
* the **index of the dirty data page** within the parity group (so crash
  recovery knows which page to reconstruct), and
* the twin **state** (committed / obsolete / working / invalid,
  Figure 8), and
* the group's **page LSNs**: per data page, a redo-log LSN the page (in
  the version this twin's parity describes) is known to have reached —
  what lets restart's redo skip a record the disk already holds.

Headers pack to :func:`header_size` bytes (:data:`HEADER_SIZE` plus
eight per page LSN) with :func:`pack_header` /
:func:`unpack_header`; the simulated disks store them out-of-band next to
the page payload so that parity XOR stays a whole-page operation (a real
implementation would reserve the first bytes of the parity sector; the
separation only simplifies the simulation and is noted in DESIGN.md).
"""

from __future__ import annotations

import struct
from enum import Enum
from functools import partial
from typing import NamedTuple

from . import kernels as _kernels

PAGE_SIZE = 512
"""Bytes per page.  Small enough to keep full-array tests fast, large
enough that XOR bugs cannot hide in a couple of bytes."""

ZERO_PAGE = bytes(PAGE_SIZE)
"""The all-zero page: parity identity element and initial disk contents."""

HEADER_SIZE = 32
"""Packed size of a :class:`ParityHeader` without page LSNs (struct
``<qqiiII``: the four fields, the LSN count, the magic trailer)."""

_HEADER_STRUCT = struct.Struct("<qqiiII")
_HEADER_MAGIC = 0xDBA5C0DE

NO_TXN = -1
"""Sentinel transaction id for headers not owned by any transaction."""

NO_PAGE = -1
"""Sentinel dirty-page index for groups with no unlogged dirty page."""


class TwinState(Enum):
    """Lifecycle of one parity twin (paper Figure 8).

    COMMITTED  holds the parity of the last committed state of the group.
    OBSOLETE   the other twin; its contents are stale.
    WORKING    holds parity reflecting an update by an active transaction.
    INVALID    the updating transaction aborted; contents are meaningless.
    """

    COMMITTED = 0
    OBSOLETE = 1
    WORKING = 2
    INVALID = 3


class ParityHeader(NamedTuple):
    """Metadata carried by each parity twin.  Immutable; a named tuple
    because one is built for every page written back.

    Attributes:
        timestamp: monotonically increasing stamp; the twin with the
            larger committed timestamp is the current parity.
        txn_id: owner transaction while ``state`` is WORKING, else
            :data:`NO_TXN`.
        dirty_page_index: index (0..N-1) within the parity group of the
            single page written back without UNDO logging, else
            :data:`NO_PAGE`.
        state: the :class:`TwinState` of this twin.
        page_lsns: one redo-log LSN per data page of the group, in
            member order; empty means all unknown (0).  Entry ``i`` says
            the on-disk page ``i`` — in the version this twin's parity
            describes — reflects every committed record for it with an
            LSN at or below the entry.  The vector moves exactly with
            the parity: a twin write that absorbs page ``i``'s delta
            sets entry ``i`` and carries the others over from the twin
            its payload was seeded from.
    """

    timestamp: int = 0
    txn_id: int = NO_TXN
    dirty_page_index: int = NO_PAGE
    state: TwinState = TwinState.OBSOLETE
    page_lsns: tuple = ()

    def with_(self, **changes) -> "ParityHeader":
        """Return a copy with the given fields replaced."""
        return self._replace(**changes)


new_header = partial(tuple.__new__, ParityHeader)
"""``new_header((timestamp, txn_id, dirty_page_index, state, page_lsns))``:
a :class:`ParityHeader` from all five fields, built in C.  Calling the
class runs the named tuple's Python-level ``__new__``, a frame that only
forwards the fields to ``tuple.__new__``; every steal of a commit window
builds one header, and takes this instead."""


def header_size(page_lsns: int) -> int:
    """Packed size of a header carrying ``page_lsns`` page LSNs."""
    return HEADER_SIZE + 8 * page_lsns


def pack_header(header: ParityHeader) -> bytes:
    """Serialize a :class:`ParityHeader` to :func:`header_size` bytes:
    the fixed part, then the page LSNs."""
    lsns = header.page_lsns
    return _HEADER_STRUCT.pack(
        header.timestamp,
        header.txn_id,
        header.dirty_page_index,
        header.state.value,
        len(lsns),
        _HEADER_MAGIC,
    ) + struct.pack(f"<{len(lsns)}q", *lsns)


def unpack_header(blob: bytes) -> ParityHeader:
    """Deserialize bytes produced by :func:`pack_header`.

    Raises:
        ValueError: if the magic trailer is wrong or the blob is not
            exactly as long as its LSN count says.
    """
    if len(blob) < HEADER_SIZE:
        raise ValueError(
            f"parity header needs {HEADER_SIZE} bytes, got {len(blob)}")
    timestamp, txn_id, dirty_index, state_value, count, magic = \
        _HEADER_STRUCT.unpack_from(blob)
    if magic != _HEADER_MAGIC:
        raise ValueError("bad parity-header magic; header corrupt")
    if len(blob) != header_size(count):
        raise ValueError(
            f"parity header with {count} page LSNs must be "
            f"{header_size(count)} bytes, got {len(blob)}")
    return ParityHeader(
        timestamp=timestamp,
        txn_id=txn_id,
        dirty_page_index=dirty_index,
        state=TwinState(state_value),
        page_lsns=struct.unpack_from(f"<{count}q", blob, HEADER_SIZE),
    )


def xor_pages(*pages: bytes) -> bytes:
    """XOR any number of pages together.

    With zero arguments this returns the zero page (the XOR identity),
    which makes parity computation over an empty set well defined.

    The reduction happens in one batched kernel call (see
    :mod:`repro.storage.kernels`), so a k-page rebuild accumulation
    costs one vector op, not k-1 pairwise passes.

    Raises:
        ValueError: if any operand is not exactly :data:`PAGE_SIZE` bytes.
    """
    for page in pages:
        if len(page) != PAGE_SIZE:
            raise ValueError(f"xor_pages operand has {len(page)} bytes, want {PAGE_SIZE}")
    if not pages:
        return ZERO_PAGE
    return _kernels.active.xor_accumulate(pages, PAGE_SIZE)


def xor_into(accumulator: bytearray, page: bytes) -> None:
    """XOR ``page`` into ``accumulator`` in place (hot path for rebuilds)."""
    if len(page) != PAGE_SIZE or len(accumulator) != PAGE_SIZE:
        raise ValueError("xor_into operands must be full pages")
    _kernels.active.xor_inplace(accumulator, page)


def make_page(fill: bytes | str | int = b"") -> bytes:
    """Build a :data:`PAGE_SIZE` page from a short fill pattern.

    Accepts bytes, a str (UTF-8 encoded), or a single int byte value.
    The pattern is repeated to fill the page; an empty pattern yields the
    zero page.  Intended for tests and examples.
    """
    if isinstance(fill, int):
        if not 0 <= fill <= 255:
            raise ValueError("int fill must be a byte value 0..255")
        return bytes([fill]) * PAGE_SIZE
    if isinstance(fill, str):
        fill = fill.encode("utf-8")
    if not fill:
        return ZERO_PAGE
    reps = -(-PAGE_SIZE // len(fill))
    return (fill * reps)[:PAGE_SIZE]


def compute_parity(data_pages: list) -> bytes:
    """Parity of a whole group: XOR of all its data pages."""
    return xor_pages(*data_pages)


def reconstruct_before_image(working_parity: bytes, committed_parity: bytes,
                             new_data: bytes) -> bytes:
    """The paper's undo identity:  D_old = (P ⊕ P') ⊕ D_new.

    ``working_parity`` is the twin reflecting the uncommitted update and
    ``committed_parity`` the twin holding the last committed parity of the
    group.  Because the working parity was derived from the committed one
    by XORing out the old data and XORing in the new, their XOR is exactly
    ``D_old ⊕ D_new``; XORing the new data recovers the before-image.
    """
    return xor_pages(working_parity, committed_parity, new_data)
