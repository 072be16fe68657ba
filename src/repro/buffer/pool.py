"""The buffer pool.

Implements the buffer-management half of the Haerder/Reuter taxonomy the
paper builds on (Section 2):

* **STEAL / NO-STEAL** — whether a page modified by an *uncommitted*
  transaction may be evicted (written back) to make room.  RDA recovery
  exists precisely to make STEAL cheap: the parity twins replace the
  UNDO log record the steal would otherwise require.
* **FORCE / NO-FORCE** — whether a committing transaction's pages are
  flushed at EOT (:meth:`BufferPool.flush_pages_of`).

The pool is storage-agnostic: misses call ``fetch_fn(page_id)`` and
every write-back — an eviction, a single-page flush, a commit window, a
checkpoint — hands ``writeback_fn`` a list of ``(page_id, payload,
modifiers)``, one entry or many.  The recovery layer supplies the
callable; it decides, page by page, between UNDO logging and parity
protection — the paper's central decision point.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial

from ..errors import BufferFullError, PageNotPinnedError
from ..obs.tracer import NULL_TRACER
from .frame import Frame


@dataclass
class BufferStats:
    """Hit/miss/steal counters; the empirical side of the model's
    communality ``C`` and steal probability ``p_s``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    steals: int = 0

    @property
    def references(self) -> int:
        """Total page references."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of references served from the buffer (≈ C)."""
        if self.references == 0:
            return 0.0
        return self.hits / self.references


# the BufferStats fields a registry exports, as ``buffer.<field>``
_PUBLISHED = ("hits", "misses", "evictions", "steals")


class BufferPool:
    """Fixed-capacity page buffer with LRU replacement — the discipline
    the paper's model assumes (a referenced page tends to stay buffered
    until EOT unless stolen under memory pressure).

    Args:
        capacity: number of frames (the model's ``B``).
        fetch_fn: ``page_id -> bytes`` used on a miss.
        writeback_fn: ``([(page_id, payload, modifiers: frozenset), ...])
            -> None``: the dirty pages to write back, in frame order —
            one entry for an eviction or :meth:`flush_page`, the whole
            window for :meth:`flush_pages_of` and :meth:`flush_all_dirty`.
            ``modifiers`` is the set of transactions with uncommitted
            changes to the page at write-back time — non-empty means
            this is a *steal*.  The callee writes each page back and
            calls :meth:`mark_clean` per page as it goes, so frame state
            tracks the write schedule; a page it leaves unmarked stays
            dirty.
        steal: allow eviction of uncommitted-dirty frames (STEAL).
        tracer: event tracer (eviction/steal events only; hits and
            misses are counted, not traced).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            it reads ``buffer.hits/misses/evictions/steals`` from
            :attr:`stats` when exported — nothing is pushed per page.
    """

    def __init__(self, capacity: int, fetch_fn, writeback_fn,
                 steal: bool = True, tracer=None, metrics=None) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        self.capacity = capacity
        self._fetch = fetch_fn
        self._writeback = writeback_fn
        self.steal = steal
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._frames = [Frame() for _ in range(capacity)]
        # page id -> frame index, least recently used first: every hit
        # moves its page to the end, every load enters there
        self._table: OrderedDict = OrderedDict()
        self.stats = BufferStats()
        # a crash resets ``stats``; a registry's series are lifetime
        # totals, so what each lost BufferStats had counted is kept here
        self._lost_counts = dict.fromkeys(_PUBLISHED, 0)
        if metrics is not None:
            for field in _PUBLISHED:
                metrics.counter("buffer." + field).add_source(
                    partial(self._lifetime_count, field))
        # the frames the page table maps no page to, as a min-heap: a
        # miss takes the lowest-indexed one in O(log B)
        self._free_heap = list(range(capacity))
        # txn id -> resident page ids it has uncommitted changes to;
        # turns flush_pages_of/clear_modifier from full-pool scans into
        # per-transaction lookups
        self._txn_pages: dict = {}
        # memoized sorted(self._table); dropped whenever residency changes
        self._resident_cache = None
        # write-behind propagation gate (REDO-only recovery class):
        # when set, a dirty frame may only be written back if
        # filter(page_id, frame) is True — pages whose redo chain is
        # not yet durable stay in the buffer
        self._writeback_filter = None

    # -- lookups -----------------------------------------------------------------

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._table

    def resident_pages(self) -> list:
        """Sorted ids of pages currently buffered."""
        cached = self._resident_cache
        if cached is None:
            cached = self._resident_cache = sorted(self._table)
        return list(cached)

    def is_dirty(self, page_id: int) -> bool:
        """True if the page is buffered and dirty."""
        index = self._table.get(page_id)
        return index is not None and self._frames[index].dirty

    def modifiers_of(self, page_id: int):
        """Frozen set of uncommitted modifiers of a buffered page."""
        index = self._table.get(page_id)
        if index is None:
            return frozenset()
        return frozenset(self._frames[index].modifiers)

    # -- the main interface ------------------------------------------------------------

    def get_page(self, page_id: int) -> bytes:
        """Return the page's current contents, loading it on a miss."""
        index = self._table.get(page_id)
        if index is not None:            # hit path, inlined
            self.stats.hits += 1
            self._table.move_to_end(page_id)
            return self._frames[index].payload
        return self._frame_for(page_id).payload

    def get_if_resident(self, page_id: int) -> bytes | None:
        """The page's buffered contents — a hit, counted and moved to
        the LRU end as :meth:`get_page` does — or None when it is not
        buffered: nothing loaded, no miss counted."""
        index = self._table.get(page_id)
        if index is None:
            return None
        self.stats.hits += 1
        self._table.move_to_end(page_id)
        return self._frames[index].payload

    def put_page(self, page_id: int, payload: bytes,
                 txn_id: int | None = None) -> None:
        """Replace the page's contents in the buffer.

        ``txn_id`` registers an uncommitted modifier; pass None for
        changes that are already durable-equivalent (e.g. recovery
        writes).  The page is loaded first if absent so its frame exists.
        """
        index = self._table.get(page_id)
        if index is not None:
            self.stats.hits += 1
            self._table.move_to_end(page_id)
            frame = self._frames[index]
        else:
            frame = self._frame_for(page_id, load=False)
        frame.payload = bytes(payload)
        frame.dirty = True
        if txn_id is not None:
            frame.modifiers.add(txn_id)
            pages = self._txn_pages.get(txn_id)
            if pages is None:
                self._txn_pages[txn_id] = {page_id}
            else:
                pages.add(page_id)

    def pin(self, page_id: int) -> bytes:
        """Load (if needed) and pin the page; returns its contents."""
        frame = self._frame_for(page_id)
        frame.pin_count += 1
        return frame.payload

    def unpin(self, page_id: int) -> None:
        """Release one pin."""
        index = self._table.get(page_id)
        if index is None or self._frames[index].pin_count == 0:
            raise PageNotPinnedError(f"page {page_id} is not pinned")
        self._frames[index].pin_count -= 1

    # -- flushing and invalidation ------------------------------------------------------

    def set_writeback_filter(self, filter_fn) -> None:
        """Install the write-behind propagation gate: ``filter_fn(page_id,
        frame) -> bool`` is consulted before any dirty frame is written
        back (eviction, flush, checkpoint).  A refused frame is skipped —
        it stays dirty and resident; eviction picks another victim.  The
        REDO-only recovery class uses this to replace the steal/undo
        contract: a page may reach disk only once its redo chain is
        durable."""
        self._writeback_filter = filter_fn

    def mark_clean(self, page_id: int) -> None:
        """The page's frame becomes clean and drops its uncommitted
        modifiers: the write-back callable has just written the page
        back (the frame stays resident), or the frame is leaving the
        pool (:meth:`invalidate`, :meth:`_evict`)."""
        index = self._table.get(page_id)
        if index is None:
            return
        frame = self._frames[index]
        frame.dirty = False
        for txn_id in frame.modifiers:
            pages = self._txn_pages.get(txn_id)
            if pages is not None:
                pages.discard(page_id)
                if not pages:
                    del self._txn_pages[txn_id]
        frame.modifiers.clear()

    def flush_page(self, page_id: int) -> bool:
        """Write back the page if buffered and dirty; returns True if a
        write-back happened.  The frame stays resident and becomes clean
        (the callee marks it, as in a window)."""
        index = self._table.get(page_id)
        if index is None:
            return False
        frame = self._frames[index]
        if not frame.dirty:
            return False
        if self._writeback_filter is not None \
                and not self._writeback_filter(page_id, frame):
            return False
        self._writeback([(page_id, frame.payload,
                          frozenset(frame.modifiers))])
        return not frame.dirty

    def flush_pages_of(self, txn_id: int) -> list:
        """FORCE discipline: write back every page the transaction has
        modified (and not yet stolen).  Returns the page ids flushed."""
        pages = self._txn_pages.get(txn_id)
        if not pages:
            return []
        table = self._table
        flushed = sorted(pages, key=table.__getitem__)   # frame order
        gate = self._writeback_filter
        entries = []
        for page_id in flushed:
            frame = self._frames[table[page_id]]
            if frame.dirty and (gate is None or gate(page_id, frame)):
                entries.append((page_id, frame.payload,
                                frozenset(frame.modifiers)))
        if entries:
            self._writeback(entries)
        return flushed

    def flush_all_dirty(self) -> list:
        """Checkpoint helper: write back every dirty frame (frames the
        write-behind gate refuses are skipped and stay dirty)."""
        gate = self._writeback_filter
        table = self._table
        entries = []
        for index, frame in enumerate(self._frames):
            if frame.dirty and table.get(frame.page_id) == index \
                    and (gate is None or gate(frame.page_id, frame)):
                entries.append((frame.page_id, frame.payload,
                                frozenset(frame.modifiers)))
        if entries:
            self._writeback(entries)
        return [entry[0] for entry in entries]

    def clear_modifier(self, txn_id: int) -> None:
        """Commit bookkeeping: the transaction's buffered changes are no
        longer *uncommitted* (frames stay dirty for later write-back)."""
        pages = self._txn_pages.pop(txn_id, None)
        if not pages:
            return
        for page_id in pages:
            index = self._table.get(page_id)
            if index is not None:
                self._frames[index].modifiers.discard(txn_id)

    def invalidate(self, page_id: int) -> None:
        """Drop the buffered copy without writing it back.

        Used on abort for pages whose only uncommitted version lives in
        the buffer: the on-disk copy *is* the before-image.
        """
        index = self._table.get(page_id)
        if index is None:
            return
        if self._frames[index].modifiers:
            self.mark_clean(page_id)
        del self._table[page_id]
        self._resident_cache = None
        heapq.heappush(self._free_heap, index)

    def invalidate_all(self) -> None:
        """Simulate losing main memory in a crash: every frame is free
        at once.  A frame holds a page only while the page table maps
        that page to it, and :meth:`_frame_for` sets every field of the
        frame it takes, so the table, the per-transaction index and the
        free heap are reset and no frame is visited: the cost follows
        nothing the buffer held."""
        self._table.clear()
        self._txn_pages.clear()
        self._free_heap = list(range(self.capacity))
        self._resident_cache = None
        for field in _PUBLISHED:
            self._lost_counts[field] += getattr(self.stats, field)
        self.stats = BufferStats()

    def _lifetime_count(self, field: str) -> int:
        return self._lost_counts[field] + getattr(self.stats, field)

    def dirty_pages(self) -> list:
        """Sorted ids of dirty buffered pages."""
        frames = self._frames
        return sorted(page_id for page_id, index in self._table.items()
                      if frames[index].dirty)

    # -- internals ----------------------------------------------------------------------

    def _frame_for(self, page_id: int, load: bool = True) -> Frame:
        index = self._table.get(page_id)
        if index is not None:
            self.stats.hits += 1
            self._table.move_to_end(page_id)
            return self._frames[index]
        self.stats.misses += 1
        index = self._free_frame()
        frame = self._frames[index]
        frame.page_id = page_id
        frame.payload = self._fetch(page_id) if load else b""
        frame.dirty = False
        frame.pin_count = 0
        frame.modifiers = set()
        self._table[page_id] = index
        self._resident_cache = None
        return frame

    def _free_frame(self) -> int:
        if self._free_heap:
            return heapq.heappop(self._free_heap)
        return self._evict()

    def _choose_victim(self) -> int:
        """The least recently used frame that is unpinned, stealable
        and admitted by the write-behind gate."""
        steal = self.steal
        gate = self._writeback_filter
        for index in self._table.values():
            frame = self._frames[index]
            if frame.pin_count > 0:
                continue
            if frame.dirty and not steal and frame.modifiers:
                continue
            if frame.dirty and gate is not None \
                    and not gate(frame.page_id, frame):
                continue
            return index
        raise self._buffer_full()

    def _buffer_full(self) -> BufferFullError:
        return BufferFullError(
            "buffer full: every frame is pinned"
            + ("" if self.steal else " or protected by NO-STEAL")
            + ("" if self._writeback_filter is None
               else " or held by the write-behind gate"))

    def _evict(self) -> int:
        index = self._choose_victim()
        frame = self._frames[index]
        self.stats.evictions += 1
        if self.tracer.enabled:
            self.tracer.emit("buffer.evict", page=frame.page_id,
                             dirty=frame.dirty,
                             steal=frame.dirty and frame.uncommitted)
        if frame.dirty:
            self.stats.dirty_evictions += 1
            if frame.uncommitted:
                self.stats.steals += 1
            self._writeback([(frame.page_id, frame.payload,
                              frozenset(frame.modifiers))])
            if frame.dirty:
                # the callee may skip a page (it stays dirty); dropping
                # the frame now would lose its contents
                raise BufferFullError(
                    f"write-back left eviction victim page "
                    f"{frame.page_id} dirty")
        if frame.modifiers:
            self.mark_clean(frame.page_id)
        del self._table[frame.page_id]
        self._resident_cache = None
        return index
