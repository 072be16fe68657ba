"""The duplexed, append-only log manager.

The paper assumes the log is kept in duplex (an operator or software
error that damages one copy must not lose recovery information) and that
log pages are written through the same disk subsystem whose transfers
the model counts.  :class:`LogManager` therefore:

* appends records to **two mirrored devices** and can verify the copies
  byte-for-byte (:meth:`verify_duplex`);
* charges a configurable number of page transfers per filled log page
  per copy (``transfers_per_log_page``, default 2: a log page write is a
  sequential append, but lands on both mirror copies);
* maintains the per-transaction backward chain (``prev_lsn``), so a
  rollback reads only the aborting transaction's records instead of
  scanning the log (the paper's TWIST-style log chain);
* survives crashes: :meth:`after_crash` re-parses the durable bytes and
  rebuilds the in-memory index.
"""

from __future__ import annotations

from ..errors import (LogCorruptionError, TornRecordError,
                      UnrecoverableDataError)
from ..storage.iostats import IOStats
from .records import NULL_LSN, LogRecord, deserialize

DEFAULT_LOG_PAGE_SIZE = 2020
"""Physical log page size; the paper's model constant l_p."""


class LogDevice:
    """One mirror copy: an append-only byte stream with page accounting."""

    def __init__(self, device_id: int, page_size: int,
                 transfers_per_page: int, stats: IOStats) -> None:
        self.device_id = device_id
        self.page_size = page_size
        self.transfers_per_page = transfers_per_page
        self.stats = stats
        self._data = bytearray()
        self._pages_charged = 0
        # Partial-page accounting mode.  False (the legacy model): a
        # forced partial page is charged once and later bytes landing in
        # it ride free — an idealized batching assumption baked into the
        # paper-figure cross-validation.  True (used by GroupCommitLog):
        # every force containing new bytes rewrites the current partial
        # page and is charged again, the physical cost per-commit
        # forcing pays and group commit exists to amortize.
        self.reforce_partial = False
        self._forced_len = 0
        # fault-injection seam: called with (device_id, page_index) just
        # before a log page becomes durable; raising aborts the flush, so
        # the page never counts toward durable_size and is removed by
        # crash_truncate at the next crash.
        self.on_page_write = None

    def append(self, blob: bytes) -> None:
        """Append bytes, charging transfers as log pages fill."""
        self._data.extend(blob)
        filled = len(self._data) // self.page_size
        while self._pages_charged < filled:
            if self.on_page_write is not None:
                self.on_page_write(self.device_id, self._pages_charged)
            self.stats.record_write(self.device_id, self.transfers_per_page)
            self._pages_charged += 1

    def force(self) -> None:
        """Flush the current partial page (WAL rule at commit)."""
        if self.reforce_partial:
            partial_start = (len(self._data) // self.page_size) * self.page_size
            if len(self._data) > partial_start and \
                    len(self._data) > self._forced_len:
                if self.on_page_write is not None:
                    self.on_page_write(self.device_id,
                                       len(self._data) // self.page_size)
                self.stats.record_write(self.device_id,
                                        self.transfers_per_page)
            self._forced_len = len(self._data)
            return
        if len(self._data) > self._pages_charged * self.page_size:
            if self.on_page_write is not None:
                self.on_page_write(self.device_id, self._pages_charged)
            self.stats.record_write(self.device_id, self.transfers_per_page)
            self._pages_charged += 1

    @property
    def contents(self) -> bytes:
        return bytes(self._data)

    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def durable_size(self) -> int:
        """Bytes guaranteed on disk (filled/forced pages only)."""
        return min(len(self._data),
                   max(self._pages_charged * self.page_size,
                       self._forced_len))

    def crash_truncate(self) -> int:
        """A crash loses the unforced partial page; returns bytes lost."""
        lost = len(self._data) - self.durable_size
        del self._data[self.durable_size:]
        self._forced_len = min(self._forced_len, len(self._data))
        return lost

    def reset_to(self, contents: bytes) -> None:
        """Rewind the device to a clean prefix (restart recovery: the
        bytes after the last whole record are a torn fragment that would
        poison future appends).

        The prefix was read back from disk, so it *is* durable: the
        charge watermark rounds up, otherwise a short log would count as
        zero durable pages and evaporate at the next crash.
        """
        self._data = bytearray(contents)
        self._pages_charged = -(-len(self._data) // self.page_size)
        self._forced_len = len(self._data) if self.reforce_partial else 0


class LogManager:
    """Duplexed append-only log with an in-memory record index.

    Args:
        name: label used in errors and repr (e.g. ``"undo"``, ``"redo"``).
        page_size: log page size in bytes (model constant ``l_p``).
        transfers_per_log_page: page transfers charged per filled log
            page *per mirror copy*.
        stats: shared page-transfer counters.
        duplex: keep two mirror copies (the paper's assumption); set
            False for single-copy ablations.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            records appended are counted per record type
            (``wal.records{log=...,type=...}``), plus forces.
    """

    _device_counter = 0

    def __init__(self, name: str = "log", page_size: int = DEFAULT_LOG_PAGE_SIZE,
                 transfers_per_log_page: int = 1, stats: IOStats | None = None,
                 duplex: bool = True, metrics=None) -> None:
        self.name = name
        self.stats = stats if stats is not None else IOStats()
        self._m_records = (metrics.counter("wal.records")
                           if metrics is not None else None)
        self._m_forces = (metrics.counter("wal.forces")
                          if metrics is not None else None)
        # labelled-counter children are stable per label set; cache them
        # per record type so the hot append path skips the label-key
        # construction inside ``Counter.labels``
        self._record_children: dict = {}
        self._forces_child = (self._m_forces.labels(log=self.name)
                              if self._m_forces is not None else None)
        copies = 2 if duplex else 1
        # device ids are negative so they never collide with array disks
        self._devices = []
        for copy in range(copies):
            LogManager._device_counter += 1
            self._devices.append(
                LogDevice(-LogManager._device_counter, page_size,
                          transfers_per_log_page, self.stats))
        self._records: list = []
        self._last_lsn_of_txn: dict = {}
        self._last_lsn_of_page: dict = {}
        self._next_lsn = 1
        self._base_lsn = 1          # first retained LSN (grows on truncation)
        # highest LSN known durable; a plain attribute (read-only to
        # everyone else): every page write-back stamps it on a twin
        self.forced_lsn = NULL_LSN

    # -- append path -----------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Assign an LSN, chain the record to its transaction, write it
        to every mirror copy, and index it.  Returns the LSN."""
        record.lsn = self._next_lsn
        self._next_lsn += 1
        if record.txn_id:
            record.prev_lsn = self._last_lsn_of_txn.get(record.txn_id, NULL_LSN)
            self._last_lsn_of_txn[record.txn_id] = record.lsn
        if record.page_chained:
            record.prev_page_lsn = self._last_lsn_of_page.get(
                record.page_id, NULL_LSN)
            self._last_lsn_of_page[record.page_id] = record.lsn
        blob = record.serialize()
        for device in self._devices:
            device.append(blob)
        self._records.append(record)
        if self._m_records is not None:
            rtype = type(record).__name__
            child = self._record_children.get(rtype)
            if child is None:
                child = self._record_children[rtype] = \
                    self._m_records.labels(log=self.name, type=rtype)
            child.inc()
        return record.lsn

    def append_batch(self, records) -> int:
        """Append several records as one call (the hot commit path).

        Exactly equivalent to calling :meth:`append` once per record —
        same LSNs, same per-device byte interleaving, same page-write
        hook order — with the per-call bookkeeping hoisted out of the
        loop.  Returns the last LSN assigned (``last_lsn`` unchanged
        when ``records`` is empty).
        """
        lsn = self._next_lsn
        last_of = self._last_lsn_of_txn
        last_of_page = self._last_lsn_of_page
        devices = self._devices
        index = self._records
        m_records = self._m_records
        children = self._record_children
        for record in records:
            record.lsn = lsn
            if record.txn_id:
                record.prev_lsn = last_of.get(record.txn_id, NULL_LSN)
                last_of[record.txn_id] = lsn
            if record.page_chained:
                record.prev_page_lsn = last_of_page.get(record.page_id,
                                                        NULL_LSN)
                last_of_page[record.page_id] = lsn
            lsn += 1
            blob = record.serialize()
            for device in devices:
                device.append(blob)
            index.append(record)
            if m_records is not None:
                rtype = type(record).__name__
                child = children.get(rtype)
                if child is None:
                    child = children[rtype] = m_records.labels(
                        log=self.name, type=rtype)
                child.inc()
        self._next_lsn = lsn
        return lsn - 1

    def force(self) -> None:
        """Make everything appended so far durable (flush partial pages)."""
        for device in self._devices:
            device.force()
        if self._forces_child is not None:
            self._forces_child.inc()
        if self._records:
            self.forced_lsn = self._records[-1].lsn

    @property
    def durable_lsn(self) -> int:
        """Highest LSN that survives a crash.  For a plain log this is
        the forced LSN; a group-commit log with a batched force pending
        extends it to the tail (the coordinator drains before any crash
        truncates it — see :mod:`repro.wal.group_commit`)."""
        return self.forced_lsn

    @property
    def next_lsn(self) -> int:
        """The LSN the next append gets.  Unlike ``last_lsn + 1`` it
        keeps counting across a trim that empties the log."""
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        """Highest LSN appended."""
        return self._records[-1].lsn if self._records else NULL_LSN

    @property
    def size_bytes(self) -> int:
        """Bytes in one mirror copy."""
        return self._devices[0].size

    # -- read paths ---------------------------------------------------------------

    def records(self) -> list:
        """All records in append order."""
        return list(self._records)

    def get(self, lsn: int) -> LogRecord:
        """Record by LSN.

        Raises:
            LogCorruptionError: unknown or already-truncated LSN.
        """
        if not self._base_lsn <= lsn < self._next_lsn:
            raise LogCorruptionError(f"{self.name}: no record with lsn {lsn}")
        return self._records[lsn - self._base_lsn]

    def records_of(self, txn_id: int) -> list:
        """The transaction's records, newest first, via the log chain.

        A chain ending below the truncation point stops there (the
        truncated records were certified no-longer-needed)."""
        out = []
        lsn = self._last_lsn_of_txn.get(txn_id, NULL_LSN)
        while lsn >= self._base_lsn:
            record = self.get(lsn)
            out.append(record)
            lsn = record.prev_lsn
        return out

    def page_chain_head(self, page_id: int) -> int:
        """Newest chained redo record of a page (:data:`NULL_LSN` when
        the page has no retained chain)."""
        return self._last_lsn_of_page.get(page_id, NULL_LSN)

    def page_chain_heads(self) -> dict:
        """Snapshot of every page's chain head LSN."""
        return dict(self._last_lsn_of_page)

    def charge_read(self, records) -> int:
        """Charge page transfers for reading the given records back from
        one log copy (rollback and restart both read the log; the model
        counts those transfers).  Returns pages charged."""
        total = sum(r.serialized_size for r in records)
        if total == 0:
            return 0
        pages = -(-total // self._devices[0].page_size)
        self.stats.record_read(self._devices[0].device_id, pages)
        return pages

    def scan(self, record_type=None):
        """Iterate records in append order, optionally filtered by type."""
        for record in self._records:
            if record_type is None or isinstance(record, record_type):
                yield record

    # -- truncation ------------------------------------------------------------------

    @property
    def base_lsn(self) -> int:
        """First LSN still retained."""
        return self._base_lsn

    def truncate_before(self, lsn: int) -> int:
        """Drop all records with LSN below ``lsn`` from memory and from
        every mirror copy; returns the number dropped.

        The caller must guarantee no future recovery needs the dropped
        records: typically ``lsn = min(last checkpoint LSN, oldest
        active transaction's BOT LSN)``, and no lower than any archive
        dump horizon still relied on for media recovery
        (:meth:`repro.db.database.Database.trim_log` computes this).
        """
        lsn = max(lsn, self._base_lsn)
        cut = min(lsn, self._next_lsn) - self._base_lsn
        if cut <= 0:
            return 0
        dropped = self._records[:cut]
        byte_offset = sum(r.serialized_size for r in dropped)
        self._records = self._records[cut:]
        self._base_lsn += cut
        if not self._records:
            # the forced horizon may only point at retained records: a
            # trim that empties the log (its tail covered by a deferred
            # group-commit force) would otherwise leave forced_lsn
            # beyond the tail, and the next force() has no record to
            # re-anchor it
            self.forced_lsn = NULL_LSN
        for device in self._devices:
            device.reset_to(device.contents[byte_offset:])
        for txn_id in [t for t, last in self._last_lsn_of_txn.items()
                       if last < self._base_lsn]:
            del self._last_lsn_of_txn[txn_id]
        for page_id in [p for p, last in self._last_lsn_of_page.items()
                        if last < self._base_lsn]:
            del self._last_lsn_of_page[page_id]
        return cut

    # -- duplex integrity -----------------------------------------------------------

    def verify_duplex(self) -> bool:
        """True when all mirror copies are byte-identical."""
        first = self._devices[0].contents
        return all(d.contents == first for d in self._devices[1:])

    def damage_copy(self, copy: int, offset: int) -> None:
        """Corrupt one byte of one mirror (failure-injection for tests)."""
        device = self._devices[copy]
        if offset >= device.size:
            raise ValueError("offset beyond end of log")
        device._data[offset] ^= 0xFF

    # -- crash behaviour ---------------------------------------------------------------

    def crash(self) -> int:
        """Lose the unforced tail of every mirror copy (a crash destroys
        what never reached disk).  Returns bytes lost from copy 0."""
        lost = 0
        for device in self._devices:
            lost = device.crash_truncate()
        return lost

    def after_crash(self) -> int:
        """Simulate restart: drop the in-memory index and rebuild it by
        parsing the durable bytes of the mirror copies.

        Each copy is parsed greedily — a truncated or corrupt tail ends
        that copy's usable prefix (records are CRC-protected, so silent
        corruption is caught).  The copy with the longest valid prefix
        wins, and **every copy is rewound to that prefix**: a torn
        record fragment left at the tail would otherwise sit in front of
        post-recovery appends and make them unparseable at the next
        restart.  Returns the number of records recovered.

        Raises:
            UnrecoverableDataError: if log bytes exist but every mirror
                copy ends in a CRC/type failure — all copies are truly
                corrupt, so silently adopting the longest prefix could
                drop acknowledged-durable commits.
        """
        best: list = []
        best_bytes = b""
        any_bytes = False
        any_clean_stop = not self._devices
        parsed_blob = None
        for device in self._devices:
            any_bytes = any_bytes or device.size > 0
            blob = device.contents
            if blob != parsed_blob:
                # mirrors agree byte for byte unless one was torn or
                # damaged: an identical copy parses to the same prefix
                records, prefix_len, clean = \
                    self._parse_prefix_with_length(blob)
                parsed_blob = blob
            any_clean_stop = any_clean_stop or clean
            if len(records) > len(best):
                best = records
                best_bytes = blob[:prefix_len]
        if any_bytes and not any_clean_stop:
            # every copy dies on a CRC/type error (not a torn crash
            # tail): the log may be missing acknowledged records past
            # the damage, so refusing is the only safe answer
            raise UnrecoverableDataError(
                f"{self.name}: every duplex copy is corrupt")
        for device in self._devices:
            device.reset_to(best_bytes)
        self._records = best
        self._last_lsn_of_txn = {}
        self._last_lsn_of_page = {}
        for record in best:
            if record.txn_id:
                self._last_lsn_of_txn[record.txn_id] = record.lsn
            if record.page_chained:
                self._last_lsn_of_page[record.page_id] = record.lsn
        if best:
            self._base_lsn = best[0].lsn
            self._next_lsn = best[-1].lsn + 1
        else:
            # the entire retained tail was lost: new appends start at the
            # (unchanged) next position, and the base must follow it or
            # lsn-to-index arithmetic goes negative
            self._base_lsn = self._next_lsn
        # the forced horizon can only cover records that still exist —
        # a damaged log that lost its whole tail is durable up to
        # nothing, not up to where the tail used to end
        self.forced_lsn = best[-1].lsn if best else NULL_LSN
        return len(best)

    @staticmethod
    def _parse_prefix_with_length(blob: bytes) -> tuple:
        """Parse records until the bytes run out or stop making sense;
        returns ``(records, bytes_consumed, clean_stop)`` where
        ``clean_stop`` means exhaustion or a torn crash tail (expected),
        as opposed to a CRC/type failure (corruption)."""
        records = []
        offset = 0
        clean = True
        size = len(blob)
        try:
            while offset < size:
                record, offset = deserialize(blob, offset)
                records.append(record)
        except TornRecordError:
            pass
        except LogCorruptionError:
            clean = False
        return records, offset, clean
