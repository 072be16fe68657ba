"""The duplexed, append-only log manager.

The paper assumes the log is kept in duplex (an operator or software
error that damages one copy must not lose recovery information) and that
log pages are written through the same disk subsystem whose transfers
the model counts.  :class:`LogManager` therefore:

* appends records to **two mirrored devices** and can verify the copies
  byte-for-byte (:meth:`verify_duplex`);
* charges a configurable number of page transfers per filled log page
  per copy (``transfers_per_log_page``, default 2: a log page write is a
  sequential append, but lands on both mirror copies).
  :meth:`LogManager.append_batch` is the one append body: it extends
  both copies' bytes itself, record by record, and calls a copy only
  when a record fills one of its pages or an anchor is pending there
  (:meth:`LogDevice.charge_filled`: each filled page's write hook, then
  its charge, then the anchor carry) — the hooks in the order one
  append per record and copy ran them;
* maintains the per-transaction backward chain (``prev_lsn``), so a
  rollback reads only the aborting transaction's records instead of
  scanning the log (the paper's TWIST-style log chain);
* survives crashes from an **anchor**: a checkpoint record appended as
  one (:meth:`append_anchor`) is named by the page write that makes it
  durable and every later one, out of band, as a page header would —
  no transfer of its own.  :meth:`after_crash` reads it from the last
  durable page of each copy and checks the records from the anchor to
  the end of the log.  The records before the anchor stay on the
  devices unchecked until a read first reaches below it; then each is
  checked on whichever copy holds it intact (the duplex mate is the
  fallback).  With no anchor the walk starts at the first retained
  record, so the same path checks the whole log.

**The index** is one list of ``(type, lsn, txn_id, prev_lsn, start,
end)`` entries (see :func:`~repro.wal.records.deserialize`), one per
retained record: an append takes it from the header it wrote and the
span of those bytes, a restart from its check of the bytes it read.
Analysis (:meth:`txn_ids`, :meth:`transaction_table`, the chain heads,
:meth:`last_checkpoint_lsn`) and the sizes a read or a trim charges
read the entries alone.  **A record is an object** once the log has one
— the one appended, or the one a read first decoded from copy 0's bytes
at its span — and every later read returns it.  A restart walk checked
each record a read can decode; once a copy is damaged, or a walk below
the anchor leaves a record every copy lost, each decode checks its span
again, on copy 0 or on the duplex mate.

A real log finds its last page by page sequence numbers; this one knows
its durable length (:attr:`LogDevice.durable_size`), as the walk always
has.
"""

from __future__ import annotations

from ..errors import (LogCorruptionError, TornRecordError,
                      UnrecoverableDataError)
from ..storage.iostats import IOStats
from .records import (NULL_LSN, PAGE_CHAINED_TYPES, AbortRecord, BOTRecord,
                      CheckpointRecord, CommitRecord, LogRecord, RecordType,
                      _DECODERS, chained_page_id, deserialize, header_lsn,
                      transaction_table)

_CHECKPOINT = RecordType.CHECKPOINT.value
_TXN_ID_TYPES = (BOTRecord, CommitRecord, AbortRecord)
"""The record types :meth:`LogManager.txn_ids` answers for."""

DEFAULT_LOG_PAGE_SIZE = 2020
"""Physical log page size; the paper's model constant l_p."""


def _txn_ids_of(entries) -> dict:
    """Raw type value of each :data:`_TXN_ID_TYPES` -> the ids of the
    transactions with such a record, over ``entries``."""
    ids = {cls.record_type.value: set() for cls in _TXN_ID_TYPES}
    for entry in entries:
        if entry[0] in ids:
            ids[entry[0]].add(entry[2])
    return ids


def _shifted(anchor, dropped: int, base_lsn: int):
    """``anchor`` (LSN, byte offset, ...) after a trim dropped ``dropped``
    leading bytes and left ``base_lsn`` the first record (or None)."""
    if anchor is None or anchor[0] < base_lsn:
        return None
    return (anchor[0], anchor[1] - dropped, *anchor[2:])


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
        # the restart anchor the last page write to reach disk carried
        # out of band, ``(checkpoint LSN, byte offset)`` or None, and
        # one appended but not durable yet, ``(LSN, offset, size)``
        self.anchor: tuple | None = None
        self.pending: tuple | None = None

    def _carry(self) -> None:
        """The pending anchor, once its record is durable, is it."""
        pending = self.pending
        if self.durable_size >= pending[1] + pending[2]:
            self.anchor, self.pending = pending[:2], None

    def charge_filled(self) -> None:
        """Charge the log pages the bytes appended since the last call
        filled, in page order, each after its page-write hook; then a
        pending anchor whose record is durable now is the anchor.
        :meth:`LogManager.append_batch` extends the bytes and calls
        this only when a page has filled or an anchor is pending."""
        filled = len(self._data) // self.page_size
        stats, device_id = self.stats, self.device_id
        while self._pages_charged < filled:
            if self.on_page_write is not None:
                self.on_page_write(device_id, self._pages_charged)
            # record_write(device_id, transfers_per_page), inlined
            stats.writes += self.transfers_per_page
            stats.per_disk_writes[device_id] = \
                stats.per_disk_writes.get(device_id, 0) \
                + self.transfers_per_page
            self._pages_charged += 1
        if self.pending is not None:
            self._carry()

    def force(self) -> None:
        """Flush the current partial page (WAL rule at commit); a force
        with no bytes since the last one writes nothing.  A pending
        anchor whose record is durable now is the anchor."""
        size = len(self._data)
        if size % self.page_size and size > self._forced_len:
            if self.reforce_partial:
                if self.on_page_write is not None:
                    self.on_page_write(self.device_id, size // self.page_size)
                self.stats.record_write(self.device_id,
                                        self.transfers_per_page)
            elif size > self._pages_charged * self.page_size:
                if self.on_page_write is not None:
                    self.on_page_write(self.device_id, self._pages_charged)
                self.stats.record_write(self.device_id, self.transfers_per_page)
                self._pages_charged += 1
        self._forced_len = size
        if self.pending is not None:
            self._carry()

    @property
    def contents(self) -> bytes:
        return bytes(self._data)

    def read(self, start: int, end: int) -> bytes:
        """The bytes from ``start`` to ``end``, copied once."""
        return bytes(memoryview(self._data)[start:end])

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

    def drop_front(self, size: int) -> None:
        """Drop the first ``size`` bytes (a trim), leaving the rest as
        durable as :meth:`rewind` leaves them."""
        del self._data[:size]
        self.rewind(len(self._data))

    def rewind(self, size: int) -> None:
        """Cut the device back to its first ``size`` bytes (restart
        recovery: the bytes after the last whole record are a torn
        fragment that would poison future appends).

        The prefix was read back from disk, so it *is* durable: the
        charge watermark rounds up, otherwise a short log would count as
        zero durable pages and evaporate at the next crash.
        """
        del self._data[size:]
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
            reads the records appended per record type
            (``wal.records{log=...,type=...}``, from
            :attr:`record_counts`) and the forces (:attr:`forces`).
    """

    _device_counter = 0

    def __init__(self, name: str = "log", page_size: int = DEFAULT_LOG_PAGE_SIZE,
                 transfers_per_log_page: int = 1, stats: IOStats | None = None,
                 duplex: bool = True, metrics=None) -> None:
        self.name = name
        self.stats = stats if stats is not None else IOStats()
        self.forces = 0
        # record class -> records appended, counted while a registry
        # reads them; a class's series is registered at its first record
        self.record_counts: dict = {}
        self._m_records = (metrics.counter("wal.records")
                           if metrics is not None else None)
        if metrics is not None:
            metrics.counter("wal.forces").labels(log=self.name).add_source(
                lambda: self.forces)
        copies = 2 if duplex else 1
        # device ids are negative so they never collide with array disks
        self._devices = []
        for copy in range(copies):
            LogManager._device_counter += 1
            self._devices.append(
                LogDevice(-LogManager._device_counter, page_size,
                          transfers_per_log_page, self.stats))
        # the index, spans counted from the log's first byte ever (a
        # trim moves _origin, the offset of each copy's byte 0), and
        # LSN -> the record's object once it has one
        self._entries: list = []
        self._origin = 0
        self._objects: dict = {}
        self._last_lsn_of_txn: dict = {}
        self._last_lsn_of_page: dict = {}
        # txn_ids()'s answers: since -> (base, next) LSNs read at, ids
        self._txn_ids: dict = {}
        self._next_lsn = 1
        self._base_lsn = 1          # first indexed LSN (grows on truncation)
        # bytes before the first indexed record that a restart left
        # unchecked (the log before its anchor), the next-id ceiling of
        # that anchor's table (no transaction at or above it has a
        # record there), and an (lo, hi) LSN run of them that every
        # copy lost once checked
        self._unchecked = 0
        self._unchecked_ceiling = 0
        self._lost: tuple | None = None
        self._table: tuple | None = None    # (anchor LSN, its table)
        self._anchoring = None      # the record append_anchor is writing
        # copy 0 holds what the last restart walk checked: no copy has
        # been damaged since, and no record below the anchor was lost
        self._verified = True
        # highest LSN known durable; a plain attribute (read-only to
        # everyone else): every page write-back stamps it on a twin
        self.forced_lsn = NULL_LSN
        # records CRC-checked by restart walks and entries turned into
        # records so far (restart work)
        self.records_checked = 0
        self.records_decoded = 0

    # -- append path -----------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Assign an LSN, chain the record to its transaction, write it
        to every mirror copy, and index it.  Returns the LSN."""
        return self.append_batch((record,))

    def append_batch(self, records) -> int:
        """Append records in order — LSNs, chains, each record's bytes
        on copy 0 then copy 1, the page-write hooks of the pages it
        fills on each copy in that order — and return the last LSN
        assigned (``last_lsn`` when ``records`` is empty).  Each is
        serialized once; its entry is the header it was written with
        and the span of its bytes.  Both copies are extended here: a
        copy is called (:meth:`LogDevice.charge_filled`) only when the
        record fills one of its pages or an anchor is pending on it.
        The check below an anchor merges into the chain-head dicts in
        place, so the ones hoisted here stay current."""
        lsn = self._next_lsn
        last_of_txn = self._last_lsn_of_txn
        last_of_page = self._last_lsn_of_page
        devices = self._devices
        entries = self._entries
        objects = self._objects
        anchoring = self._anchoring
        end = self._origin + len(devices[0]._data)
        counts = self.record_counts if self._m_records is not None else None
        for record in records:
            record.lsn = lsn
            if self._unchecked:
                self._chain_below_anchor(record)
            txn_id = record.txn_id
            if txn_id:
                record.prev_lsn = last_of_txn.get(txn_id, NULL_LSN)
                last_of_txn[txn_id] = lsn
            if record.page_chained:
                record.prev_page_lsn = last_of_page.get(record.page_id,
                                                        NULL_LSN)
                last_of_page[record.page_id] = lsn
            self._next_lsn = lsn + 1
            blob = record.serialize()
            start, end = end, end + len(blob)
            if record is anchoring:
                pending = (lsn, start - self._origin, end - start)
                for device in devices:
                    device.pending = pending
            for device in devices:
                data = device._data
                data.extend(blob)
                if (len(data) // device.page_size > device._pages_charged
                        or device.pending is not None):
                    device.charge_filled()
            # _value_: ``.value`` is a property call, once a record
            entries.append((record.record_type._value_, lsn, txn_id,
                            record.prev_lsn, start, end))
            objects[lsn] = record
            if counts is not None:
                try:
                    counts[record.__class__] += 1
                except KeyError:
                    self._count_first(record.__class__)
            lsn += 1
        return lsn - 1

    def _count_first(self, cls) -> None:
        """Count the first record of class ``cls`` and register the
        series that reads its count."""
        counts = self.record_counts
        counts[cls] = 1
        # reads the dict, not the log: the log holds the series
        self._m_records.labels(log=self.name, type=cls.__name__).add_source(
            lambda: counts[cls])

    def force(self) -> None:
        """Make everything appended so far durable (flush partial pages)."""
        for device in self._devices:
            device.force()
        self.forces += 1
        if self._entries:
            self.forced_lsn = self._next_lsn - 1

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
        """Highest LSN appended (retained LSNs are contiguous)."""
        return self._next_lsn - 1 if self._entries else NULL_LSN

    @property
    def size_bytes(self) -> int:
        """Bytes in one mirror copy."""
        return self._devices[0].size

    # -- read paths ---------------------------------------------------------------

    def records(self) -> list:
        """All records in append order."""
        return self.records_from(NULL_LSN)

    def records_from(self, lsn: int) -> list:
        """The records with LSN ``lsn`` and up, in append order."""
        self._reach(lsn)
        return self._decoded(self._entries[max(lsn - self._base_lsn, 0):])

    def get(self, lsn: int) -> LogRecord:
        """Record by LSN.

        Raises:
            LogCorruptionError: unknown or already-truncated LSN.
            UnrecoverableDataError: a record every copy lost.
        """
        if lsn < self._base_lsn and self._unchecked:
            self._check_below_anchor()
        self._refuse(lsn)
        if not self._base_lsn <= lsn < self._next_lsn:
            raise LogCorruptionError(f"{self.name}: no record with lsn {lsn}")
        return (self._objects.get(lsn)
                or self._decoded((self._entries[lsn - self._base_lsn],))[0])

    def _decoded(self, entries) -> list:
        """The records ``entries`` index, each decoded from copy 0 if it
        has no object yet — checked first, on copy 0 or its duplex mate
        (:meth:`_checked`), unless ``_verified``."""
        objects, origin = self._objects, self._origin
        verified = self._verified
        out = []
        with memoryview(self._devices[0]._data) as copy0:
            for entry in entries:
                lsn = entry[1]
                record = objects.get(lsn)
                if record is None:
                    blob = copy0
                    if not verified:
                        blob, entry = self._checked(entry)
                    elif origin:
                        entry = (*entry[:4], entry[4] - origin,
                                 entry[5] - origin)
                    record = objects[lsn] = _DECODERS[entry[0]](blob, entry)
                    self.records_decoded += 1
                out.append(record)
        return out

    def _checked(self, entry: tuple) -> tuple:
        """``(bytes, their entry)`` of the record ``entry`` spans, read
        from the first copy whose record passes its bounds, CRC and type
        check."""
        start, end = entry[4] - self._origin, entry[5] - self._origin
        for device in self._devices:
            blob = device.read(start, end)
            try:
                return blob, deserialize(blob, 0, True)[0]
            except (TornRecordError, LogCorruptionError):
                continue
        raise UnrecoverableDataError(
            f"{self.name}: every duplex copy lost the record at lsn "
            f"{entry[1]}")

    def records_of(self, txn_id: int) -> list:
        """The transaction's records, newest first, via the log chain.

        A chain ending below the truncation point stops there (the
        truncated records were certified no-longer-needed)."""
        # with none since the anchor, its newest record may lie before
        self._reach(self._last_lsn_of_txn.get(txn_id, NULL_LSN))
        lsn = self._last_lsn_of_txn.get(txn_id, NULL_LSN)
        out = []
        while lsn >= self._base_lsn:
            record = self.get(lsn)
            out.append(record)
            lsn = record.prev_lsn
            if NULL_LSN < lsn < self._base_lsn and self._unchecked:
                self._check_below_anchor()      # the chain crosses it
                self._refuse(lsn)
        return out

    def page_chain_head(self, page_id: int) -> int:
        """Newest chained redo record of a page (:data:`NULL_LSN` when
        the page has no retained chain)."""
        if self._unchecked or self._lost is not None:
            self._reach(NULL_LSN)
        return self._last_lsn_of_page.get(page_id, NULL_LSN)

    def page_chain_heads(self) -> dict:
        """Snapshot of every page's chain head LSN."""
        self._reach(NULL_LSN)
        return dict(self._last_lsn_of_page)

    def charge_read(self, records) -> int:
        """Charge page transfers for reading the given records back from
        one log copy (rollback and restart both read the log; the model
        counts those transfers).  Returns pages charged.  Each record's
        size is its entry's span."""
        base, entries = self._base_lsn, self._entries
        total = 0
        for record in records:
            entry = entries[record.lsn - base]
            total += entry[5] - entry[4]
        if total == 0:
            return 0
        pages = -(-total // self._devices[0].page_size)
        self.stats.record_read(self._devices[0].device_id, pages)
        return pages

    def last_checkpoint_lsn(self) -> int:
        """LSN of the newest retained checkpoint record
        (:data:`NULL_LSN` if none), found by walking back over the
        entries: nothing is decoded.  An anchored restart indexed its
        anchor, a checkpoint, so the answer never lies before it."""
        for entry in reversed(self._entries):
            if entry[0] == _CHECKPOINT:
                return entry[1]
        return NULL_LSN

    def txn_ids(self, record_type, since: int = NULL_LSN) -> set:
        """Ids of the transactions with a retained ``record_type``
        record — :class:`BOTRecord`, :class:`CommitRecord` or
        :class:`AbortRecord` — at LSN ``since`` or later (default: the
        whole retained log), read off the entries, not decoded.

        :meth:`after_crash` answers it from its own walk, since the
        anchor; otherwise the answer is re-read when an append or a
        trim has moved the retained LSNs since it was last asked."""
        self._reach(since)
        since = max(since, self._base_lsn)
        at = (self._base_lsn, self._next_lsn)
        cached = self._txn_ids.get(since)
        if cached is None or cached[0] != at:
            cached = self._txn_ids[since] = (at, _txn_ids_of(
                self._entries[since - self._base_lsn:]))
        return set(cached[1][record_type.record_type.value])

    # -- the restart anchor --------------------------------------------------------

    def append_anchor(self, record: CheckpointRecord) -> int:
        """Append a checkpoint record as the restart anchor and force
        it; returns its LSN.

        The page write that makes the record durable carries it out of
        band (zero counted transfers), and so does every later one:
        :meth:`after_crash` starts its walk there.  Until then — a force
        a group-commit window deferred — the previous anchor stands."""
        self._anchoring = record
        try:
            lsn = self.append(record)
        finally:
            self._anchoring = None
        self.force()
        return lsn

    @property
    def anchor(self) -> int:
        """LSN of the checkpoint restart analysis starts at, carried by
        every copy's last durable page — a trim keeps it
        (:data:`NULL_LSN`: none, analysis reads the whole log)."""
        return min(device.anchor[0] if device.anchor is not None
                   else NULL_LSN for device in self._devices)

    def transaction_table(self) -> tuple:
        """The anchor checkpoint's transaction table ``({active txn: BOT
        LSN}, next txn id)`` — ``({}, 0)`` with no anchor — read off its
        checked payload: the record stays undecoded, so
        ``records_decoded`` counts only what redo and undo read."""
        lsn = self.anchor
        if lsn == NULL_LSN:
            return {}, 0
        if self._table is None or self._table[0] != lsn:
            self._table = (lsn, transaction_table(*self._checked(
                self._entries[lsn - self._base_lsn])))
        return self._table[1]

    def _reach(self, lsn: int) -> None:
        """A read covers LSN ``lsn`` onward: check what lies before the
        anchor first if it does, and refuse if that holds a record every
        copy lost."""
        if lsn < self._base_lsn and self._unchecked:
            self._check_below_anchor()
        if self._lost is not None and lsn < self._lost[1]:
            raise self._lost_error()

    def _refuse(self, lsn: int) -> None:
        """Raise if every copy lost the record at ``lsn``."""
        if self._lost is not None and self._lost[0] <= lsn < self._lost[1]:
            raise self._lost_error()

    def _lost_error(self) -> UnrecoverableDataError:
        low, high = self._lost
        return UnrecoverableDataError(
            f"{self.name}: every duplex copy lost a record before the "
            f"restart anchor (LSNs {low or '?'}..{high - 1})")

    def _chain_below_anchor(self, record: LogRecord) -> None:
        """An append whose chain link may lie in the unchecked bytes:
        one of a transaction with no record since that began before
        them (below their anchor's next-id ceiling), or of a page with
        no chained record since."""
        txn_id = record.txn_id
        if (txn_id and txn_id not in self._last_lsn_of_txn
                and txn_id < self._unchecked_ceiling) \
                or (record.page_chained
                    and record.page_id not in self._last_lsn_of_page):
            self._check_below_anchor()

    def _check_below_anchor(self) -> None:
        """The first read below the anchor: check the records before it
        in order, each on whichever copy holds it intact, and index
        them.  Every copy is healed to those bytes.  A record no copy
        holds intact ends the walk; the records before it stay
        readable and the ones from it to the anchor are lost (with none
        before it, the bytes stay unindexed).

        No trim ran since the restart (one checks or drops these bytes
        first): ``_origin`` is 0 and the later entries keep their spans."""
        if self._lost is not None:
            return
        end = self._unchecked
        copies = list(dict.fromkeys(device.read(0, end)
                                    for device in self._devices))
        entries, clean = [], []
        offset = 0
        while offset < end:
            # the longest run a copy checks from here: past a record
            # one copy lost, its mate's
            run, blob = max(((self._check_prefix(blob, offset)[0], blob)
                             for blob in copies),
                            key=lambda pair: len(pair[0]))
            if not run:
                break
            entries += run
            clean.append(blob[offset:run[-1][5]])
            offset = run[-1][5]
        self.records_checked += len(entries)
        anchor = self._base_lsn
        prefix = b"".join(clean)
        heads = self._chain_heads(entries, prefix)
        if offset < end:
            first_lost = entries[-1][1] + 1 if entries else NULL_LSN
            self._lost = (first_lost, anchor)
            if not entries:
                return
            # the lost run keeps its LSN slots; a trim can drop it whole
            entries += [(None, lsn, NULL_LSN, NULL_LSN, offset, end)
                        for lsn in range(first_lost, anchor)]
            self._verified = False      # copy 0 may hold a lost one's
        else:
            for device in self._devices:
                device._data[:end] = prefix
        self._entries[:0] = entries
        self._unchecked = 0
        self._base_lsn = entries[0][1]
        self._txn_ids = {}
        for older, newer in zip(heads, (self._last_lsn_of_txn,
                                        self._last_lsn_of_page)):
            older.update(newer)
            newer.clear()
            newer.update(older)

    @staticmethod
    def _chain_heads(entries: list, blob) -> tuple:
        """``({txn: newest LSN}, {page: newest chained LSN})`` over
        checked entries into ``blob``."""
        last_of_txn, last_of_page = {}, {}
        for entry in entries:
            if entry[2]:
                last_of_txn[entry[2]] = entry[1]
            if entry[0] in PAGE_CHAINED_TYPES:
                last_of_page[chained_page_id(blob, entry)] = entry[1]
        return last_of_txn, last_of_page

    # -- truncation ------------------------------------------------------------------

    @property
    def base_lsn(self) -> int:
        """First LSN still retained."""
        self._reach(NULL_LSN)
        return self._base_lsn

    def truncate_before(self, lsn: int) -> int:
        """Drop all records with LSN below ``lsn`` from memory and from
        every mirror copy; returns the number dropped.

        The caller must guarantee no future recovery needs the dropped
        records: typically ``lsn = min(last checkpoint LSN, oldest
        active transaction's BOT LSN)``, and no lower than any archive
        dump horizon still relied on for media recovery
        (:meth:`repro.db.database.Database.trim_log` computes this).
        A cut at or past the restart anchor drops the log before it
        unchecked.
        """
        front = skipped = 0
        if self._unchecked:
            if lsn < self._base_lsn:
                self._check_below_anchor()
            else:
                front = self._unchecked
                skipped = self._base_lsn - header_lsn(
                    self._devices[0]._data, 0)
                self._unchecked, self._lost = 0, None
        lsn = max(lsn, self._base_lsn)
        if self._lost is not None and lsn > self._lost[0]:
            if lsn < self._lost[1]:
                raise self._lost_error()    # the cut falls in the lost run
            self._lost = None
        cut = max(min(lsn, self._next_lsn) - self._base_lsn, 0)
        if cut == 0 and not front:
            return 0
        entries = self._entries
        # the new byte 0: the first kept record's, else the end of it all
        origin = (entries[cut][4] if cut < len(entries)
                  else entries[-1][5] if entries else self._origin + front)
        dropped = origin - self._origin
        for gone in range(self._base_lsn, self._base_lsn + cut):
            self._objects.pop(gone, None)
        del entries[:cut]
        self._origin = origin
        self._base_lsn += cut
        self._txn_ids = {}
        if not entries:
            # the forced horizon may only point at retained records: a
            # trim that empties the log (its tail covered by a deferred
            # group-commit force) would otherwise leave forced_lsn
            # beyond the tail, and the next force() has no record to
            # re-anchor it
            self.forced_lsn = NULL_LSN
        for device in self._devices:
            device.drop_front(dropped)
            device.anchor = _shifted(device.anchor, dropped, self._base_lsn)
            device.pending = _shifted(device.pending, dropped,
                                      self._base_lsn)
        for txn_id in [t for t, last in self._last_lsn_of_txn.items()
                       if last < self._base_lsn]:
            del self._last_lsn_of_txn[txn_id]
        for page_id in [p for p, last in self._last_lsn_of_page.items()
                        if last < self._base_lsn]:
            del self._last_lsn_of_page[page_id]
        return cut + skipped

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
        self._verified = False

    # -- crash behaviour ---------------------------------------------------------------

    def crash(self) -> int:
        """Lose the unforced tail of every mirror copy (a crash destroys
        what never reached disk).  Returns bytes lost from copy 0."""
        lost = 0
        for device in self._devices:
            lost = device.crash_truncate()
        return lost

    def after_crash(self) -> int:
        """Simulate restart: drop the in-memory index and rebuild it
        from the durable bytes of the mirror copies, starting at the
        restart anchor.

        The anchor is the oldest one the copies' last durable pages
        carry (a crash inside a force may leave the mate short of a new
        one) if its checkpoint record checks on some copy; with none —
        never appended, trimmed away, on one copy only, or its record
        damaged on every copy — the walk starts at the first retained
        record.  From
        there each copy is checked greedily — every record's bounds,
        CRC (header prefix + payload) and type; a truncated or corrupt
        tail ends that copy's usable run (records are CRC-protected, so
        silent corruption is caught).  The copy with the longest valid
        run wins, and **every copy is rewound to it**: a torn record
        fragment left at the tail would otherwise sit in front of
        post-recovery appends and make them unparseable at the next
        restart.  Each copy keeps its own bytes before the anchor,
        unchecked until a read reaches them (then the mate is the
        fallback for a record one copy lost).  No record is decoded
        here: the index is the walk's ``check_only`` entries (see
        :func:`~repro.wal.records.deserialize`), and the chain heads
        and :meth:`txn_ids` come from them.  Returns the number of
        records checked.

        Raises:
            UnrecoverableDataError: if log bytes past the anchor exist
                but every mirror copy ends in a CRC/type failure — all
                copies are truly corrupt, so silently adopting the
                longest run could drop acknowledged-durable commits.
        """
        anchor = self._find_anchor()
        start = anchor[1] if anchor is not None else 0
        devices = self._devices
        # the walk checks each copy from the anchor on; mirrors agree
        # byte for byte unless one was torn or damaged, and an
        # identical copy checks to the same run
        runs, checked, any_clean_stop = [], None, not devices
        for device in devices:
            if device._data != checked:
                with memoryview(device._data) as view:
                    entries, clean = self._check_prefix(view, start)
                checked = device._data
                any_clean_stop = any_clean_stop or clean
            runs.append(entries)
        if not any_clean_stop and any(device.size > start
                                      for device in devices):
            # every copy dies on a CRC/type error (not a torn crash
            # tail): the log may be missing acknowledged records past
            # the damage, so refusing is the only safe answer
            raise UnrecoverableDataError(
                f"{self.name}: every duplex copy is corrupt")
        best = max(runs, key=len)
        winner = devices[runs.index(best)]._data
        end = best[-1][5] if best else start
        for device, run in zip(devices, runs):
            if run is not best:
                # the winner's run after the copy's own bytes before the
                # anchor (every copy holds those: each carries the
                # anchor, so each made its record durable)
                device._data[start:] = winner[start:end]
            device.rewind(end)
            device.anchor, device.pending = anchor, None
        self._entries = best
        self._origin = 0
        self._objects = {}
        self._verified = True
        self._unchecked = start
        self._lost = self._table = None
        if best:
            self._base_lsn = best[0][1]
            self._next_lsn = best[-1][1] + 1
        else:
            # the entire retained tail was lost: new appends start at the
            # (unchanged) next position, and the base must follow it or
            # lsn-to-index arithmetic goes negative
            self._base_lsn = self._next_lsn
        self._last_lsn_of_txn, self._last_lsn_of_page = \
            self._chain_heads(best, winner)
        self._txn_ids = {self._base_lsn: ((self._base_lsn, self._next_lsn),
                                          _txn_ids_of(best))}
        # the forced horizon can only cover records that still exist —
        # a damaged log that lost its whole tail is durable up to
        # nothing, not up to where the tail used to end
        self.forced_lsn = best[-1][1] if best else NULL_LSN
        self._unchecked_ceiling = self.transaction_table()[1]
        self.records_checked += len(best)
        return len(best)

    def _find_anchor(self):
        """The oldest ``(lsn, offset)`` the copies' last durable pages
        carry, if every one carries one and its checkpoint record checks
        on some copy, or None."""
        carried = [device.anchor for device in self._devices]
        if None in carried:
            return None
        lsn, offset = min(carried)
        for device in self._devices:
            try:
                entry, _ = deserialize(device._data, offset, True)
            except (TornRecordError, LogCorruptionError):
                continue
            if entry[0] == _CHECKPOINT and entry[1] == lsn:
                return lsn, offset
        return None

    @staticmethod
    def _check_prefix(blob, offset: int = 0) -> tuple:
        """Check records from ``offset`` until the bytes run out or stop
        making sense; returns ``(entries, clean_stop)`` where
        ``clean_stop`` means exhaustion or a torn crash tail (expected),
        as opposed to a CRC/type failure (corruption)."""
        entries = []
        size = len(blob)
        try:
            while offset < size:
                entry, offset = deserialize(blob, offset, True)  # check_only
                entries.append(entry)
        except TornRecordError:
            pass
        except LogCorruptionError:
            return entries, False
        return entries, True
