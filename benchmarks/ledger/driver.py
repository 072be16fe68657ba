"""The closed-loop load driver and its committed-state oracle.

``CLIENTS`` clients are multiplexed round-robin in one thread: each
round gives every live transaction one page access (the engines never
block — a :class:`~repro.db.LockWait` suspends the client until
``grants_for`` reports the grant).  A client starts its next script only
when the previous one ended, so a slow engine receives less load.

The driver keeps its own map of the last committed value of every page
and checks the engine against it: every read while running, the pages
written since the last check after each restart, every page on request.
Maintenance is part of the load: the log is
trimmed at every segment boundary, inside the segment's clock, and ACC
checkpoints are taken on the engine's own interval after each finished
transaction, as ``repro.sim.Simulator`` does.
"""

from __future__ import annotations

from time import perf_counter

from repro.db import LockWait, SlottedPage
from repro.errors import BufferFullError, DeadlockError

from .hostspeed import probe, scale
from .scripts import (ScriptStream, page_payload, record_payload,
                      version_of)
from .workloads import CLIENTS, GROUP_SIZE, Workload

NO_ARCHIVE = 1 << 62
"""``trim_log``'s archive floor: no archive copy is kept for media
roll-forward, so every log may be trimmed to what restart needs.
Without it a FORCE engine never trims its redo log, and memory and
restart time grow with the length of the run instead of levelling off."""

COUNTERS = ("transfers", "log_transfers", "hits", "misses", "evictions",
            "steals", "unlogged_steals", "logged_steals",
            "before_images_logged", "deferred_forces", "batched_flushes",
            "log_bytes")


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, -int(-len(ordered) * share // 1)) - 1]


class OracleMismatch(AssertionError):
    """The engine returned bytes the committed-state oracle disputes."""


class _Live:
    """One in-flight transaction's driver state."""

    __slots__ = ("txn_id", "script", "position", "waiting", "writes")

    def __init__(self, txn_id: int, script) -> None:
        self.txn_id = txn_id
        self.script = script
        self.position = 0
        self.waiting = False
        self.writes: dict = {}      # page -> payload this txn wrote last


class Driver:
    """Drives one engine with one script stream, segment by segment."""

    def __init__(self, db, workload: Workload, stream: ScriptStream) -> None:
        self.db = db
        self.workload = workload
        self.stream = stream
        self.record_mode = workload.record_mode
        self._payload = record_payload if self.record_mode else page_payload
        self._live: list = []
        self.crash_at = workload.crash_at
        self.expected: dict = {}        # page -> last committed value
        self._unchecked: set = set()    # pages written since the last check
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero everything measured (the end of warm-up)."""
        self.started = 0
        self._finished = 0
        self.committed = 0
        self.scripted_aborts = 0
        self.forced_aborts = 0
        self.killed_in_flight = 0
        # every time below is host-speed-normalised (see .hostspeed)
        self.segments: list = []        # (committed, seconds)
        self.commit_s: list = []        # inside commit(), update txns
        self.segment_commit_s: list = []    # per segment: (p50, p95)
        self.abort_s: list = []         # inside abort(), scripted
        self.raw_wall_s = 0.0           # segment clocks as measured
        self.restart_ms: list = []
        self.restart_transfers: list = []
        self.log_bytes_max = 0
        self._sums = dict.fromkeys(COUNTERS, 0)
        self._rebase()

    # -- loading ---------------------------------------------------------------

    def load(self) -> None:
        """Bring every page to version 0."""
        db = self.db
        pages = range(db.num_data_pages)
        self.expected = {page: self._payload(page, 0) for page in pages}
        if not self.record_mode:
            db.load_pages(self.expected)
            return
        db.format_record_pages(pages)
        for start in range(0, len(pages), GROUP_SIZE):
            txn = db.begin()
            for page in pages[start:start + GROUP_SIZE]:
                db.insert_record(txn, page, self.expected[page])
            db.commit(txn)

    # -- driving ---------------------------------------------------------------

    def run_segments(self, count: int) -> None:
        """Run ``count`` whole segments."""
        for _ in range(count):
            self._segment()

    def _segment(self) -> None:
        """Run the next block of scripts to completion, then trim the
        log with no transaction active — the segment's clock covers
        both.  With ``crash_at`` set the engine crashes and restarts,
        off the clock, once ``crash_at`` of them have finished."""
        pending = iter(self.stream.next_block())     # drawn off the clock
        crash_at = self.crash_at
        crashed = crash_at is None
        committed_before = self.committed
        finished_before = self._finished
        commits, aborts = len(self.commit_s), len(self.abort_s)
        live = self._live
        wall = 0.0
        script = next(pending)
        probe_before = probe()
        resumed = perf_counter()
        while script is not None or live:
            while script is not None and len(live) < CLIENTS:
                self._begin(script)
                script = next(pending, None)
            if not crashed and self._finished - finished_before >= crash_at:
                crashed = True
                wall += perf_counter() - resumed
                self.restart_cycle()
                resumed = perf_counter()
            elif not self._round():
                self._break_stall()
        wall += perf_counter() - resumed
        self._sample()
        resumed = perf_counter()
        self.db.trim_log(archive_floor=NO_ARCHIVE)
        wall += perf_counter() - resumed
        factor = scale(probe_before, probe())
        self._rebase()
        self.raw_wall_s += wall
        self.segments.append((self.committed - committed_before,
                              wall * factor))
        for samples, first in ((self.commit_s, commits),
                               (self.abort_s, aborts)):
            for index in range(first, len(samples)):
                samples[index] *= factor
        fresh = self.commit_s[commits:]
        if fresh:
            self.segment_commit_s.append((percentile(fresh, 0.50),
                                          percentile(fresh, 0.95)))

    def _begin(self, script) -> None:
        self._live.append(_Live(self.db.begin(), script))
        self.started += 1

    def _round(self) -> bool:
        progressed = False
        db = self.db
        for txn in list(self._live):
            if txn.waiting:
                if not db.grants_for(txn.txn_id):
                    continue
                txn.waiting = False
            if self._advance(txn):
                progressed = True
        return progressed

    def _advance(self, txn: _Live) -> bool:
        """One page access (or the end of transaction) for one client."""
        script = txn.script
        position = txn.position
        if position >= len(script.pages):
            self._finish(txn)
            return True
        page = script.pages[position]
        db = self.db
        try:
            if script.updates[position]:
                payload = self._payload(page, version_of(script, position))
                if self.record_mode:
                    db.update_record(txn.txn_id, page, 0, payload)
                else:
                    db.write_page(txn.txn_id, page, payload)
                txn.writes[page] = payload
                self._unchecked.add(page)
            else:
                if self.record_mode:
                    value = db.read_record(txn.txn_id, page, 0)
                else:
                    value = db.read_page(txn.txn_id, page)
                want = txn.writes.get(page)
                if want is None:
                    want = self.expected[page]
                if value != want:
                    raise OracleMismatch(
                        f"txn {txn.txn_id} read page {page}: got "
                        f"{bytes(value[:24])!r}, oracle has {want[:24]!r}")
        except LockWait:
            txn.waiting = True
            return False
        except (DeadlockError, BufferFullError):
            self._forced_abort(txn)
            return True
        txn.position = position + 1
        return True

    def _finish(self, txn: _Live) -> None:
        db = self.db
        if txn.script.wants_abort:
            started = perf_counter()
            db.abort(txn.txn_id)
            self.abort_s.append(perf_counter() - started)
            self.scripted_aborts += 1
        else:
            started = perf_counter()
            db.commit(txn.txn_id)
            elapsed = perf_counter() - started
            if txn.writes:
                self.commit_s.append(elapsed)
                self.expected.update(txn.writes)
            self.committed += 1
        self._retire(txn)

    def _forced_abort(self, txn: _Live) -> None:
        self.db.abort(txn.txn_id)
        self.forced_aborts += 1
        self._retire(txn)

    def _retire(self, txn: _Live) -> None:
        self._live.remove(txn)
        self._finished += 1
        checkpointer = self.db.checkpointer
        if checkpointer is not None:
            checkpointer.note_work(self.workload.load.pages_per_txn)
            checkpointer.maybe_checkpoint()

    def _break_stall(self) -> None:
        """Every client is waiting: roll back the youngest (counted as a
        forced abort, like a timeout-based resolver would)."""
        self._forced_abort(self._live[-1])

    # -- engine counters (sampled off the clock) --------------------------------

    def _snapshot(self) -> dict:
        """The engine's monotone counters and its live log size, read
        through the monitoring API."""
        db = self.db
        stats = db.statistics()
        buffer = db.buffer.stats
        log_bytes = stats["undo_log_bytes"] + stats.get("commit_log_bytes", 0)
        if db.config.force:
            # FORCE keeps separate undo and redo logs; under ¬FORCE both
            # keys report the one combined log
            log_bytes += stats["redo_log_bytes"]
        return {
            "transfers": stats["page_transfers"],
            "log_transfers": db.stats.log_transfers,
            "hits": buffer.hits,
            "misses": buffer.misses,
            "evictions": buffer.evictions,
            "steals": stats["buffer_steals"],
            "unlogged_steals": stats["unlogged_steals"],
            "logged_steals": stats["logged_steals"],
            "before_images_logged": stats["before_images_logged"],
            "deferred_forces": stats.get("deferred_forces", 0),
            "batched_flushes": stats.get("batched_flushes", 0),
            "log_bytes": log_bytes,
        }

    def _rebase(self) -> None:
        """Start counting from the engine's current counter values."""
        self._base = self._snapshot()

    def _sample(self, keys=COUNTERS) -> None:
        """Add what the counters gained since the last sample or rebase."""
        snap = self._snapshot()
        for key in keys:
            self._sums[key] += snap[key] - self._base[key]
        self.log_bytes_max = max(self.log_bytes_max, snap["log_bytes"])
        self._base = snap

    def totals(self) -> dict:
        """Everything counted since :meth:`reset_counts`, restarts
        excluded; call at a segment boundary."""
        return dict(self._sums, committed=self.committed,
                    commit_s=list(self.commit_s),
                    segment_commit_s=list(self.segment_commit_s))

    # -- failures --------------------------------------------------------------

    def restart_cycle(self, full_check: bool = False) -> None:
        """crash() with the live transactions in flight, recover(), then
        check the pages written since the last check — or every page —
        against the oracle.  What recover() transfers is a restart
        cost, kept out of the per-commit counts."""
        db = self.db
        self._sample()
        probe_before = probe()
        t0 = perf_counter()
        db.crash()
        t1 = perf_counter()
        # crash() drains deferred log forces (still normal-path cost)
        # and zeroes the buffer counters
        self._sample(keys=("transfers", "log_transfers"))
        t2 = perf_counter()
        db.recover()
        t3 = perf_counter()
        factor = scale(probe_before, probe())
        crashed = self._base
        self._rebase()
        self.restart_transfers.append(
            self._base["transfers"] - crashed["transfers"])
        self.restart_ms.append(((t1 - t0) + (t3 - t2)) * 1e3 * factor)
        self.killed_in_flight += len(self._live)
        self._live.clear()
        self.check_committed_state(full=full_check)

    def check_committed_state(self, full: bool) -> None:
        """Each page must hold the last value a committed transaction
        wrote.  Only valid with no transaction in flight."""
        view = self.db.committed_view
        expected = self.expected
        for page in (expected if full else sorted(self._unchecked)):
            got = view(page)
            if self.record_mode:
                got = SlottedPage.from_bytes(got).read(0)
            if got != expected[page]:
                raise OracleMismatch(
                    f"page {page} after restart: engine has "
                    f"{bytes(got[:24])!r}, oracle has {expected[page][:24]!r}")
        self._unchecked.clear()
