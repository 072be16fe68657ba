"""One workload, one process: set up, drive, gate, compute the metrics.

Two kinds of run.  The *untraced* run gives the end-to-end metrics: it
sets the engine up ``SETUP_REPEATS`` times (the median is ``setup_s``),
drives the timed phase on the last one, then a tail of crash/restart
cycles, and ends at the correctness gate.  The *traced* run gives the
per-layer metrics from three passes on fresh engines: an untraced
reference, the same load with the shims of :mod:`.spans` installed, and
a ``sys.setprofile`` pass that counts calls.  No pass reports a number
unless its gate held: every read and every post-restart page agreed
with the committed-state oracle, ``verify_parity()`` came back empty,
and at least one transaction committed.
"""

from __future__ import annotations

import pathlib
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

from .driver import Driver, OracleMismatch, percentile
from .engines import build_engine
from .hostspeed import probe, scale
from .metrics import LAYERS, PER_LAYER
from .scripts import ScriptStream
from .spans import DRIVER, OTHER, SpanRecorder, count_calls
from .workloads import CRASH_AT, SEGMENT, WARMUP_SEGMENTS, Workload

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 5
TAIL_SEGMENTS = 24          # after the timed phase, with one crash each,
                            # on a workload that does not crash by itself
RSS_SEGMENTS = 32           # peak RSS is read after this many (or the last)
TRACED_TAIL_SEGMENTS = 2
SPAN_CAPACITY = 400_000     # the traced pass stops at the next segment end
PROFILE_SEGMENTS = 8        # 1000 transactions under sys.setprofile


class GateFailure(Exception):
    """The correctness gate did not hold; the run reports no metrics."""


@dataclass(frozen=True)
class Budget:
    """How much one timed phase drives: a fixed number of started
    transactions (exact counts repeat) or a wall-clock duration."""

    txns: int | None = None
    seconds: float | None = None

    def scaled(self, share: float) -> "Budget":
        if self.txns is not None:
            return Budget(txns=max(SEGMENT, int(self.txns * share)))
        return Budget(seconds=self.seconds * share)

    def segments(self):
        """Yields before each segment the phase should still run."""
        if self.txns is not None:
            yield from range(-(-self.txns // SEGMENT))
            return
        deadline = perf_counter() + self.seconds
        yield 0
        while perf_counter() < deadline:
            yield 0

    def drive(self, driver: Driver) -> None:
        for _ in self.segments():
            driver.run_segments(count=1)


def _set_up(workload: Workload, seed: int):
    """Engine build + page load or record seeding + warm-up."""
    engine = build_engine(workload, OUT_DIR)
    try:
        stream = ScriptStream(workload.load, workload.num_pages, seed)
        driver = Driver(engine.db, workload, stream)
        driver.load()
        driver.run_segments(count=WARMUP_SEGMENTS)
        driver.reset_counts()
    except BaseException:
        engine.close()
        raise
    return engine, driver


def _restart_tail(driver: Driver, segments: int) -> None:
    """Restart samples for a workload whose load never crashes: a few
    more segments with one crash each, the clients in flight."""
    if driver.crash_at is None:
        driver.crash_at = CRASH_AT
        driver.run_segments(count=segments)
        driver.crash_at = None


def _gate(driver: Driver) -> None:
    """crash() -> recover() -> oracle -> verify_parity() == []."""
    driver.restart_cycle(full_check=True)
    bad = driver.db.verify_parity()
    if bad:
        raise GateFailure(f"verify_parity() reports {bad!r}")
    if driver.committed == 0:
        raise GateFailure("no transaction committed")


def _segment_rate(segments: list) -> float:
    return statistics.median(committed / wall for committed, wall in segments)


def _peak_rss_mb(db) -> float:
    """High-water RSS of this process plus its live shard workers."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    supervisor = getattr(db, "supervisor", None)
    for proc in (supervisor.procs if supervisor is not None else ()):
        status = pathlib.Path(f"/proc/{proc.pid}/status").read_text()
        kilobytes += int(status.split("VmHWM:")[1].split()[0])
    return kilobytes / 1024.0


def run_untraced(workload: Workload, seed: int, budget: Budget) -> dict:
    """The end-to-end metrics of one workload."""
    setups = []
    engine = None
    try:
        for _ in range(SETUP_REPEATS):
            if engine is not None:
                engine.close()
            probe_before = probe()
            started = perf_counter()
            engine, driver = _set_up(workload, seed)
            elapsed = perf_counter() - started
            setups.append(elapsed * scale(probe_before, probe()))
        peak_rss_mb = None
        for _ in budget.segments():
            driver.run_segments(count=1)
            if len(driver.segments) == RSS_SEGMENTS:
                peak_rss_mb = _peak_rss_mb(engine.db)
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb(engine.db)
        timed = driver.totals()
        timed_segments = len(driver.segments)
        _restart_tail(driver, TAIL_SEGMENTS)
        _gate(driver)
    finally:
        if engine is not None:
            engine.close()
    committed = timed["committed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "txns_per_s": _segment_rate(driver.segments[:timed_segments]),
        "commit_p50_us": statistics.median(
            p50 for p50, _ in timed["segment_commit_s"]) * 1e6,
        "commit_p95_us": statistics.median(
            p95 for _, p95 in timed["segment_commit_s"]) * 1e6,
        "page_transfers_per_commit": timed["transfers"] / committed,
        "log_transfers_per_commit": timed["log_transfers"] / committed,
        "restart_ms": statistics.median(driver.restart_ms),
        "restart_transfers": statistics.fmean(driver.restart_transfers),
        "unforced_txn_share":
            1.0 - driver.forced_aborts / driver.started,
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "metrics": metrics,
        "attempted": driver.started,
        "failed": driver.forced_aborts,
        "digest": driver.stream.pinned_digest,
        "notes": {
            "scripts_drawn": driver.stream.drawn,
            "stream_digest": driver.stream.digest(),
            "segments": timed_segments,
            "raw_segment_wall_s": driver.raw_wall_s,
            "commit_samples": len(timed["commit_s"]),
            "restart_samples": len(driver.restart_ms),
            "committed": driver.committed,
            "scripted_aborts": driver.scripted_aborts,
            "killed_in_flight": driver.killed_in_flight,
            "failed_txn_share":
                f"{driver.forced_aborts}/{driver.started}",
        },
    }


def run_traced(workload: Workload, seed: int, budget: Budget) -> dict:
    """The per-layer metrics of one workload."""
    reference = _reference_pass(workload, seed, budget)
    traced = _traced_pass(workload, seed, budget)
    calls, profiled_txns = _profile_pass(workload, seed)

    txns = traced["started"]
    commits = traced["committed"]
    summary = traced["summary"]
    totals = traced["totals"]
    named_ns, named_counts = summary["named_ns"], summary["named_counts"]
    restarts = max(1, traced["restarts"])
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_txn"] = \
            summary["self_ns"][layer] / 1e3 / txns
        metrics[f"{layer}.calls_per_txn"] = \
            calls.get(layer, 0) / profiled_txns
    metrics["ledger.py_calls_per_txn"] = sum(calls.values()) / profiled_txns
    metrics["ledger.trace_overhead"] = traced["rate"] / reference["rate"]
    metrics["db.database.commit_p99_us"] = \
        percentile(reference["commit_s"], 0.99) * 1e6
    if reference["abort_s"]:
        metrics["db.database.abort_p50_us"] = \
            percentile(reference["abort_s"], 0.50) * 1e6

    references = totals["hits"] + totals["misses"]
    metrics["buffer.hit_ratio"] = totals["hits"] / max(1, references)
    metrics["buffer.evictions_per_txn"] = totals["evictions"] / txns
    metrics["buffer.steals_per_txn"] = totals["steals"] / txns
    steals = totals["unlogged_steals"] + totals["logged_steals"]
    metrics["db.policy.unlogged_steal_fraction"] = \
        totals["unlogged_steals"] / max(1, steals)
    metrics["db.policy.logged_steals_per_txn"] = \
        totals["logged_steals"] / txns
    metrics["db.policy.before_images_per_txn"] = \
        totals["before_images_logged"] / txns
    recorder = traced["recorder"]
    batch = ("db.policy", "writeback_batch")
    if named_counts.get(batch):
        metrics["db.policy.pages_per_batch"] = \
            recorder.work[batch] / named_counts[batch]
    pages_written = sum(
        recorder.work.get(("storage.twin_array", name), 0)
        for name in ("small_write", "small_write_batch"))
    if pages_written:
        metrics["storage.twin_array.disk_reads_per_page_written"] = \
            recorder.reads_under_writes() / pages_written
    metrics["storage.kernels.bytes_xored_per_txn"] = sum(
        units for (layer, _), units in recorder.work.items()
        if layer == "storage.kernels") / txns
    # read_with_header / write_with_header delegate to read / write
    metrics["storage.disk.reads_per_commit"] = \
        named_counts.get(("storage.disk", "read"), 0) / commits
    metrics["storage.disk.writes_per_commit"] = \
        named_counts.get(("storage.disk", "write"), 0) / commits
    disk_time = recorder.disk_time
    if disk_time is not None:
        metrics["storage.disk.busiest_arm_ms_per_commit"] = \
            disk_time.busiest_ms / commits
        metrics["storage.disk.busy_ms_per_commit"] = \
            disk_time.total_busy_ms / commits
        metrics["storage.disk.seeks_per_commit"] = \
            disk_time.total_seeks / commits
    metrics["wal.log.bytes_per_commit"] = totals["log_bytes"] / commits
    metrics["wal.log.forces_per_commit"] = \
        named_counts.get(("wal.log", "force"), 0) / commits
    metrics["wal.log.live_bytes_max"] = float(traced["log_bytes_max"])
    metrics["wal.group_commit.deferred_forces_per_commit"] = \
        totals["deferred_forces"] / commits
    metrics["wal.group_commit.batched_flushes_per_commit"] = \
        totals["batched_flushes"] / commits
    metrics["db.recovery.restart_p95_ms"] = \
        percentile(traced["restart_ms"], 0.95)
    for layer in ("db.recovery", "wal.log", "core.rda"):
        metrics[f"{layer}.self_us_per_restart"] = \
            summary["restart_self_ns"][layer] / 1e3 / restarts
    if workload.shards:
        recv = ("db.workers", "recv")
        metrics["db.workers.round_trips_per_txn"] = \
            named_counts.get(recv, 0) / txns
        metrics["db.workers.wait_us_per_txn"] = \
            named_ns.get(recv, 0) / 1e3 / txns
        metrics["db.workers.critical_path_transfers_per_commit"] = \
            traced["critical_path_transfers"] / commits
        metrics["db.workers.worker_cpu_s"] = traced["worker_cpu_s"]
    metrics["obs.tracer.events_per_txn"] = traced["trace_events"] / txns
    metrics["obs.tracer.bytes_per_txn"] = traced["trace_bytes"] / txns
    return {
        "metrics": metrics,
        "attempted": txns,
        "failed": traced["forced_aborts"],
        "digest": traced["digest"],
        "notes": {
            "traced_txns": txns,
            "spans": summary["spans"],
            "span_file": str(traced["span_file"]),
            "traced_wall_s": traced["wall_s"],
            "root_span_s": summary["root_ns"] / 1e9,
            "restarts": traced["restarts"],
            "profiled_txns": profiled_txns,
            "driver_calls_per_txn": calls.get(DRIVER, 0) / profiled_txns,
            "other_stdlib_calls_per_txn": calls.get(OTHER, 0) / profiled_txns,
        },
    }


def _reference_pass(workload: Workload, seed: int, budget: Budget) -> dict:
    engine, driver = _set_up(workload, seed)
    try:
        budget.drive(driver)
        rate = _segment_rate(driver.segments)
        commit_s, abort_s = driver.commit_s, driver.abort_s
        _gate(driver)
    finally:
        engine.close()
    return {"rate": rate, "commit_s": commit_s, "abort_s": abort_s}


def _traced_pass(workload: Workload, seed: int, budget: Budget) -> dict:
    engine, driver = _set_up(workload, seed)
    recorder = SpanRecorder(SPAN_CAPACITY + SPAN_CAPACITY // 4)
    tracer = engine.tracer
    try:
        if tracer is not None:
            tracer.sink.flush()
        trace_bytes = (engine.trace_path.stat().st_size
                       if engine.trace_path else 0)
        trace_events = tracer.events_emitted if tracer is not None else 0
        cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        critical = _shard_transfers(engine.db, workload)
        recorder.install(engine)
        try:
            started = perf_counter()
            for _ in budget.segments():
                driver.run_segments(count=1)
                if recorder.count >= SPAN_CAPACITY:
                    break
            rate = _segment_rate(driver.segments)
            totals = driver.totals()
            critical = [after - before for after, before in zip(
                _shard_transfers(engine.db, workload), critical)]
            _restart_tail(driver, TRACED_TAIL_SEGMENTS)
            _gate(driver)
            wall_s = perf_counter() - started
        finally:
            recorder.remove()
        if tracer is not None:
            trace_events = tracer.events_emitted - trace_events
    finally:
        engine.close()
    if engine.trace_path:
        trace_bytes = engine.trace_path.stat().st_size - trace_bytes
    cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    span_file = OUT_DIR / f"{workload.name}.spans.jsonl"
    recorder.write_jsonl(span_file)
    return {
        "recorder": recorder, "summary": recorder.summary(),
        "rate": rate, "totals": totals, "wall_s": wall_s,
        "started": driver.started, "committed": driver.committed,
        "forced_aborts": driver.forced_aborts,
        "restarts": len(driver.restart_ms), "restart_ms": driver.restart_ms,
        "log_bytes_max": driver.log_bytes_max,
        # busiest shard + the global commit log (the last entry)
        "critical_path_transfers":
            max(critical[:-1]) + critical[-1] if critical else 0,
        "worker_cpu_s": (cpu_after.ru_utime + cpu_after.ru_stime
                         - cpu_before.ru_utime - cpu_before.ru_stime),
        "trace_events": trace_events, "trace_bytes": trace_bytes,
        "digest": driver.stream.pinned_digest, "span_file": span_file,
    }


def _shard_transfers(db, workload: Workload) -> list:
    """Transfers so far of each worker shard, then of the global commit
    log (what the facade total holds beyond its shards)."""
    if not workload.shards:
        return []
    shards = [snap["reads"] + snap["writes"]
              for snap in (proxy.snap() for proxy in db.shards)]
    return shards + [db.stats.total - sum(shards)]


def _profile_pass(workload: Workload, seed: int) -> tuple:
    engine, driver = _set_up(workload, seed)
    try:
        calls = count_calls(
            lambda: driver.run_segments(count=PROFILE_SEGMENTS))
        started = driver.started
        _gate(driver)
    finally:
        engine.close()
    return calls, started


__all__ = ["Budget", "GateFailure", "OracleMismatch", "run_traced",
           "run_untraced"]
