"""The ledger's metric names, units, directions and bounds.

``BENCHMARK.json`` at the repository root restates these tables for the
driver; ``test_ledger.py`` checks the two agree.  Nothing here imports
the program under test, so ``compare`` runs without it.
"""

from __future__ import annotations

LAYERS = (
    "db.database", "txn.locks", "buffer", "db.policy", "core.rda",
    "storage.twin_array", "storage.kernels", "storage.disk", "wal.log",
    "wal.group_commit", "db.recovery", "db.workers", "obs.tracer",
)

# name -> (unit, better, bound).  A bound is the share of the parent's
# median by which the metric may worsen before it counts as a
# regression; each is sized from the widest spread (IQR / median over
# ten seeds) seen on any workload — about three times it, capped at the
# contract's 0.25 (README.md has the table).  Every time is
# host-speed-normalised (see hostspeed.py).
END_TO_END = {
    # engine build + page load / record seeding + script generation +
    # 500 warm-up transactions; median of SETUP_REPEATS set-ups
    "setup_s": ("s", "lower", 0.25),
    # median over segments of committed / segment time, quiescent log
    # trim included
    "txns_per_s": ("1/s", "higher", 0.20),
    # time inside commit() of committed update transactions: median
    # over segments of the segment's percentile
    "commit_p50_us": ("us", "lower", 0.20),
    "commit_p95_us": ("us", "lower", 0.25),
    # array + log device transfers of the timed phase / committed;
    # what recover() transfers is excluded
    "page_transfers_per_commit": ("count", "lower", 0.02),
    "log_transfers_per_commit": ("count", "lower", 0.03),
    # median crash() + recover() time per cycle, clients in flight
    "restart_ms": ("ms", "lower", 0.25),
    # mean transfers charged inside recover() per cycle
    "restart_transfers": ("count", "lower", 0.25),
    # 1 - forced aborts / started (deadlock victim, buffer full, stall
    # break); scripted aborts and crash-killed transactions are not
    # failures
    "unforced_txn_share": ("ratio", "higher", 0.002),
    # high-water RSS of the workload process plus its shard workers
    # when the 32nd timed segment ends
    "peak_rss_mb": ("MB", "lower", 0.10),
}

EXACT = ("page_transfers_per_commit", "log_transfers_per_commit",
         "restart_transfers", "unforced_txn_share")
"""Counts made by the program: on the same inputs and the same number
of transactions they repeat exactly, and ``compare`` tests them by
equality."""


def _per_layer() -> dict:
    table = {}
    for layer in LAYERS:
        table[f"{layer}.self_us_per_txn"] = ("us", "lower")
        table[f"{layer}.calls_per_txn"] = ("count", "lower")
    table.update({
        "ledger.py_calls_per_txn": ("count", "lower"),
        "ledger.trace_overhead": ("ratio", "higher"),
        "db.database.commit_p99_us": ("us", "lower"),
        "db.database.abort_p50_us": ("us", "lower"),
        "buffer.hit_ratio": ("ratio", "higher"),
        "buffer.evictions_per_txn": ("count", "lower"),
        "buffer.steals_per_txn": ("count", "lower"),
        "db.policy.unlogged_steal_fraction": ("ratio", "higher"),
        "db.policy.logged_steals_per_txn": ("count", "lower"),
        "db.policy.before_images_per_txn": ("count", "lower"),
        "db.policy.pages_per_batch": ("count", "higher"),
        "storage.twin_array.disk_reads_per_page_written": ("count", "lower"),
        "storage.kernels.bytes_xored_per_txn": ("B", "lower"),
        "storage.disk.reads_per_commit": ("count", "lower"),
        "storage.disk.writes_per_commit": ("count", "lower"),
        "storage.disk.busiest_arm_ms_per_commit": ("ms", "lower"),
        "storage.disk.busy_ms_per_commit": ("ms", "lower"),
        "storage.disk.seeks_per_commit": ("count", "lower"),
        "wal.log.bytes_per_commit": ("B", "lower"),
        "wal.log.forces_per_commit": ("count", "lower"),
        "wal.log.live_bytes_max": ("B", "lower"),
        "wal.group_commit.deferred_forces_per_commit": ("count", "higher"),
        "wal.group_commit.batched_flushes_per_commit": ("count", "lower"),
        "db.recovery.restart_p95_ms": ("ms", "lower"),
        "db.recovery.self_us_per_restart": ("us", "lower"),
        "wal.log.self_us_per_restart": ("us", "lower"),
        "core.rda.self_us_per_restart": ("us", "lower"),
        "db.workers.round_trips_per_txn": ("count", "lower"),
        "db.workers.wait_us_per_txn": ("us", "lower"),
        "db.workers.critical_path_transfers_per_commit": ("count", "lower"),
        "db.workers.worker_cpu_s": ("s", "lower"),
        "obs.tracer.events_per_txn": ("count", "lower"),
        "obs.tracer.bytes_per_txn": ("B", "lower"),
    })
    return table


PER_LAYER = _per_layer()    # name -> (unit, better); no bounds
