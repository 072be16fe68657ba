"""Sharded-engine benchmark: throughput and log transfers vs K and H.

Runs the same seeded workload over a K-way
:class:`~repro.db.sharded.ShardedDatabase` for every combination of
shard count K and group-commit flush horizon H, and measures the
quantity group commit exists to amortize: **log transfers per
committed transaction** (transfers on the negative-id log devices —
the shards' duplexed WALs plus the global commit log).

With per-commit forcing (H=1) every commit flushes a partial log page
to both mirrors of every log it touched; at H>1 the shared
:class:`~repro.wal.group_commit.GroupCommitCoordinator` batches those
forces so H commits' records ride the same page flushes.  The
acceptance criterion is the PR's headline: **at every K >= 2, H=8
spends fewer log transfers per committed transaction than H=1.**

The **worker cells** rerun the K sweep with the K shards in K OS
processes (:class:`~repro.db.workers.WorkerShardedDatabase`: a worker
per shard but the last, which the facade's process serves).  Like the
rest of this reproduction, throughput there is scored in *simulated
disk time*: each shard owns an independent array whose arms run in
parallel, so the disk-time critical path of a run is the busiest
shard's transfer count plus the global commit log's (the one stream
every commit serializes through — the coordinator barrier).  Committed
transactions per 1k critical-path transfers must rise monotonically
K=1 -> 2 -> 4, and the fanned-out restart's critical-path transfers
must shrink as K grows (the recovery-time-vs-workers curve).  Host
wall-clock is recorded alongside for transparency, but is not judged:
on a single-core CI box K processes merely time-slice and the pipe
round-trips dominate, which says nothing about the array model.

Results go to ``benchmarks/results/shards_perf.json`` and are mirrored
to ``BENCH_shards.json`` at the repository root so later PRs have a
trajectory to regress against.

Run standalone (``python benchmarks/bench_shards.py [--quick]``) or
via pytest (``pytest benchmarks/bench_shards.py``).
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.db import (ShardedDatabase, WorkerShardedDatabase,  # noqa: E402
                      preset)
from repro.sim import Simulator, WorkloadSpec                  # noqa: E402
from repro.storage import make_page                            # noqa: E402

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "shards_perf.json"
ROOT_TRAJECTORY_PATH = (pathlib.Path(__file__).parent.parent
                        / "BENCH_shards.json")

PRESET = "page-force-rda"
SHARD_COUNTS = (1, 2, 4)
FLUSH_HORIZONS = (1, 8)
TRANSACTIONS = 400
QUICK_TRANSACTIONS = 150

# 24 groups x (5-1) data pages = 96 data pages, divisible by every K
OVERRIDES = dict(group_size=5, num_groups=24, buffer_capacity=32)

SPEC = WorkloadSpec(concurrency=4, pages_per_txn=4,
                    update_txn_fraction=0.9, update_probability=0.9,
                    abort_probability=0.02, communality=0.4)


def run_cell(shards: int, horizon: int, transactions: int) -> dict:
    """One (K, H) cell: drive the workload, return the measurements."""
    db = ShardedDatabase(preset(PRESET, **OVERRIDES), shards=shards,
                         flush_horizon=horizon)
    simulator = Simulator(db, SPEC, seed=7)
    started = time.perf_counter()
    report = simulator.run(transactions)
    elapsed = time.perf_counter() - started
    stats = db.statistics()
    committed = max(1, report.committed)
    log_transfers = db.stats.log_transfers
    return {
        "shards": shards,
        "flush_horizon": horizon,
        "committed": report.committed,
        "aborted": report.aborted,
        "page_transfers": db.stats.total,
        "log_transfers": log_transfers,
        "log_transfers_per_commit": round(log_transfers / committed, 3),
        "transfers_per_commit": round(db.stats.total / committed, 3),
        "deferred_forces": stats["deferred_forces"],
        "batched_flushes": stats["batched_flushes"],
        "unlogged_steal_fraction": round(
            stats["unlogged_steals"]
            / max(1, stats["unlogged_steals"] + stats["logged_steals"]), 3),
        "wall_seconds": round(elapsed, 4),
        "txns_per_second": round(report.committed / max(elapsed, 1e-9), 1),
    }


WORKER_HORIZON = 8
RECOVERY_PAGES = 96     # every data page: committed writes + a loser


def run_worker_cell(shards: int, transactions: int) -> dict:
    """One worker-mode K cell: throughput sweep, then a loaded restart.

    The judged numbers are in simulated disk time: the critical path of
    a run is ``max`` over shards of that shard's array transfers plus
    the global commit log's (the serial barrier).  Wall seconds ride
    along unjudged — see the module docstring.
    """
    db = WorkerShardedDatabase(preset(PRESET, **OVERRIDES), shards=shards,
                               flush_horizon=WORKER_HORIZON)
    try:
        simulator = Simulator(db, SPEC, seed=7)
        started = time.perf_counter()
        report = simulator.run(transactions)
        elapsed = time.perf_counter() - started
        per_shard = [snap["reads"] + snap["writes"] for snap in db._snaps()]
        gcommit = db._commit_stats.total
        critical = max(per_shard) + gcommit
        committed = max(1, report.committed)

        # the recovery-time-vs-workers leg: a full-array restart
        # (committed writes everywhere, a loser in flight) fanned out
        # across K concurrently-recovering workers
        winner = db.begin()
        for page in range(RECOVERY_PAGES):
            db.write_page(winner, page, make_page(b"w%d" % (page % 10)))
        db.commit(winner)
        loser = db.begin()
        for page in range(RECOVERY_PAGES):
            db.write_page(loser, page, make_page(b"doomed"))
        db.crash()
        before = [snap["reads"] + snap["writes"] for snap in db._snaps()]
        gcommit_before = db._commit_stats.total
        started = time.perf_counter()
        recovery = db.recover()
        recovery_wall = time.perf_counter() - started
        after = [snap["reads"] + snap["writes"] for snap in db._snaps()]
        recovery_critical = (max(b - a for a, b in zip(before, after))
                             + db._commit_stats.total - gcommit_before)
    finally:
        db.close()
    return {
        "shards": shards,
        "flush_horizon": WORKER_HORIZON,
        "workers": True,
        "committed": report.committed,
        "aborted": report.aborted,
        "per_shard_transfers": per_shard,
        "commit_log_transfers": gcommit,
        "critical_path_transfers": critical,
        "txns_per_1k_critical_transfers": round(committed / (critical / 1000),
                                                1),
        "wall_seconds": round(elapsed, 4),
        "txns_per_second_wall": round(report.committed
                                      / max(elapsed, 1e-9), 1),
        "recovery": {
            "page_transfers": recovery["page_transfers"],
            "critical_path_transfers": recovery_critical,
            "wall_ms": round(recovery_wall * 1e3, 3),
        },
    }


def run(quick: bool = False) -> dict:
    transactions = QUICK_TRANSACTIONS if quick else TRANSACTIONS
    cells = [run_cell(shards, horizon, transactions)
             for shards in SHARD_COUNTS
             for horizon in FLUSH_HORIZONS]
    by_key = {(c["shards"], c["flush_horizon"]): c for c in cells}
    # headline: at K>=2 the batched horizon must beat per-commit forcing
    group_commit_wins = {
        f"k{shards}": (by_key[(shards, 8)]["log_transfers_per_commit"]
                       < by_key[(shards, 1)]["log_transfers_per_commit"])
        for shards in SHARD_COUNTS if shards >= 2
    }
    worker_cells = [run_worker_cell(shards, transactions)
                    for shards in SHARD_COUNTS]
    throughputs = [c["txns_per_1k_critical_transfers"] for c in worker_cells]
    recovery_paths = [c["recovery"]["critical_path_transfers"]
                      for c in worker_cells]
    worker_monotone = all(lo < hi for lo, hi in zip(throughputs,
                                                    throughputs[1:]))
    restart_shrinks = all(hi > lo for hi, lo in zip(recovery_paths,
                                                    recovery_paths[1:]))
    return {
        "benchmark": "sharded engine: throughput and log transfers vs K, H",
        "preset": PRESET,
        "overrides": OVERRIDES,
        "transactions": transactions,
        "seed": 7,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cells": cells,
        "worker_cells": worker_cells,
        "acceptance": {
            "criterion": "log transfers per committed txn: H=8 < H=1 "
                         "at every K >= 2; worker cells: committed txns "
                         "per 1k critical-path transfers rises "
                         "monotonically K=1 -> 4 and the parallel "
                         "restart's critical path shrinks",
            "group_commit_reduces_log_transfers": group_commit_wins,
            "worker_throughput_monotone": worker_monotone,
            "worker_restart_critical_path_shrinks": restart_shrinks,
            "ok": (all(group_commit_wins.values()) and worker_monotone
                   and restart_shrinks),
        },
    }


def write_results(doc: dict) -> None:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    for path in (RESULTS_PATH, ROOT_TRAJECTORY_PATH):
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def test_group_commit_amortizes_log_forces():
    """pytest entry: quick run, still enforcing the amortization win
    plus the worker-mode scaling criteria."""
    doc = run(quick=True)
    write_results(doc)
    assert doc["acceptance"]["ok"], (
        "sharded bench acceptance failed (group-commit amortization, "
        "worker throughput monotonicity, or parallel-restart critical "
        f"path): {doc['acceptance']}")


def main() -> int:
    quick = "--quick" in sys.argv[1:]
    doc = run(quick=quick)
    write_results(doc)
    print(json.dumps(doc, indent=2))
    print(f"\n[written to {RESULTS_PATH} and {ROOT_TRAJECTORY_PATH}]")
    if not doc["acceptance"]["ok"]:
        print("FAIL: group commit did not reduce log transfers per commit",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
