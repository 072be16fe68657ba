"""X10: TPC-B / DebitCredit — the era's canonical OLTP shape, live.

Runs the same seeded DebitCredit stream under all four record-logging
configurations, asserting money conservation throughout and comparing
page transfers per committed transaction.  The qualitative expectation
from Figures 11/12 carries over: RDA helps, ¬FORCE/ACC helps more.
"""

from repro.check import verify_database
from repro.db import Database, preset
from repro.sim import TPCB

from .conftest import write_table

PRESETS = ("record-force-rda", "record-force-log",
           "record-noforce-rda", "record-noforce-log")


def run_one(name: str, transactions: int = 80, seed: int = 9):
    overrides = dict(group_size=5, num_groups=16, buffer_capacity=20)
    if "noforce" in name:
        overrides["checkpoint_interval"] = 400
    db = Database(preset(name, **overrides))
    workload = TPCB(db, seed=seed)
    workload.setup()
    baseline = db.stats.total
    workload.run(transactions)
    assert workload.conserved(), workload.totals()
    assert verify_database(db) == []
    return (db.stats.total - baseline) / workload.committed


def test_tpcb_cost_per_transaction(benchmark, results_dir):
    def campaign():
        return {name: run_one(name) for name in PRESETS}

    costs = benchmark.pedantic(campaign, rounds=1, iterations=1)
    lines = ["X10: TPC-B page transfers per committed transaction",
             f"{'configuration':>22} | {'transfers/txn':>13}"]
    for name in PRESETS:
        lines.append(f"{name:>22} | {costs[name]:13.1f}")
    write_table(results_dir, "tpcb", "\n".join(lines))

    assert costs["record-noforce-rda"] <= costs["record-noforce-log"]
    assert costs["record-noforce-rda"] < costs["record-force-rda"]
    benchmark.extra_info["costs"] = {k: round(v, 1) for k, v in costs.items()}


def test_tpcb_with_crashes(benchmark):
    """Conservation under periodic crashes, timed end to end."""

    def campaign():
        db = Database(preset("record-noforce-rda", group_size=5,
                             num_groups=16, buffer_capacity=20,
                             checkpoint_interval=300))
        workload = TPCB(db, seed=13)
        workload.setup()
        report = workload.run(60, crash_every=20)
        assert report["crashes"] == 3
        assert workload.conserved()
        return report

    report = benchmark.pedantic(campaign, rounds=1, iterations=1)
    benchmark.extra_info.update(report)
