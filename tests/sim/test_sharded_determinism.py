"""Seed determinism of the sharded engine, plus the sharded
fault-sweep and conformance smokes.

The sharded engine layers three new sources of potential
nondeterminism over the single engine — the rotating shard scheduler,
the shared group-commit coordinator, and the merged per-shard metrics
— so the byte-identical-rerun tripwire of
``tests/sim/test_determinism.py`` is repeated here at K ∈ {1, 2, 4}.
"""

import dataclasses
import json

import pytest

from repro.check import HistoryRecorder, run_conformance
from repro.db import ShardedDatabase, preset
from repro.sim import Simulator, WorkloadSpec
from repro.sim.faultplan import fault_workload, run_sweep

SPEC = WorkloadSpec(concurrency=4, pages_per_txn=5,
                    update_txn_fraction=0.8, update_probability=0.9,
                    abort_probability=0.05, communality=0.6)

OVERRIDES = dict(group_size=5, num_groups=12, buffer_capacity=16)


def one_run(shards, seed, crash_every=None, flush_horizon=4,
            name="page-force-rda"):
    recorder = HistoryRecorder()
    db = ShardedDatabase(preset(name, **OVERRIDES), shards=shards,
                         flush_horizon=flush_horizon, history=recorder)
    simulator = Simulator(db, SPEC, seed=seed)
    if db.config.record_logging:
        simulator.seed_records()
    report = simulator.run(30, crash_every=crash_every)
    report_json = json.dumps(dataclasses.asdict(report), sort_keys=True)
    return report_json, recorder.history.to_json()


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_same_seed_same_run(shards):
    first = one_run(shards, seed=11)
    second = one_run(shards, seed=11)
    assert first[0] == second[0], "SimulationReport diverged"
    assert first[1] == second[1], "recorded history diverged"


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_same_seed_same_run_with_crashes(shards):
    first = one_run(shards, seed=11, crash_every=7)
    second = one_run(shards, seed=11, crash_every=7)
    assert first == second


def test_record_mode_deterministic_at_k2():
    first = one_run(2, seed=5, crash_every=9, name="record-noforce-log")
    second = one_run(2, seed=5, crash_every=9, name="record-noforce-log")
    assert first == second


def test_different_shard_counts_differ():
    # sanity: the comparisons above are not vacuous
    assert one_run(2, seed=11) != one_run(4, seed=11)


def test_two_shard_fault_sweep_recovers_every_crash_point():
    """Every crash point of the shard-aligned script, in every
    perturbation mode, must recover to the oracle state."""
    config = preset("page-force-rda", group_size=4, num_groups=8,
                    buffer_capacity=8)
    ops = fault_workload(transactions=3, group_size=4, shards=2)

    def make_db():
        return ShardedDatabase(config, shards=2, flush_horizon=2)

    report = run_sweep(make_db, ops)
    assert report.clean, report.counts
    assert report.counts["violation"] == 0
    assert report.counts["recovered"] == len(report.results)


def test_sharded_conformance_cell_clean():
    run = run_conformance("page-force-rda", transactions=20, seed=3,
                          crash_every=8, shards=2, flush_horizon=4)
    assert run.cell == "page-force-rda@k2"
    assert run.clean, [v.detail for v in run.violations[:3]]
