"""Seed-determinism regression: the same (spec, seed) pair must
reproduce the run bit for bit — identical SimulationReport and an
identical recorded history — across all five recovery classes.

Any nondeterminism (dict-order iteration, id()-keyed structures,
hidden global RNG use) breaks the faultplan sweeps and makes
conformance verdicts unreproducible, so this is a tier-1 tripwire.
"""

import dataclasses
import json

import pytest

from repro.check import HistoryRecorder
from repro.db import Database, preset
from repro.sim import Simulator, WorkloadSpec

RECOVERY_CLASSES = [
    "page-force-rda",
    "page-noforce-rda",
    "record-force-log",
    "record-noforce-log",
    "page-noforce-redo",
    "record-noforce-rda-redo",
]

SPEC = WorkloadSpec(concurrency=4, pages_per_txn=5,
                    update_txn_fraction=0.8, update_probability=0.9,
                    abort_probability=0.05, communality=0.6)

OVERRIDES = dict(group_size=5, num_groups=12, buffer_capacity=16)


def one_run(name, seed, crash_every=None):
    recorder = HistoryRecorder()
    db = Database(preset(name, **OVERRIDES), history=recorder)
    simulator = Simulator(db, SPEC, seed=seed)
    if db.config.record_logging:
        simulator.seed_records()
    report = simulator.run(30, crash_every=crash_every)
    report_json = json.dumps(dataclasses.asdict(report), sort_keys=True)
    return report_json, recorder.history.to_json()


@pytest.mark.parametrize("name", RECOVERY_CLASSES)
def test_same_seed_same_run(name):
    first = one_run(name, seed=11)
    second = one_run(name, seed=11)
    assert first[0] == second[0], "SimulationReport diverged"
    assert first[1] == second[1], "recorded history diverged"


@pytest.mark.parametrize("name", RECOVERY_CLASSES)
def test_same_seed_same_run_with_crashes(name):
    first = one_run(name, seed=11, crash_every=7)
    second = one_run(name, seed=11, crash_every=7)
    assert first == second


def test_different_seeds_differ():
    # sanity: the comparison above is not vacuous
    a = one_run("page-force-rda", seed=1)
    b = one_run("page-force-rda", seed=2)
    assert a[1] != b[1]
