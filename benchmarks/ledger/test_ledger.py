"""Harness tests for the ledger.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger`` (not part
of tier-1).  Sizes are the 1/20-scale ``--quick`` ones; the whole file
takes under 30 s.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from . import measure
from .cli import QUICK_SCALE, ROOT, _check_digest
from .compare import verdict
from .metrics import END_TO_END, EXACT, LAYERS, PER_LAYER
from .workloads import DEFAULT_SEED, WORKLOADS


def quick(name: str) -> measure.Budget:
    return measure.Budget(txns=WORKLOADS[name].txns // QUICK_SCALE)


@pytest.mark.parametrize("name", ["force_update", "crash_restart"])
def test_exact_metrics_repeat(name):
    runs = [measure.run_untraced(WORKLOADS[name], DEFAULT_SEED, quick(name))
            for _ in range(2)]
    for metric in EXACT:
        assert runs[0]["metrics"][metric] == runs[1]["metrics"][metric]
    assert runs[0]["digest"] == runs[1]["digest"]
    assert set(runs[0]["metrics"]) == set(END_TO_END)
    assert all(value > 0 for value in runs[0]["metrics"].values())
    assert runs[0]["failed"] == 0


def test_call_counts_repeat():
    workload = WORKLOADS["force_update"]
    first, txns = measure._profile_pass(workload, DEFAULT_SEED)
    second, _ = measure._profile_pass(workload, DEFAULT_SEED)
    assert first == second
    assert txns == measure.PROFILE_SEGMENTS * 125
    # the storage chain is where a force_update transaction's calls go
    assert first["storage.twin_array"] > first["db.recovery"]


@pytest.fixture(scope="module")
def traced():
    return measure._traced_pass(WORKLOADS["force_update"], DEFAULT_SEED,
                                measure.Budget(txns=250))


def test_self_times_add_up(traced):
    summary = traced["summary"]
    assert summary["spans"] > 0
    assert all(summary["self_ns"][layer] >= 0 for layer in LAYERS)
    assert sum(summary["self_ns"].values()) == summary["root_ns"]
    assert summary["root_ns"] / 1e9 <= traced["wall_s"]
    # the layers of the commit-window flush all show up
    for layer in ("buffer", "db.policy", "core.rda", "storage.twin_array",
                  "storage.kernels", "storage.disk", "wal.log"):
        assert summary["self_ns"][layer] > 0, layer


def test_every_parent_closes_after_its_children(traced):
    recorder = traced["recorder"]
    spans = recorder.spans
    for index in range(recorder.count):
        _layer, _name, start, end, parent, _txn = spans[index]
        assert start <= end
        if parent >= 0:
            assert parent < index
            _l, _n, parent_start, parent_end, _p, _t = spans[parent]
            assert parent_start <= start and end <= parent_end


def test_span_file_has_one_line_per_span(traced):
    lines = traced["span_file"].read_text().splitlines()
    assert len(lines) == traced["summary"]["spans"]
    first = json.loads(lines[0])
    assert set(first) == {"i", "layer", "name", "start_ns", "end_ns",
                          "parent", "txn"}


def test_shims_are_removed(traced):
    from repro.db.policy import RDA_PROTECTION
    from repro.storage import kernels
    assert "write_committed" not in vars(RDA_PROTECTION)
    assert "ledger-counting" not in kernels.KERNELS


def test_planted_wrong_oracle_value_fails_the_run():
    engine, driver = measure._set_up(WORKLOADS["steal_pressure"], 3)
    try:
        driver.run_segments(count=1)
        driver.expected[17] = driver.expected[17][::-1]
        with pytest.raises(measure.OracleMismatch):
            measure._gate(driver)
    finally:
        engine.close()


def test_planted_parity_flip_fails_the_run():
    engine, driver = measure._set_up(WORKLOADS["steal_pressure"], 3)
    try:
        driver.run_segments(count=1)
        db = engine.db
        recover = db.recover

        def recover_then_flip():
            # restart repairs parity it finds torn, so plant the flip
            # where only the gate's scrub can see it
            stats = recover()
            for address in db.array.geometry.parity_addresses(5):
                disk = db.array.disks[address.disk]
                disk.write(address.slot,
                           bytes(b ^ 0xFF for b in disk.peek(address.slot)))
            return stats

        db.recover = recover_then_flip
        with pytest.raises(measure.GateFailure, match="verify_parity"):
            measure._gate(driver)
    finally:
        engine.close()


def test_changed_inputs_are_refused():
    with pytest.raises(RuntimeError, match="inputs changed"):
        _check_digest("force_update", DEFAULT_SEED, "0" * 64)
    _check_digest("force_update", DEFAULT_SEED + 1, "0" * 64)   # unseen seed


def test_contract_command_prints_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "steal_pressure", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    for name, cell in result["metrics"].items():
        assert cell["unit"] == END_TO_END[name][0]
        assert cell["value"] > 0


def test_benchmark_json_restates_the_tables():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json in this checkout")
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [value * 1.2 for value in base]
    slower = [value * 0.7 for value in base]
    assert verdict("txns_per_s", base, faster) == "improved"
    assert verdict("txns_per_s", base, slower) == "regressed"
    assert verdict("txns_per_s", base, base[::-1]) == "unchanged"
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 95.0, 105.0]
    assert verdict("txns_per_s", noisy, noisy[::-1]) == "unresolved"
    assert verdict("txns_per_s", base[:9], faster[:9]) == "unresolved"
    assert verdict("restart_transfers", [200, 200], [200, 200]) == "unchanged"
    assert verdict("restart_transfers", [200, 200], [200, 204]) == "regressed"
    assert verdict("restart_transfers", [200, 200], [196, 200]) == "improved"
