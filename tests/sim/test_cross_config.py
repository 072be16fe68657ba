"""Cross-configuration equivalence: recovery strategy must not change
semantics.

All four page-mode presets run the *same* deterministic workload (same
seed, same concurrency); whatever the discipline — FORCE or ¬FORCE, RDA
or WAL — the final committed database state must be byte-identical, and
the same transactions must have committed.  Repeated with crashes
injected at the same points.
"""

import pytest

from repro.check import Violation, violations_by_kind
from repro.db import Database, preset
from repro.sim import Simulator, WorkloadSpec

PAGE_PRESETS = ["page-force-rda", "page-force-log",
                "page-noforce-rda", "page-noforce-log"]
SIZES = dict(group_size=5, num_groups=12, buffer_capacity=16)
SPEC = WorkloadSpec(concurrency=3, pages_per_txn=5, update_txn_fraction=0.9,
                    update_probability=0.9, abort_probability=0.15,
                    communality=0.5)


def final_state(name, seed, crash_every=None):
    overrides = dict(SIZES)
    if "noforce" in name:
        overrides["checkpoint_interval"] = 300
    db = Database(preset(name, **overrides))
    # buffer_feedback off: the workload must be identical across
    # configurations for the equivalence comparison to be meaningful
    sim = Simulator(db, SPEC, seed=seed, buffer_feedback=False)
    report = sim.run(60, crash_every=crash_every)
    db.buffer.flush_all_dirty()
    state = {page: db.disk_page(page) for page in range(db.num_data_pages)}
    assert db.verify_parity() == []
    return state, report


class TestEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_all_presets_agree(self, seed):
        reference_state, reference_report = final_state(PAGE_PRESETS[0], seed)
        for name in PAGE_PRESETS[1:]:
            state, report = final_state(name, seed)
            assert report.committed == reference_report.committed, name
            assert report.aborted == reference_report.aborted, name
            mismatches = [p for p, payload in state.items()
                          if payload != reference_state[p]]
            assert mismatches == [], (name, mismatches)

    def test_all_presets_agree_with_crashes(self):
        reference_state, _ = final_state(PAGE_PRESETS[0], seed=5,
                                         crash_every=20)
        for name in PAGE_PRESETS[1:]:
            state, report = final_state(name, seed=5, crash_every=20)
            assert report.crashes >= 2, name
            mismatches = [p for p, payload in state.items()
                          if payload != reference_state[p]]
            assert mismatches == [], (name, mismatches)


class TestStructuredViolations:
    """A judge's violations are (kind, detail) tuples."""

    def test_violations_are_kinded_tuples(self):
        violation = Violation("verify", "cycle 0: parity mismatch in group 1")
        kind, detail = violation
        assert (kind, detail) == (violation.kind, violation.detail)
        assert violations_by_kind([
            violation, Violation("unrecoverable", "disk 2: twin lost"),
            Violation("verify", "cycle 1")]) == {"verify": 2,
                                                 "unrecoverable": 1}
        # str() preserves the old flat-message format for display
        assert str(violation) == \
            "verify: cycle 0: parity mismatch in group 1"
