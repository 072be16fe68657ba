"""The ``worker_kill`` nemesis: attribution and worker-mode gating.

Satellite of the worker-process PR: SIGKILLing a shard worker
mid-campaign must surface through the supervisor as a crash the stress
harness can drive — journal-replay heal, group-commit drain, restart
recovery — with every judged window closing clean and every violation
(there must be none) attributable to the fault that was in flight.
"""

import json

from repro.stress import StressOptions, StressRunner


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def run_worker_cell(seed, ops=96, shards=2, **kwargs):
    options = StressOptions(preset="page-force-rda", shards=shards, seed=seed,
                            ops=ops, batch_size=8, baseline=False,
                            workers=True, clock=FakeClock(), **kwargs)
    return StressRunner(options).run()


class TestWorkerKillNemesis:
    def test_worker_kill_injected_and_survived(self):
        report = run_worker_cell(seed=7)
        assert report.workers is True
        assert report.clean, report.violations[:3]
        injected = report.injected_by_kind.get("worker_kill", 0)
        assert injected >= 1
        assert report.survived_by_kind.get("worker_kill") == injected
        assert report.worker_deaths >= injected

    def test_worker_kill_attribution_windows_close_clean(self):
        """Regression: a worker death must never leave a conformance
        violation attributed to its open window — the heal + drain +
        recover sequence is supposed to be invisible to the oracles."""
        report = run_worker_cell(seed=7)
        kills = [fault for fault in report.faults
                 if fault["kind"] == "worker_kill"]
        assert kills, "campaign never drew worker_kill"
        for fault in kills:
            assert fault["closed_tick"] is not None
            assert fault["survived"] is True
        blamed = [violation for violation in report.violations
                  if any(label.startswith("worker_kill#")
                         for label in violation["active_faults"])]
        assert blamed == []

    def test_worker_kill_draws_only_shards_with_a_worker(self):
        """The last shard runs in the facade's own process: at K = 3 the
        nemesis kills shard 0 or 1, never shard 2."""
        report = run_worker_cell(seed=7, shards=3)
        assert report.clean, report.violations[:3]
        kills = [fault["detail"] for fault in report.faults
                 if fault["kind"] == "worker_kill"]
        assert kills, "campaign never drew worker_kill"
        assert all(detail.startswith(("SIGKILL shard 0 ",
                                      "SIGKILL shard 1 "))
                   for detail in kills), kills

    def test_worker_mode_gates_in_process_only_faults(self):
        """latent/torn_log/mutant reach into shard engine internals and
        must never be drawn against worker-process shards."""
        report = run_worker_cell(seed=7)
        drawn = set(report.injected_by_kind)
        assert not drawn & {"latent", "torn_log", "mutant"}

    def test_in_process_mode_never_draws_worker_kill(self):
        options = StressOptions(preset="page-force-rda", shards=2, seed=7,
                                ops=96, batch_size=8, baseline=False,
                                workers=False, clock=FakeClock())
        report = StressRunner(options).run()
        assert report.workers is False
        assert "worker_kill" not in report.injected_by_kind

    def test_worker_cell_deterministic_per_seed(self):
        first = run_worker_cell(seed=5)
        second = run_worker_cell(seed=5)
        assert (json.dumps(first.to_dict(), sort_keys=True)
                == json.dumps(second.to_dict(), sort_keys=True))
