"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import load_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--preset", "magic"])

    def test_figure_choice_bounds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--figure", "8"])


class TestCommands:
    def test_figures_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for number in range(9, 14):
            assert f"Figure {number}" in out

    def test_figures_single(self, capsys):
        assert main(["figures", "--figure", "13"]) == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out
        assert "Figure 9" not in out

    def test_figures_csv(self, capsys):
        assert main(["figures", "--figure", "13", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("s,% increase")
        assert "|" not in out

    def test_simulate_page_mode(self, capsys):
        code = main(["simulate", "--preset", "page-force-rda",
                     "--transactions", "40", "--num-groups", "12",
                     "--buffer", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "clean" in out

    def test_simulate_record_mode(self, capsys):
        code = main(["simulate", "--preset", "record-noforce-rda",
                     "--transactions", "30", "--num-groups", "12",
                     "--buffer", "16"])
        assert code == 0
        assert "record logging" in capsys.readouterr().out

    def test_simulate_with_crashes(self, capsys):
        code = main(["simulate", "--preset", "page-noforce-log",
                     "--transactions", "40", "--crash-every", "15",
                     "--num-groups", "12", "--buffer", "16"])
        assert code == 0
        assert "crashes" in capsys.readouterr().out

    def test_simulate_trace_and_metrics_out(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "run.json"
        code = main(["simulate", "--preset", "page-force-rda",
                     "--transactions", "30", "--num-groups", "12",
                     "--buffer", "16",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace" in out and "metrics" in out
        events = load_trace(trace)
        assert any(e["name"] == "array.small_write" for e in events)
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["rda.commits"] > 0

    def test_inspect_trace_renders_cost_table(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["simulate", "--preset", "page-force-rda",
                     "--transactions", "30", "--num-groups", "12",
                     "--buffer", "16", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["inspect-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "array.small_write" in out
        assert "model" in out
        assert main(["inspect-trace", str(trace), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(key.startswith("array.small_write") for key in rows)

    def test_inspect_trace_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["inspect-trace", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().out

    def test_reliability(self, capsys):
        assert main(["reliability", "--disks", "100"]) == 0
        out = capsys.readouterr().out
        assert "mirroring" in out
        assert "twin-parity" in out

    def test_check_single_preset(self, capsys):
        assert main(["check", "--presets", "page-force-rda",
                     "--transactions", "10"]) == 0
        out = capsys.readouterr().out
        assert "page-force-rda" in out
        assert "clean" in out
        assert "serializable=True" in out

    def test_check_writes_artifacts(self, capsys, tmp_path):
        history = tmp_path / "history.jsonl"
        report = tmp_path / "verdict.json"
        code = main(["check", "--presets", "page-force-rda,page-force-log",
                     "--transactions", "10", "--crash-every", "4",
                     "--history-out", str(history),
                     "--report-out", str(report)])
        assert code == 0
        rows = [json.loads(line) for line in
                history.read_text().splitlines()]
        assert {row["preset"] for row in rows} == {"page-force-rda",
                                                   "page-force-log"}
        assert any(row["op"] == "crash" for row in rows)
        verdict = json.loads(report.read_text())
        assert verdict["clean"] is True
        assert len(verdict["runs"]) == 2

    def test_check_rejects_unknown_preset(self, capsys):
        assert main(["check", "--presets", "page-force-warp"]) == 2
        assert "unknown presets" in capsys.readouterr().out


class TestShardedAndBackendFlags:
    def test_simulate_sharded_with_group_commit(self, capsys):
        code = main(["simulate", "--preset", "page-force-rda",
                     "--transactions", "40", "--num-groups", "12",
                     "--buffer", "16", "--shards", "2",
                     "--group-commit", "4", "--crash-every", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards        : 2" in out
        assert "group commit H=4" in out
        assert "clean" in out

    def test_simulate_backend_raid6(self, capsys):
        code = main(["simulate", "--preset", "page-force-log",
                     "--backend", "raid6", "--transactions", "30",
                     "--num-groups", "12", "--buffer", "16"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_simulate_rda_over_raid6_is_a_clean_error(self, capsys):
        code = main(["simulate", "--preset", "page-force-rda",
                     "--backend", "raid6", "--transactions", "10"])
        assert code == 2
        assert "twin" in capsys.readouterr().out

    def test_simulate_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--backend", "floppy"])

    def test_simulate_accepts_raid6_preset(self, capsys):
        code = main(["simulate", "--preset", "page-force-raid6",
                     "--transactions", "30", "--num-groups", "12",
                     "--buffer", "16"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_fault_sweep_sharded(self, capsys):
        code = main(["simulate", "--fault-sweep", "--shards", "2",
                     "--group-commit", "2", "--fault-transactions", "2",
                     "--group-size", "4", "--num-groups", "8",
                     "--buffer", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "violation" in out or "recovered" in out

    def test_check_sharded_cells(self, capsys):
        code = main(["check", "--presets", "page-force-rda",
                     "--transactions", "10", "--shards", "2"])
        assert code == 0
        assert "page-force-rda@k2" in capsys.readouterr().out

    def test_check_extended_matrix(self, capsys):
        code = main(["check", "--extended", "--transactions", "8",
                     "--crash-every", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "page-force-raid6" in out
        assert "@k2" in out and "@k4" in out


class TestObservatoryCommands:
    """export-trace, drift-check, and the simulate observability flags."""

    def _trace(self, tmp_path, capsys, extra=()):
        trace = tmp_path / "run.jsonl"
        assert main(["simulate", "--preset", "page-force-rda",
                     "--transactions", "40", "--crash-every", "15",
                     "--trace-out", str(trace), *extra]) == 0
        capsys.readouterr()
        return trace

    def test_simulate_prints_recovery_breakdown(self, capsys):
        code = main(["simulate", "--preset", "page-force-rda",
                     "--transactions", "40", "--crash-every", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery      :" in out
        assert "MTTR mean" in out
        assert "analysis" in out

    def test_simulate_sharded_recovery_breakdown(self, capsys):
        code = main(["simulate", "--preset", "page-noforce-rda",
                     "--shards", "2", "--transactions", "40",
                     "--crash-every", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MTTR mean" in out
        assert "redo" in out

    def test_simulate_report_out_includes_profile(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["simulate", "--preset", "page-force-rda",
                     "--transactions", "40", "--crash-every", "15",
                     "--report-out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["crashes"] > 0
        profile = report["extra"]["recovery_profile"]
        assert profile["mttr_ms"]["mean"] > 0
        assert "analysis" in profile["phases"]

    def test_simulate_drift_check_clean(self, capsys):
        code = main(["simulate", "--preset", "page-force-rda",
                     "--transactions", "40", "--drift-check"])
        assert code == 0
        assert "drift check   : clean" in capsys.readouterr().out

    def test_export_trace_writes_perfetto_json(self, capsys, tmp_path):
        trace = self._trace(tmp_path, capsys)
        out_path = tmp_path / "run.perfetto.json"
        assert main(["export-trace", str(trace),
                     "--out", str(out_path)]) == 0
        assert "perfetto" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert {r["ph"] for r in doc["traceEvents"]} <= {"X", "i", "M", "C"}

    def test_export_trace_default_output_path(self, capsys, tmp_path):
        trace = self._trace(tmp_path, capsys)
        assert main(["export-trace", str(trace)]) == 0
        assert (tmp_path / "run.jsonl.perfetto.json").exists()

    def test_export_trace_missing_file(self, capsys):
        assert main(["export-trace", "/no/such/trace.jsonl"]) == 1
        assert "export-trace:" in capsys.readouterr().out

    def test_drift_check_clean_trace(self, capsys, tmp_path):
        trace = self._trace(tmp_path, capsys)
        assert main(["drift-check", str(trace)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_drift_check_json_verdict(self, capsys, tmp_path):
        trace = self._trace(tmp_path, capsys)
        assert main(["drift-check", str(trace), "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["clean"] is True
        assert verdict["checked"]

    def test_drift_check_flags_mispriced_trace(self, capsys, tmp_path):
        # a doctored trace: every unbuffered small write costs one
        # transfer more than the model says it may
        trace = tmp_path / "drifted.jsonl"
        with trace.open("w") as handle:
            for seq in range(1, 11):
                handle.write(json.dumps({
                    "seq": seq, "ts": seq / 1000,
                    "name": "array.small_write",
                    "attrs": {"buffered": False, "twins": 1, "reads": 3,
                              "writes": 2, "transfers": 5}}) + "\n")
        assert main(["drift-check", str(trace)]) == 1
        out = capsys.readouterr().out
        assert "alarm" in out
        assert "model predicts 4" in out

    def test_fault_sweep_prints_recovery_mttr(self, capsys):
        code = main(["simulate", "--preset", "page-force-rda",
                     "--fault-sweep", "--fault-modes", "clean",
                     "--num-groups", "40", "--group-size", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MTTR mean" in out

    def test_fault_report_carries_recovery_profiles(self, capsys, tmp_path):
        report_path = tmp_path / "sweep.json"
        code = main(["simulate", "--preset", "page-force-rda",
                     "--fault-sweep", "--fault-modes", "clean",
                     "--num-groups", "40", "--group-size", "4",
                     "--fault-report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["recovery"]["recovered_runs"] > 0
        assert report["recovery"]["mttr_ms"]["mean"] > 0
        recovered = [r for r in report["runs"] if r["outcome"] == "recovered"]
        assert all(r["recovery"]["mttr_ms"] >= 0 for r in recovered)
