"""Command-line interface.

    python -m repro figures [--figure 9..13]
    python -m repro simulate --preset page-force-rda --transactions 200
    python -m repro simulate --preset page-force-log --backend raid6
    python -m repro simulate --shards 4 --group-commit 8
    python -m repro simulate --trace-out run.jsonl --metrics-out run.json
    python -m repro inspect-trace run.jsonl
    python -m repro export-trace run.jsonl --out run.perfetto.json
    python -m repro drift-check run.jsonl [--tolerance 0.05]
    python -m repro check [--presets all] [--extended] [--crash-every 10]
    python -m repro stress [--preset page-force-rda] [--seed 7]
    python -m repro reliability [--disks 200] [--mttr 24]

``figures`` regenerates the paper's evaluation tables, ``simulate``
drives the live system (optionally recording a structured event trace
and a metrics snapshot; with ``--crash-every`` it also reports the
per-phase recovery breakdown and MTTR, and ``--drift-check`` watches
measured costs against the analytical model live), ``inspect-trace``
aggregates a recorded trace into the per-event-type cost table of the
paper's model, ``export-trace`` converts a trace to Chrome
trace-event/Perfetto JSON, ``drift-check`` replays a recorded trace
through the model-drift detector, ``check`` runs the conformance suite
(online invariants, differential oracle, serializability analysis)
across configuration presets, ``stress`` runs nemesis-driven chaos with
live judging, and ``reliability`` prints the Section 1 motivation
numbers.  ``examples/quickstart.py`` walks the three recovery
scenarios.
"""

from __future__ import annotations

import argparse
import json

from .db import (Database, ShardedDatabase, all_preset_names,
                 extended_preset_names, make_sharded, preset)
from .errors import ModelError
from .model import figures as figure_module
from .model.reliability import paper_motivation_table
from .obs import (BufferedJsonlSink, DriftDetector, MetricsRegistry,
                  NullSink, Tracer, aggregate_trace_file, check_events,
                  export_trace_file, format_cost_table,
                  format_recovery_profile, load_trace)
from .sim import Simulator, WorkloadSpec
from .storage import backend_names


def _build_engine(config, args, tracer=None, metrics=None):
    """One engine for the CLI: a :class:`Database`, or a K-way
    :class:`ShardedDatabase` when ``--shards`` asks for more than one
    (worker-process shards with ``--workers`` or ``REPRO_WORKERS``)."""
    if args.shards > 1:
        return make_sharded(config, shards=args.shards,
                            flush_horizon=args.group_commit,
                            tracer=tracer, metrics=metrics,
                            workers=getattr(args, "workers", None))
    return Database(config, tracer=tracer, metrics=metrics)


def _close_engine(db) -> None:
    """Reap worker processes when the engine has any (idempotent)."""
    if hasattr(db, "close"):
        db.close()


def _cmd_figures(args) -> int:
    wanted = args.figure
    for figure in figure_module.all_figures():
        number = int(figure.name.replace("figure", ""))
        if wanted is not None and number != wanted:
            continue
        print(figure.to_csv() if args.csv else figure.format_table())
        print()
    return 0


def _preset_blurb(config) -> str:
    """One-line description of a preset's recovery scheme."""
    if config.redo_only and config.rda:
        return ("RDA+REDO hybrid: twin-parity undo for losers, "
                "per-page redo chains for winners")
    if config.redo_only:
        return ("REDO-only: no undo log; write-behind gate, "
                "chain replay at restart")
    logging = ("record before-images" if config.record_logging
               else "page before-images")
    discipline = ("FORCE/TOC (force dirty pages at commit)" if config.force
                  else "¬FORCE/ACC (checkpointed write-back)")
    undo = ("twin-parity undo" if config.rda else "log undo")
    return f"{logging}, {discipline}, {undo}"


def _cmd_list_presets() -> int:
    """``--list-presets``: the preset x backend x shards matrix."""
    paper = set(all_preset_names())
    rows = []
    for name in extended_preset_names():
        config = preset(name)
        tier = "paper" if name in paper else "extended"
        backends = ("twin" if config.rda
                    else "single, raid6" if config.backend is None
                    else config.backend)
        rows.append((name, tier, backends, _preset_blurb(config)))
    width = max(len(row[0]) for row in rows)
    print(f"{'preset':<{width}}  {'tier':<8}  {'backends':<13}  description")
    for name, tier, backends, blurb in rows:
        print(f"{name:<{width}}  {tier:<8}  {backends:<13}  {blurb}")
    print(f"\n{len(rows)} presets; every cell also runs K-way sharded "
          "(--shards K, worker processes with --workers) and, under "
          "simulate, on any listed backend via --backend.")
    return 0


def _cmd_simulate(args) -> int:
    if args.list_presets:
        return _cmd_list_presets()
    overrides = dict(group_size=args.group_size, num_groups=args.num_groups,
                     buffer_capacity=args.buffer)
    if "noforce" in args.preset:
        overrides["checkpoint_interval"] = args.checkpoint_interval
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.fault_sweep:
        return _cmd_fault_sweep(args, overrides)
    if args.trace_out is not None:
        tracer = Tracer(BufferedJsonlSink(args.trace_out))
    elif args.crash_every is not None or args.drift_check:
        # recovery profiling and drift detection are tracer observers:
        # events must be *built* but need not be recorded, so an
        # unrecorded run still gets its MTTR breakdown / drift verdict
        tracer = Tracer(NullSink())
    else:
        tracer = None
    metrics = (MetricsRegistry()
               if args.metrics_out is not None or args.trace_out is not None
               or args.drift_check
               else None)
    try:
        db = _build_engine(preset(args.preset, **overrides), args,
                           tracer=tracer, metrics=metrics)
    except ModelError as error:
        print(f"simulate: {error}")
        return 2
    spec = WorkloadSpec(concurrency=args.concurrency,
                        pages_per_txn=args.pages_per_txn,
                        update_txn_fraction=args.update_fraction,
                        update_probability=args.update_probability,
                        abort_probability=args.abort_probability,
                        communality=args.communality)
    simulator = Simulator(db, spec, seed=args.seed)
    drift = None
    if args.drift_check:
        drift = DriftDetector(tolerance=args.drift_tolerance,
                              metrics=metrics, tracer=tracer).attach(tracer)
    if simulator.record_mode:
        simulator.seed_records()
    if args.profile is not None:
        import cProfile
        import pstats
        import sys as _sys
        profiler = cProfile.Profile()
        profiler.enable()
        report = simulator.run(args.transactions,
                               crash_every=args.crash_every)
        profiler.disable()
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler, stream=_sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(20)
        print(f"profile       : stats -> {args.profile}")
    else:
        report = simulator.run(args.transactions,
                               crash_every=args.crash_every)
    print(f"configuration : {db.config.algorithm_name}")
    if args.shards > 1:
        stats = db.statistics()
        print(f"shards        : {args.shards} "
              f"(group commit H={args.group_commit}, "
              f"{stats['deferred_forces']} forces deferred, "
              f"{stats['batched_flushes']} batched flushes)")
    print(f"result        : {report.summary()}")
    print(f"throughput    : {report.throughput():.0f} txns per 5e6 transfers")
    if report.crashes:
        print(f"crashes       : {report.crashes} "
              f"({report.recovery_transfers} recovery transfers)")
    profile_doc = report.extra.get("recovery_profile")
    if profile_doc:
        print("recovery      : " + format_recovery_profile(profile_doc)
              .replace("\n", "\n" + " " * 2))
    if drift is not None:
        if drift.clean:
            checked = len(drift.summary()["checked"])
            print(f"drift check   : clean "
                  f"({checked} op classes within model bands)")
        else:
            print(f"drift check   : {len(drift.alarms)} alarm(s)")
            for alarm in drift.alarms:
                print(f"  {alarm.describe()}")
    if tracer is not None:
        tracer.close()
        if args.trace_out is not None:
            print(f"trace         : {tracer.events_emitted} events "
                  f"-> {args.trace_out}")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(metrics.snapshot(), handle, indent=2, sort_keys=True)
        print(f"metrics       : {args.metrics_out}")
    if args.report_out is not None:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report        : {args.report_out}")
    bad = db.verify_parity()
    print(f"parity scrub  : {'clean' if not bad else bad}")
    _close_engine(db)
    if bad:
        return 1
    return 1 if drift is not None and not drift.clean else 0


def _cmd_fault_sweep(args, overrides) -> int:
    """Exhaustive crash-point enumeration (``simulate --fault-sweep``)."""
    from .sim import fault_workload, record_fault_setup, run_sweep

    config = preset(args.preset, **overrides)
    if getattr(args, "workers", None):
        print("fault-sweep: recovery fault hooks cannot cross the worker "
              "pipe; running the sweep in-process")
    args.workers = False
    modes = tuple(m.strip() for m in args.fault_modes.split(",") if m.strip())
    record = config.record_logging
    ops = fault_workload(transactions=args.fault_transactions,
                         group_size=config.group_size,
                         shards=max(args.shards, 1),
                         op="update" if record else "write")
    setup = record_fault_setup(ops) if record else None
    tracer = (Tracer(BufferedJsonlSink(args.trace_out))
              if args.trace_out is not None else None)

    def make_db():
        return _build_engine(preset(args.preset, **overrides), args)

    try:
        probe = make_db()
    except ModelError as error:
        print(f"fault-sweep: {error}")
        return 2
    needed = max(op[2] for op in ops if op[0] in ("write", "update")) + 1
    if needed > probe.num_data_pages:
        print(f"fault-sweep: workload needs {needed} pages; raise "
              f"--num-groups (have {probe.num_data_pages})")
        return 2

    report = run_sweep(make_db, ops, modes=modes, tracer=tracer, setup=setup)
    counts = report.counts
    print(f"configuration : {config.algorithm_name}")
    if config.redo_only and not any(w.kind == "data" for w in report.schedule):
        print("note          : the write-behind gate held every data write "
              "in this script; lower --buffer / --checkpoint-interval to "
              "sweep data-page crash points too")
    if args.shards > 1:
        print(f"shards        : {args.shards} "
              f"(group commit H={args.group_commit})")
    print(f"fault sweep   : {len(report.schedule)} crash points "
          f"x {len(modes)} modes = {len(report.results)} schedules")
    print(f"outcomes      : {counts['recovered']} recovered, "
          f"{counts['detected']} detected, "
          f"{counts['violation']} violations")
    recovery = report.recovery_summary()
    if recovery.get("recovered_runs"):
        mttr = recovery["mttr_ms"]
        print(f"recovery      : MTTR mean {mttr['mean']} ms / "
              f"max {mttr['max']} ms over {recovery['recovered_runs']} "
              f"recovered runs, {recovery['page_transfers']} transfers")
    if not report.clean:
        for kind, count in sorted(report.violations_by_kind().items()):
            print(f"  {kind}: {count}")
        for result in report.results:
            if result.violations:
                print(f"  crash_after={result.plan.crash_after} "
                      f"mode={result.plan.mode}: "
                      f"{result.violations[0]}")
    if tracer is not None:
        tracer.close()
        print(f"trace         : {tracer.events_emitted} events "
              f"-> {args.trace_out}")
    if args.fault_report is not None:
        with open(args.fault_report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(indent=2))
        print(f"report        : {args.fault_report}")
    return 0 if report.clean else 1


def _cmd_check(args) -> int:
    """Conformance suite across presets (``repro check``)."""
    from .check import conformance_matrix

    if args.list_presets:
        return _cmd_list_presets()
    if args.presets == "all":
        presets = None
    else:
        presets = [name.strip() for name in args.presets.split(",")
                   if name.strip()]
        unknown = [name for name in presets
                   if name not in extended_preset_names()]
        if unknown:
            print(f"check: unknown presets {unknown}; "
                  f"choose from {extended_preset_names()}")
            return 2
    runs = conformance_matrix(transactions=args.transactions,
                              seed=args.seed,
                              crash_every=args.crash_every,
                              presets=presets,
                              extended=args.extended,
                              shards=args.shards,
                              workers=args.workers)
    for run in runs:
        verdict = "clean" if run.clean else \
            f"{len(run.violations)} violations"
        ser = run.serializability
        print(f"{run.cell:>22} : {verdict:>14} | "
              f"{len(run.history)} events, {run.reads_checked} reads "
              f"checked | serializable={ser.serializable} "
              f"strict={ser.strict}")
        for violation in run.violations[:5]:
            print(f"{'':>22}   {violation.kind}: {violation.detail}")
    if args.history_out is not None:
        with open(args.history_out, "w", encoding="utf-8") as handle:
            for run in runs:
                for row in run.history.to_dicts():
                    row["preset"] = run.cell
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"history       : {args.history_out}")
    if args.report_out is not None:
        payload = {"clean": all(run.clean for run in runs),
                   "runs": [run.to_dict() for run in runs]}
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"verdict       : {args.report_out}")
    return 0 if all(run.clean for run in runs) else 1


def _cmd_stress(args) -> int:
    """Nemesis-driven continuous chaos (``repro stress``)."""
    from .stress import (PROFILES, StressOptions, default_matrix,
                         format_stress_report, matrix_to_dict,
                         run_stress_matrix)

    if args.nemesis_profile not in PROFILES:
        print(f"stress: unknown nemesis profile {args.nemesis_profile!r}; "
              f"choose from {sorted(PROFILES)}")
        return 2
    ops = args.ops
    if ops is None and args.duration is None:
        ops = 64    # CI smoke default: deterministic, ~8 ticks per cell
    common = dict(ops=ops, duration_s=args.duration,
                  batch_size=args.batch, seed=args.seed,
                  nemesis_profile=args.nemesis_profile,
                  flush_horizon=args.group_commit,
                  baseline=not args.no_baseline,
                  drift_check=args.drift_check,
                  workers=args.workers)
    try:
        if args.preset is not None:
            if args.preset not in extended_preset_names():
                print(f"stress: unknown preset {args.preset!r}; "
                      f"choose from {extended_preset_names()}")
                return 2
            cells = [StressOptions(preset=args.preset, shards=args.shards,
                                   **common)]
        else:
            # the acceptance matrix: every recovery class at K=1 plus a
            # K=2 group-commit cell (--shards applies to --preset runs)
            cells = default_matrix(**common)
    except ModelError as error:
        print(f"stress: {error}")
        return 2
    reports = run_stress_matrix(cells)
    print(format_stress_report(reports))
    payload = matrix_to_dict(reports)
    if args.report_out is not None:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nstress report : {args.report_out}")
    totals = payload["totals"]
    print(f"\nfaults        : {totals['faults_survived']}/"
          f"{totals['faults_injected']} survived across "
          f"{totals['distinct_fault_kinds']} kinds "
          f"({totals['faults_survived_per_hour']}/hour)")
    return 0 if payload["clean"] else 1


def _cmd_inspect_trace(args) -> int:
    try:
        rows = aggregate_trace_file(args.trace)
    except (OSError, ModelError) as error:
        print(f"inspect-trace: {error}")
        return 1
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(format_cost_table(rows))
    return 0


def _cmd_export_trace(args) -> int:
    out = args.out
    if out is None:
        out = f"{args.trace}.perfetto.json"
    try:
        count = export_trace_file(args.trace, out,
                                  counters=not args.no_counters)
    except (OSError, ModelError) as error:
        print(f"export-trace: {error}")
        return 1
    print(f"export-trace  : {count} events -> {out} "
          f"(open in https://ui.perfetto.dev)")
    return 0


def _cmd_drift_check(args) -> int:
    try:
        events = load_trace(args.trace)
    except (OSError, ModelError) as error:
        print(f"drift-check: {error}")
        return 1
    detector = check_events(events, tolerance=args.tolerance,
                            min_count=args.min_count)
    summary = detector.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for key, row in summary["checked"].items():
            lo, hi = row["band"]
            band = f"{lo:g}" if lo == hi else f"{lo:g}..{hi:g}"
            print(f"{key:<48} {row['count']:>7} ops, "
                  f"mean {row['mean_transfers']:>7.3f}, model {band}")
        if detector.clean:
            print(f"drift-check   : clean ({len(summary['checked'])} op "
                  f"classes within model bands)")
        else:
            print(f"drift-check   : {len(detector.alarms)} alarm(s)")
            for alarm in detector.alarms:
                print(f"  {alarm.describe()}")
    return 0 if detector.clean else 1


def _cmd_reliability(args) -> int:
    print(f"{'scheme':>20} | {'MTTDL (days)':>14} | {'overhead':>8}")
    for scheme, mttdl, overhead in paper_motivation_table(
            disks=args.disks, mttr_hours=args.mttr,
            group_size=args.group_size):
        print(f"{scheme:>20} | {mttdl / 24:14.0f} | {overhead:8.1%}")
    return 0


def _add_worker_flags(sub) -> None:
    """``--workers``/``--no-workers`` (default: the REPRO_WORKERS env)."""
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--workers", dest="workers", action="store_true",
                       default=None,
                       help="run K shards in K processes: every shard "
                            "but the last in its own worker process, the "
                            "last in this one (sharded engines only; "
                            "default honours REPRO_WORKERS=on)")
    group.add_argument("--no-workers", dest="workers", action="store_false",
                       help="force the in-process sharded engine even when "
                            "REPRO_WORKERS=on")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Database recovery using redundant disk arrays "
                    "(ICDE 1992) - reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures 9-13")
    figures.add_argument("--figure", type=int, choices=range(9, 14),
                         help="only this figure")
    figures.add_argument("--csv", action="store_true",
                         help="emit CSV instead of a table")
    figures.set_defaults(func=_cmd_figures)

    simulate = sub.add_parser("simulate", help="drive the live system")
    simulate.add_argument("--preset", choices=extended_preset_names(),
                          default="page-force-rda")
    simulate.add_argument("--backend", choices=backend_names(), default=None,
                          help="override the preset's storage backend")
    simulate.add_argument("--shards", type=int, default=1,
                          help="K-way sharded engine (1 = single engine)")
    simulate.add_argument("--group-commit", type=int, default=1,
                          metavar="H",
                          help="group-commit flush horizon (commits per "
                               "batched log force; needs --shards > 1)")
    _add_worker_flags(simulate)
    simulate.add_argument("--transactions", type=int, default=200)
    simulate.add_argument("--concurrency", type=int, default=4)
    simulate.add_argument("--pages-per-txn", type=int, default=6)
    simulate.add_argument("--update-fraction", type=float, default=0.8)
    simulate.add_argument("--update-probability", type=float, default=0.9)
    simulate.add_argument("--abort-probability", type=float, default=0.01)
    simulate.add_argument("--communality", type=float, default=0.6)
    simulate.add_argument("--group-size", type=int, default=5)
    simulate.add_argument("--num-groups", type=int, default=30)
    simulate.add_argument("--buffer", type=int, default=40)
    simulate.add_argument("--checkpoint-interval", type=float, default=400)
    simulate.add_argument("--crash-every", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--profile", metavar="FILE", nargs="?",
                          const="simulate.prof", default=None,
                          help="profile the run with cProfile: dump stats "
                               "to FILE (default simulate.prof) and print "
                               "the top 20 cumulative entries")
    simulate.add_argument("--trace-out", metavar="FILE", default=None,
                          help="record a JSONL event trace to FILE")
    simulate.add_argument("--metrics-out", metavar="FILE", default=None,
                          help="write a metrics snapshot (JSON) to FILE")
    simulate.add_argument("--report-out", metavar="FILE", default=None,
                          help="write the simulation report (JSON, "
                               "including the recovery profile) to FILE")
    simulate.add_argument("--drift-check", action="store_true",
                          help="watch measured per-operation transfer "
                               "costs against the analytical model and "
                               "fail the run on drift")
    simulate.add_argument("--drift-tolerance", type=float, default=0.05,
                          help="allowed relative excursion outside a "
                               "model band before a drift alarm")
    simulate.add_argument("--fault-sweep", action="store_true",
                          help="enumerate every crash point of a scripted "
                               "workload instead of running the simulator")
    simulate.add_argument("--fault-transactions", type=int, default=2,
                          help="transactions in the fault-sweep script")
    simulate.add_argument("--fault-modes", default="clean,torn,latent",
                          help="comma-separated crash-point perturbations")
    simulate.add_argument("--fault-report", metavar="FILE", default=None,
                          help="write the FaultSweepReport (JSON) to FILE")
    simulate.add_argument("--list-presets", action="store_true",
                          help="print the preset x backend x shards matrix "
                               "with one-line descriptions and exit")
    simulate.set_defaults(func=_cmd_simulate)

    check = sub.add_parser(
        "check",
        help="conformance suite: invariants, differential oracle, "
             "serializability")
    check.add_argument("--presets", default="all",
                       help="'all' or a comma-separated preset list")
    check.add_argument("--extended", action="store_true",
                       help="run the extended matrix: RAID-6 presets plus "
                            "sharded cells at K=2 and K=4")
    check.add_argument("--shards", type=int, default=1,
                       help="run every (non-extended) cell on a K-way "
                            "sharded engine")
    _add_worker_flags(check)
    check.add_argument("--transactions", type=int, default=40)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--crash-every", type=int, default=None,
                       help="crash + recover every N finished transactions")
    check.add_argument("--history-out", metavar="FILE", default=None,
                       help="write recorded histories (JSONL) to FILE")
    check.add_argument("--report-out", metavar="FILE", default=None,
                       help="write the verdict (JSON) to FILE")
    check.add_argument("--list-presets", action="store_true",
                       help="print the preset x backend x shards matrix "
                            "with one-line descriptions and exit")
    check.set_defaults(func=_cmd_check)

    stress = sub.add_parser(
        "stress",
        help="nemesis-driven continuous chaos with live judging")
    stress.add_argument("--preset", default=None,
                        help="run one cell (default: the acceptance matrix "
                             "of all five recovery classes at K=1 plus "
                             "K=2 cells)")
    stress.add_argument("--shards", type=int, default=1,
                        help="K for a --preset run (matrix mode sets its "
                             "own K per cell)")
    stress.add_argument("--group-commit", type=int, default=2,
                        metavar="H", help="flush horizon for sharded cells")
    _add_worker_flags(stress)
    stress.add_argument("--ops", type=int, default=None,
                        help="completed transactions per cell "
                             "(default 64: the deterministic CI smoke)")
    stress.add_argument("--duration", type=float, default=None, metavar="SEC",
                        help="wall-clock budget per cell (soak mode; "
                             "combine with --ops for whichever trips first)")
    stress.add_argument("--batch", type=int, default=8,
                        help="transactions per batch between nemesis ticks")
    stress.add_argument("--seed", type=int, default=0)
    stress.add_argument("--nemesis-profile", default="default",
                        help="fault mix: default, aggressive, media-heavy, "
                             "crash-only, mutation")
    stress.add_argument("--no-baseline", action="store_true",
                        help="skip the fault-free baseline pass "
                             "(no chaos-ratio in the report)")
    stress.add_argument("--drift-check", action="store_true",
                        help="watch measured costs against the analytical "
                             "model during chaos (alarms fail the run)")
    stress.add_argument("--report-out", metavar="FILE", default=None,
                        help="write the stress report (JSON) to FILE")
    stress.set_defaults(func=_cmd_stress)

    inspect_trace = sub.add_parser(
        "inspect-trace",
        help="aggregate a recorded trace into the per-event cost table")
    inspect_trace.add_argument("trace", help="JSONL trace file to aggregate")
    inspect_trace.add_argument("--json", action="store_true",
                               help="emit JSON instead of a table")
    inspect_trace.set_defaults(func=_cmd_inspect_trace)

    export_trace = sub.add_parser(
        "export-trace",
        help="convert a JSONL trace to Chrome trace-event/Perfetto JSON")
    export_trace.add_argument("trace", help="JSONL trace file to convert")
    export_trace.add_argument("--out", metavar="FILE", default=None,
                              help="output path (default: "
                                   "<trace>.perfetto.json)")
    export_trace.add_argument("--no-counters", action="store_true",
                              help="skip the cumulative transfer counter "
                                   "track")
    export_trace.set_defaults(func=_cmd_export_trace)

    drift_check = sub.add_parser(
        "drift-check",
        help="replay a recorded trace through the model-drift detector")
    drift_check.add_argument("trace", help="JSONL trace file to check")
    drift_check.add_argument("--tolerance", type=float, default=0.05,
                             help="allowed relative excursion outside a "
                                  "model band")
    drift_check.add_argument("--min-count", type=int, default=4,
                             help="observations required before a variant "
                                  "is judged")
    drift_check.add_argument("--json", action="store_true",
                             help="emit the full summary as JSON")
    drift_check.set_defaults(func=_cmd_drift_check)

    reliability = sub.add_parser("reliability",
                                 help="Section 1 motivation numbers")
    reliability.add_argument("--disks", type=int, default=200)
    reliability.add_argument("--mttr", type=float, default=24.0)
    reliability.add_argument("--group-size", type=int, default=10)
    reliability.set_defaults(func=_cmd_reliability)
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
