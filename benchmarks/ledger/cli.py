"""Command line of the ledger.

``run`` starts one fresh interpreter per workload (``PYTHONHASHSEED=0``,
default kernel tier, default hot path), prints every metric by name with
its unit and optionally appends the run to a JSON file ``compare``
reads.  ``child`` is that interpreter's entry point; ``contract`` is
what ``run.py`` — the command ``BENCHMARK.json`` names — forwards to.
A run whose correctness gate fails prints no metrics and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import traceback

from .metrics import END_TO_END, PER_LAYER
from .workloads import DEFAULT_SEED, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = pathlib.Path(__file__).resolve().parent
NOTES_PREFIX = "ledger-notes "
CHILD_TIMEOUT_S = 170       # the driver allows 180 s for one run

WORKLOAD_NAMES = tuple(WORKLOADS)
QUICK_SCALE = 20            # --quick runs 1/20 of each workload


# -- the workload process --------------------------------------------------------


def _child(args) -> int:
    """Measure one workload in this process; JSON result on the last
    line of stdout, nothing but a traceback if the gate fails."""
    from . import measure     # imports the program under test

    workload = WORKLOADS[args.workload]
    budget = measure.Budget(txns=args.txns, seconds=args.seconds)
    try:
        if args.trace:
            # one share each for the reference and the traced pass; the
            # rest of the time goes to set-ups and the call-count pass
            result = measure.run_traced(workload, args.seed,
                                        budget.scaled(0.25))
        else:
            result = measure.run_untraced(workload, args.seed, budget)
        _check_digest(args.workload, args.seed, result["digest"])
    except Exception:       # the gate: no metrics, non-zero exit
        traceback.print_exc()
        return 1
    table = PER_LAYER if args.trace else END_TO_END
    notes = dict(result["notes"], digest=result["digest"])
    print(NOTES_PREFIX + json.dumps(notes))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name],
                           "unit": table[name][0]} for name in table},
    }))
    return 0


def _check_digest(workload: str, seed: int, digest: str) -> None:
    """Refuse to report on inputs other than the pinned ones."""
    pinned = json.loads((HERE / "digests.json").read_text())
    if seed != pinned["seed"]:
        return      # a fresh stream: nothing to compare against
    if digest != pinned["digests"][workload]:
        raise RuntimeError(
            f"{workload}: script stream digest {digest} differs from the "
            f"pinned {pinned['digests'][workload]}; the inputs changed")


def _spawn(workload: str, seed: int, trace: bool, budget: list,
           capture: bool):
    """Run one workload in a fresh interpreter; ``budget`` is the
    child's ``--seconds S`` or ``--txns N``."""
    command = [sys.executable, "-m", "benchmarks.ledger", "child",
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0", *budget]
    env = dict(os.environ, PYTHONHASHSEED="0")
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None,
                          timeout=CHILD_TIMEOUT_S)


# -- contract entry ----------------------------------------------------------------


def contract(argv: list) -> int:
    """``--workload NAME --seed N --seconds S --trace 0|1``: one run,
    the child's output passed through."""
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        done = _spawn(args.workload, args.seed, bool(args.trace),
                      ["--seconds", str(args.seconds)], capture=False)
    except subprocess.TimeoutExpired:
        print(f"{args.workload}: no result within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return done.returncode


# -- run -------------------------------------------------------------------------------


def _run(args) -> int:
    failures = 0
    records = []
    for name in args.workload or WORKLOAD_NAMES:
        txns = WORKLOADS[name].txns // (QUICK_SCALE if args.quick else 1)
        print(f"== {name} (seed {args.seed}"
              f"{', traced' if args.traced else ''})", flush=True)
        try:
            done = _spawn(name, args.seed, args.traced,
                          ["--txns", str(txns)], capture=True)
        except subprocess.TimeoutExpired:
            print(f"   FAILED: no result within {CHILD_TIMEOUT_S} s")
            failures += 1
            continue
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("   FAILED: the correctness gate did not hold; no metrics")
            failures += 1
            continue
        result = json.loads(lines[-1])
        notes = json.loads(lines[-2][len(NOTES_PREFIX):])
        for metric, cell in result["metrics"].items():
            print(f"   {metric:48s} {cell['value']:>16.6g} {cell['unit']}")
        for key, value in notes.items():
            print(f"   # {key}: {value}")
        records.append({"workload": name, "seed": args.seed,
                        "traced": args.traced, "notes": notes, **result})
    if args.out:
        out = pathlib.Path(args.out)
        runs = json.loads(out.read_text()) if out.exists() else []
        out.write_text(json.dumps(runs + [records], indent=1) + "\n")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="The performance ledger (see README.md).")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                     help="repeatable; default: all six")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--traced", action="store_true",
                     help="per-layer metrics from the traced passes")
    run.add_argument("--quick", action="store_true",
                     help=f"1/{QUICK_SCALE} of each workload")
    run.add_argument("--out", help="append this run to a JSON file")
    run.set_defaults(handler=_run)

    compare = commands.add_parser(
        "compare", help="judge runs of a change against runs of its parent")
    compare.add_argument("base", help="JSON file written by run --out")
    compare.add_argument("change", nargs="+")
    compare.set_defaults(handler=_compare)

    child = commands.add_parser("child")    # internal: one workload process
    child.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), default=0)
    size = child.add_mutually_exclusive_group(required=True)
    size.add_argument("--seconds", type=float)
    size.add_argument("--txns", type=int)
    child.set_defaults(handler=_child)

    args = parser.parse_args(argv)
    return args.handler(args)


def _compare(args) -> int:
    from .compare import compare_files
    for change in args.change:
        print(compare_files(args.base, change))
    return 0
