"""Judge runs of a change against runs of its parent.

Both sides are JSON files written by ``run --out`` — one entry per
invocation, appended in the order the runs were made, so the i-th run
of the parent pairs with the i-th run of the change (alternate which
side runs first).  For every workload and metric the verdict is one of

* ``improved``  — the change wins at least nine tenths of the pairs
  (ties count for neither) and the medians differ by more than the
  distance between the parent's quartiles;
* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — neither, but the parent's own spread is wider than
  the bound and not every run of the change beats every run of the
  parent, so "no regression" cannot be claimed;
* ``unchanged`` — otherwise.

Fewer than ten pairs resolve nothing about a time: ``unresolved``.
An exact count is compared by equality: ``unchanged`` only if every
pair reads the same, else ``improved`` or ``regressed`` by its medians.
Per-layer metrics have no bound; they get medians and quartiles only.
"""

from __future__ import annotations

import json
import statistics

from .metrics import END_TO_END, EXACT, PER_LAYER

MIN_PAIRS = 10


def load_runs(path) -> dict:
    """(workload, metric) -> values, in run order."""
    with open(path, encoding="utf-8") as handle:
        invocations = json.load(handle)
    values: dict = {}
    for invocation in invocations:
        for record in invocation:
            for metric, cell in record["metrics"].items():
                values.setdefault((record["workload"], metric),
                                  []).append(cell["value"])
    return values


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(metric: str, base: list, change: list) -> str:
    """One of improved / unchanged / unresolved / regressed."""
    _unit, better, bound = END_TO_END[metric]
    sign = 1.0 if better == "lower" else -1.0    # positive = worse
    pairs = list(zip(base, change))
    base_q1, base_median, base_q3 = quartiles(base)
    change_median = quartiles(change)[1]
    worse_by = sign * (change_median - base_median)
    if metric in EXACT:
        if all(a == b for a, b in pairs):
            return "unchanged"
        return "regressed" if worse_by > 0 else "improved"
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    if wins >= 0.9 * len(pairs) and abs(worse_by) > base_q3 - base_q1:
        return "improved"
    if worse_by > bound * abs(base_median):
        return "regressed"
    all_better = max(sign * b for b in change) < min(sign * a for a in base)
    if base_q3 - base_q1 > bound * abs(base_median) and not all_better:
        return "unresolved"
    return "unchanged"


def compare_files(base_path, change_path) -> str:
    """The comparison table of two run files."""
    base, change = load_runs(base_path), load_runs(change_path)
    lines = [f"base {base_path}  vs  change {change_path}",
             f"{'workload':16s} {'metric':46s} {'pairs':>5s} "
             f"{'base q1/median/q3':>36s} {'change q1/median/q3':>36s} "
             "verdict"]
    for key in base:
        if key not in change:
            continue
        workload, metric = key
        if metric not in END_TO_END and metric not in PER_LAYER:
            continue
        count = min(len(base[key]), len(change[key]))
        a, b = base[key][:count], change[key][:count]
        judged = verdict(metric, a, b) if metric in END_TO_END else "-"
        lines.append(
            f"{workload:16s} {metric:46s} {count:5d} "
            f"{_triple(quartiles(a)):>36s} {_triple(quartiles(b)):>36s} "
            f"{judged}")
    return "\n".join(lines)


def _triple(values: tuple) -> str:
    return "/".join(f"{value:.6g}" for value in values)
