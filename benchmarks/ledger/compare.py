"""``run.py compare BASE.json NEW.json`` — the ledger delta a later PR
pastes into CHANGES.md.

One row per workload x end-to-end metric: base median, new median,
ratio, the metric's bound from BENCHMARK.json, and a verdict:

* ``better``     every new run reads better than every base run;
* ``worse``      the new median is worse than the base's by more than
                 the bound, and the runs can tell;
* ``unresolved`` the run-to-run spread on either side is wider than the
                 bound and the two sides overlap — neither a regression
                 nor "no change" can be claimed;
* ``same``       the medians differ by no more than the bound.

Exits non-zero on any ``worse``.
"""

import json
import statistics
import sys


def load_runs(path):
    """``{workload: {metric: [values]}}``, end-to-end passes only, from
    a ``--out`` file, ``calibration.json`` (the same ``runs`` list) or
    ``baseline.json`` (medians: one value a side)."""
    with open(path) as handle:
        doc = json.load(handle)
    if "runs" not in doc:
        return {workload: {name: [value] for name, value
                           in entry["end_to_end"].items()}
                for workload, entry in doc["workloads"].items()}
    table = {}
    for run in doc["runs"]:
        if run.get("trace") != 0 or "metrics" not in run:
            continue
        per_metric = table.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            per_metric.setdefault(name, []).append(value)
    return table


def verdict(base, new, better, bound):
    """``(ratio, verdict)`` for one metric's runs on each side."""
    base_med, new_med = statistics.median(base), statistics.median(new)
    ratio = new_med / base_med if base_med else float("inf")
    lower = better == "lower"
    worse_by = (ratio - 1.0) if lower else (1.0 - ratio)
    if (max(new) < min(base)) if lower else (min(new) > max(base)):
        return ratio, "better"
    spread = max((max(side) - min(side)) / statistics.median(side)
                 for side in (base, new) if statistics.median(side))
    overlap = max(base) >= min(new) and max(new) >= min(base)
    if spread > bound and overlap:
        return ratio, "unresolved"
    return ratio, "worse" if worse_by > bound else "same"


def compare(base_table, new_table, contract):
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            base = base_table.get(workload, {}).get(metric["name"])
            new = new_table.get(workload, {}).get(metric["name"])
            if not base or not new:
                continue
            ratio, word = verdict(base, new, metric["better"],
                                  metric["bound"])
            rows.append((workload, metric["name"], metric["unit"],
                         statistics.median(base), statistics.median(new),
                         ratio, metric["bound"], word))
    return rows


def main(argv, contract):
    if len(argv) != 2:
        print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
        return 2
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), contract)
    print("| workload | metric | base | new | new/base | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload, name, unit, base, new, ratio, bound, word in rows:
        print(f"| {workload} | {name} | {base:.6g} {unit} | {new:.6g} {unit}"
              f" | {ratio:.3f} | {bound:.2f} | {word} |")
    worse = [row for row in rows if row[-1] == "worse"]
    if not rows:
        print("no comparable end-to-end runs in the two files",
              file=sys.stderr)
        return 2
    return 1 if worse else 0
