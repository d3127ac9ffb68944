"""``run.py calibrate`` — the repeatability record behind the bounds.

Runs the full benchmark ``PASSES`` times on each of the two ``SEEDS``
(one commit, one host, ``run_seconds`` from BENCHMARK.json), and writes

* ``calibration.json``: every run, and per workload and end-to-end
  metric the relative range ``(max - min) / median`` inside each set
  and the distance between the two sets' medians;
* ``baseline.json``: the first set's per-metric medians, labelled with
  the host they were taken on.

and prints, per metric, the bound BENCHMARK.json should carry: the
larger of the value the ledger's issue stated and 1.5x the widest range
seen here.  The driver refuses a bound above 0.25, so a metric whose
range asks for more keeps 0.25 and is marked ``capped``: between its
bound and its range ``run.py compare`` answers ``unresolved``, not
``same``.
"""

import json
import os
import statistics
import sys

from . import orchestrate
from .tiers import LEDGER_DIR

PASSES = 5
SEEDS = (1, 2)
#: regression bounds the issue stated before anything was measured.
STATED = {"setup_s": 0.15, "generic_p50_us": 0.10, "spec_p50_us": 0.10,
          "generic_calls_per_s": 0.12, "spec_calls_per_s": 0.12,
          "peak_rss_mb": 0.05}
MAX_BOUND = 0.25


def _values(runs, workload, trace, metric):
    return [r["metrics"][metric] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r.get("metrics", {})]


def _rel_range(values):
    median = statistics.median(values)
    return (max(values) - min(values)) / median if median else 0.0


def summarize(sets, contract):
    """Per workload and end-to-end metric: each set's range and median,
    and how far apart the two medians are."""
    summary = {}
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in (m["name"] for m in contract["end_to_end"]):
            per_set = [_values(s["runs"], workload, 0, metric) for s in sets]
            medians = [statistics.median(v) for v in per_set]
            summary.setdefault(workload, {})[metric] = {
                "medians": medians,
                "ranges": [_rel_range(v) for v in per_set],
                "between_sets": abs(medians[1] - medians[0]) / medians[0],
            }
    return summary


def exact_counts_identical(sets, contract):
    """Every ``_pyops`` / ``residual_source_bytes`` reading is the same
    number in every traced run of a workload, across both seeds."""
    exact = [m["name"] for m in contract["per_layer"]
             if "_pyops" in m["name"] or "residual_source_bytes" in m["name"]]
    runs = [r for s in sets for r in s["runs"]]
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in exact:
            if len(set(_values(runs, workload, 1, metric))) != 1:
                return False
    return True


def proposed_bounds(summary):
    bounds = {}
    for metric, stated in STATED.items():
        widest = max(max(per[metric]["ranges"]) for per in summary.values())
        bounds[metric] = {
            "stated": stated,
            "widest_range": widest,
            "bound": round(min(MAX_BOUND, max(stated, 1.5 * widest)), 2),
            "fits_max_bound": 1.5 * widest <= MAX_BOUND,
        }
    return bounds


def baseline(first_set, contract):
    """Medians of the first set, per workload: end-to-end from the
    untraced runs, per-layer from the traced ones."""
    out = {}
    for workload in (w["name"] for w in contract["workloads"]):
        entry = out[workload] = {"end_to_end": {}, "per_layer": {}}
        for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
            for metric in (m["name"] for m in contract[kind]):
                values = _values(first_set["runs"], workload, trace, metric)
                if values:
                    entry[kind][metric] = statistics.median(values)
    return out


def main(argv, contract):
    if argv:
        print("usage: run.py calibrate", file=sys.stderr)
        return 2
    seconds = contract["run_seconds"]
    sets = []
    for seed in SEEDS:
        runs = []
        for index in range(PASSES):
            print(f"[calibrate] seed {seed} pass {index + 1}/{PASSES}",
                  flush=True)
            runs += orchestrate.full_pass(seed, seconds, echo=False)
        sets.append({"seed": seed, "runs": runs})
    all_runs = [r for s in sets for r in s["runs"]]
    summary = summarize(sets, contract)
    bounds = proposed_bounds(summary)
    meta = dict(all_runs[0].get("meta", {}))
    for key in ("workload", "seed", "trace", "sequence_hash", "quick"):
        meta.pop(key, None)
    meta.update(passes=PASSES, seeds=list(SEEDS), seconds=seconds)
    record = {
        "meta": meta,
        "all_correct": all(r["correct"] for r in all_runs),
        "exact_counts_identical": exact_counts_identical(sets, contract),
        "bounds": bounds,
        "summary": summary,
        "runs": all_runs,
    }
    with open(os.path.join(LEDGER_DIR, "calibration.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    with open(os.path.join(LEDGER_DIR, "baseline.json"), "w") as handle:
        json.dump({"meta": meta, "what": "medians of the first"
                   " calibration set", "workloads": baseline(sets[0],
                                                             contract)},
                  handle, indent=1, sort_keys=True)
    declared = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    for metric, row in bounds.items():
        print(f"{metric}: widest range {row['widest_range']:.3f}"
              f" -> bound {row['bound']:.2f}"
              f"{'' if row['fits_max_bound'] else ' (capped)'};"
              f" BENCHMARK.json has {declared[metric]:.2f}")
    print(f"all correct: {record['all_correct']};"
          f" exact counts identical: {record['exact_counts_identical']}")
    ok = record["all_correct"] and record["exact_counts_identical"]
    return 0 if ok else 1
