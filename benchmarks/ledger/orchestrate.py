"""Running measured runs as child processes: each workload and pass in
a process of its own, because set-up time and peak RSS are per-process
readings."""

import json
import subprocess
import sys

from . import workloads as wl
from .tiers import RUN_PY


def run_child(workload, seed, seconds, trace, quick=False, echo=True):
    """One measured run; returns its parsed result (``returncode``,
    ``meta``, ``checks``, ``metrics`` as plain values)."""
    command = [sys.executable, RUN_PY, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.splitlines()
    result = {"workload": workload, "seed": seed, "trace": trace,
              "returncode": done.returncode, "correct": False}
    for line in lines:
        if line.startswith("meta "):
            result["meta"] = json.loads(line[5:])
        elif line.startswith("checks "):
            result["checks"] = json.loads(line[7:])
    if lines and lines[-1].startswith("{"):
        last = json.loads(lines[-1])
        result.update(correct=last["correct"], attempted=last["attempted"],
                      failed=last["failed"],
                      metrics={k: v["value"]
                               for k, v in last["metrics"].items()})
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return result


def full_pass(seed, seconds, quick=False, names=None, passes=(0, 1),
              echo=True):
    """Every selected workload, every selected pass."""
    runs = []
    for name in names or [w.name for w in wl.WORKLOADS]:
        for trace in passes:
            runs.append(run_child(name, seed, seconds, trace, quick, echo))
    return runs


def run_all(args):
    names = [args.workload] if args.workload else None
    passes = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    for _ in range(args.repeat):
        runs += full_pass(args.seed, args.seconds, args.quick, names, passes)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"runs": runs}, handle, indent=1, sort_keys=True)
        print(f"[wrote {args.out}]")
    bad = [r for r in runs if r["returncode"] != 0 or not r["correct"]]
    for run in bad:
        print(f"FAILED {run['workload']} trace={run['trace']}:"
              f" {run.get('checks')}")
    return 1 if bad else 0
