#!/usr/bin/env python3
"""The performance ledger's one command.

    python3 benchmarks/ledger/run.py                      # all five workloads, both passes
    python3 benchmarks/ledger/run.py --workload rtt_small --seed 1 --seconds 10 --trace 0
    python3 benchmarks/ledger/run.py compare A.json B.json
    python3 benchmarks/ledger/run.py calibrate

With ``--workload`` and ``--trace 0|1`` it is one measured run in this
process: metrics by name with units, then one JSON object on the last
line (``correct``, ``attempted``, ``failed``, ``metrics``); exit status
is non-zero on any wrong byte or value.  Without them it runs each
selected workload and pass in a child process of its own (set-up time
and peak RSS are per-process readings) and prints every result.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# the script's directory is a package: import it as ``ledger``
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from ledger import tiers  # noqa: E402
from ledger import workloads as wl  # noqa: E402


def load_contract():
    """BENCHMARK.json: the names, units, directions and bounds every
    printed metric must match."""
    with open(os.path.join(tiers.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=tiers.ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_meta(cpu, scrubbed):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "git_commit": _git_commit(),
        "scrubbed_env": scrubbed,
        "traffic": "host loopback, client and server on one pinned CPU",
    }


# -- one measured run ------------------------------------------------------

def run_one(args):
    """The driver's contract: one workload, one pass, in this process."""
    contract = load_contract()
    scrubbed = tiers.scrub_env()
    cpu = tiers.pin_to_one_cpu()
    tiers.add_source_path()
    from ledger import layers, loadgen
    from repro import obs

    workload = wl.BY_NAME[args.workload]
    if args.quick:
        workload = wl.quick(workload)
    if workload.obs:
        obs.enable()
    meta = host_meta(cpu, scrubbed)
    meta.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                trace=args.trace, quick=args.quick,
                sequence_hash=wl.sequence_hash(workload, args.seed))
    if args.trace:
        lab = layers.Lab(workload, args.seed, quick=args.quick)
        live = loadgen.measure(
            workload, args.seed, args.seconds, STARTED,
            prebuilt=(None if workload.online
                      else (lab.stack, lab.client_spec)),
            while_serving=lambda ports: layers.null_rtts(ports, lab.repeats),
            corrupt=args.corrupt, quick=args.quick)
        values, checks = lab.run(live["live"])
        for name, passed in live["checks"].items():
            # the Lab's own cold-and-verified check shares its name with
            # the server's: both must hold
            checks[name] = checks.get(name, True) and passed
        declared = contract["per_layer"]
        if args.spans:
            lab.log.write(args.spans)
    else:
        live = loadgen.measure(workload, args.seed, args.seconds, STARTED,
                               corrupt=args.corrupt, burn=args.burn,
                               quick=args.quick)
        values, checks = live["end_to_end"], live["checks"]
        declared = contract["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    checks["names_match_contract"] = set(values) == set(units)
    correct = all(checks.values())
    print(f"# ledger {workload.name} seed={args.seed}"
          f" seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("checks " + json.dumps(checks, sort_keys=True))
    print(f"calls attempted={live['attempted']} failed={live['failed']}"
          f" blocks_per_tier={live['blocks']}")
    for name in sorted(values):
        print(f"metric {name} {values[name]:.6g} {units.get(name, '?')}")
    print(json.dumps({
        "correct": correct,
        "attempted": live["attempted"],
        "failed": live["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


# -- entry -----------------------------------------------------------------

def main(argv):
    if argv and argv[0] == "serve":
        tiers.scrub_env()
        tiers.pin_to_one_cpu()
        tiers.add_source_path()
        from ledger import server

        server.main(argv[1:])
        return 0
    if argv and argv[0] == "compare":
        from ledger import compare

        return compare.main(argv[1:], load_contract())
    if argv and argv[0] == "calibrate":
        from ledger import calibrate

        return calibrate.main(argv[1:], load_contract())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="0: end-to-end metrics, tracing off; 1: the"
                             " traced pass, per-layer metrics; omitted:"
                             " both")
    parser.add_argument("--quick", action="store_true",
                        help="self-test sizes: seconds of work, not a"
                             " measurement")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="write every run as one JSON file")
    parser.add_argument("--spans", help="write the traced pass's spans"
                                        " as JSON lines")
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--burn", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload and args.trace is not None and args.repeat == 1 \
            and not args.out:
        return run_one(args)
    from ledger import orchestrate

    return orchestrate.run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
