"""``repro-bench`` / ``python -m repro.bench`` — regenerate the paper's
tables and figures."""

import argparse
import importlib
import inspect
import sys
import time

from repro.bench.workloads import ARRAY_SIZES, IntArrayWorkload

#: name -> (title, ``module:function`` of the runner).  A runner's
#: module is imported when the experiment is chosen, so a paper table
#: never loads the soaks' sockets, fleet and subprocess machinery.
EXPERIMENTS = {
    "table1": ("Table 1 — client marshaling", "marshaling:run"),
    "table2": ("Table 2 — RPC round trip", "roundtrip:run"),
    "table3": ("Table 3 — code size", "codesize:run"),
    "table4": ("Table 4 — 250-element partial unroll", "unrolling:run"),
    "figure6": ("Figure 6 — cross-platform panels", "figure6:run"),
    "ablation": ("Ablations of specializer refinements", "ablation:run"),
    "faults": ("Fault matrix — latency/goodput under injected loss",
               "faults:run"),
    "chaos": ("Chaos soak — resilience invariants under loss, kills,"
              " and drain", "chaos:run"),
    "chaos_mux": ("Chaos soak over the mux stack — pipelining preserves"
                  " at-most-once", "chaos:run_mux"),
    "cluster": ("Cluster soak — durable at-most-once across a"
                " multi-process rolling restart", "cluster:run"),
    "overload": ("Overload soak — metastability with vs without deadline"
                 " propagation, retry budgets, hedging, and CoDel",
                 "overload:run"),
}

#: experiments whose runner takes only the workload (no sizes tuple)
_NO_SIZES = ("table4", "ablation", "faults", "chaos", "chaos_mux",
             "cluster", "overload")


def _runner(name):
    module, _, function = EXPERIMENTS[name][1].partition(":")
    return getattr(importlib.import_module(f"repro.bench.{module}"),
                   function)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the evaluation of 'Fast, Optimized Sun RPC Using"
            " Automatic Program Specialization'"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--sizes",
        type=lambda text: tuple(int(x) for x in text.split(",")),
        default=ARRAY_SIZES,
        help="comma-separated array sizes (default: the paper's"
        " 20,100,250,500,1000,2000)",
    )
    parser.add_argument(
        "--calls", type=int,
        help="call count of a soak (chaos, chaos_mux, cluster, overload,"
        " faults); each has its default",
    )
    parser.add_argument(
        "--seed", type=lambda text: int(text, 0),
        help="fault/retransmission dice of a seeded soak (chaos,"
        " chaos_mux, cluster, overload, faults)",
    )
    args = parser.parse_args(argv)
    names = list(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    sizing = {option: getattr(args, option) for option in ("calls", "seed")
              if getattr(args, option) is not None}
    runners = {name: _runner(name) for name in names}
    for name, runner in runners.items():
        takes = inspect.signature(runner).parameters
        for option in sizing:
            if option not in takes:
                parser.error(f"{name} takes no --{option}")
    workload = IntArrayWorkload()
    for name, runner in runners.items():
        started = time.time()
        print(f"### {EXPERIMENTS[name][0]}\n")
        if name in _NO_SIZES:
            runner(workload, **sizing)
        else:
            runner(workload, args.sizes)
        print(f"\n[{name} done in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
