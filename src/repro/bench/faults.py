"""``faults`` report — latency and goodput under an injected-fault wire.

Drives loopback UDP round trips through seeded
:class:`~repro.rpc.faults.FaultPlan` wrappers at several loss rates
(requests and replies faulted independently), in all four corners of
{generic, fastpath} × {DRC on, DRC off}, and reports per-cell p50/p99
latency, goodput, client retransmission counts, and server
duplicate-cache statistics.  Results are emitted as a table and as
JSON (``BENCH_faults.json`` by default) so CI can archive the
trajectory.

Everything is seeded: the same invocation sees the same fault
sequence, so cell-to-cell differences are the stack's, not the dice's.
"""

import contextlib
import os
import platform
import time

from repro import obs
from repro.bench.report import format_table
from repro.bench.soak import finish, percentile
from repro.obs.trace import summarize_spans
from repro.bench.workloads import PROG_NUMBER, VERS_NUMBER, WORKLOAD_IDL
from repro.rpc import FaultPlan, SvcRegistry, UdpClient, UdpServer
from repro.rpcgen.codegen_py import load_python
from repro.rpcgen.idl_parser import parse_idl

DEFAULT_JSON = "BENCH_faults.json"
#: injected drop probability per datagram, each direction
LOSS_RATES = (0.0, 0.05, 0.20)
#: injected duplicate probability (exercises the DRC) at lossy rates
DUPLICATE_RATE = 0.10
DEFAULT_CALLS = 200
DEFAULT_SEED = 0x5EED


def _run_cell(stubs, loss, fastpath, drc, calls, seed):
    """One bench cell; returns the measured dict."""
    registry = SvcRegistry(fastpath=fastpath)
    if drc:
        registry.enable_drc()

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    stubs.register_XCHG_PROG_1(registry, Impl())

    duplicate = DUPLICATE_RATE if loss else 0.0
    client_plan = FaultPlan(seed=seed, drop=loss, duplicate=duplicate)
    server_plan = FaultPlan(seed=seed + 1, drop=loss, duplicate=duplicate)
    args = stubs.intarr(vals=list(range(64)))
    want = [v + 1 for v in range(64)]

    with contextlib.ExitStack() as stack:
        server = stack.enter_context(
            UdpServer(registry, fastpath=fastpath, drc=drc,
                      fault_plan=server_plan)
        )
        transport = stack.enter_context(
            UdpClient("127.0.0.1", server.port, PROG_NUMBER, VERS_NUMBER,
                      timeout=30.0, wait=0.005, max_wait=0.25,
                      jitter=0.0, fastpath=fastpath,
                      fault_plan=client_plan)
        )
        client = stubs.XCHG_PROG_1_client(transport)
        latencies = []
        ok = 0
        started = time.perf_counter()
        for _ in range(calls):
            call_started = time.perf_counter()
            reply = client.SENDRECV(args)
            latencies.append(time.perf_counter() - call_started)
            if reply.vals == want:
                ok += 1
        elapsed = time.perf_counter() - started
        retransmissions = transport.retransmissions
        stale = transport.stale_replies
    latencies.sort()
    drc_stats = registry.drc.summary() if registry.drc else None
    return {
        "loss": loss,
        "duplicate_rate": duplicate,
        "fastpath": fastpath,
        "drc": drc,
        "calls": calls,
        "correct": ok,
        "p50_us": percentile(latencies, 0.50) * 1e6,
        "p99_us": percentile(latencies, 0.99) * 1e6,
        "goodput_calls_per_s": ok / elapsed if elapsed else 0.0,
        "retransmissions": retransmissions,
        "stale_replies": stale,
        "handlers_invoked": registry.handlers_invoked,
        "drc_stats": drc_stats,
        "client_plan": client_plan.summary(),
        "server_plan": server_plan.summary(),
    }


def run(workload=None, calls=DEFAULT_CALLS, seed=DEFAULT_SEED,
        json_path=DEFAULT_JSON, trace=None):
    """Print the fault-matrix table and write the JSON report.

    The whole matrix runs with metrics enabled and the report embeds
    the resulting ``obs_metrics`` snapshot.  ``trace=True`` (default:
    on when ``REPRO_TRACE`` is set) additionally records every cell's
    spans in memory and attaches a per-cell ``span_summary`` — the
    per-phase time breakdown (encode/send/wait/decode, dispatch/
    drc_lookup/handler/encode_reply) under that cell's fault rate.

    ``workload`` is accepted (and ignored) for CLI uniformity with the
    simulator reports.
    """
    del workload
    if trace is None:
        trace = os.environ.get("REPRO_TRACE", "").lower() in (
            "1", "true", "yes", "on"
        )
    stubs = load_python(parse_idl(WORKLOAD_IDL), "fault_bench_stubs")
    results = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "calls": calls,
            "seed": seed,
            "loss_rates": list(LOSS_RATES),
            "duplicate_rate": DUPLICATE_RATE,
            "trace": trace,
        },
        "cells": [],
    }
    rows = []
    prev_enabled, prev_sinks = obs.enabled, obs.tracer.sinks
    obs.registry.reset()
    obs.enabled = True
    sink = None
    if trace:
        # keep any pre-attached sink (e.g. REPRO_TRACE_FILE) and add a
        # memory sink for the per-cell summaries
        sink = obs.MemorySink()
        obs.tracer.sinks = list(prev_sinks) + [sink]
    try:
        for loss in LOSS_RATES:
            for fastpath in (False, True):
                for drc in (True, False):
                    if sink is not None:
                        sink.clear()
                    cell = _run_cell(stubs, loss, fastpath, drc, calls,
                                     seed)
                    if sink is not None:
                        cell["span_summary"] = summarize_spans(
                            sink.records
                        )
                    results["cells"].append(cell)
                    drc_hits = (cell["drc_stats"] or {}).get("hits", "-")
                    rows.append((
                        f"{int(loss * 100)}%",
                        "fast" if fastpath else "generic",
                        "on" if drc else "off",
                        f"{cell['correct']}/{cell['calls']}",
                        f"{cell['p50_us']:.0f}",
                        f"{cell['p99_us']:.0f}",
                        f"{cell['goodput_calls_per_s']:.0f}",
                        cell["retransmissions"],
                        drc_hits,
                    ))
        results["obs_metrics"] = obs.collect()
    finally:
        obs.enabled, obs.tracer.sinks = prev_enabled, prev_sinks
    print(format_table(
        "Fault matrix — loopback UDP under seeded loss/duplication",
        ("loss", "path", "drc", "ok", "p50us", "p99us", "call/s",
         "retrans", "drc hits"),
        rows,
        note=f"drop each direction at the stated rate;"
             f" +{int(DUPLICATE_RATE * 100)}% duplicates when lossy;"
             f" seed {seed:#x}",
    ))
    return finish("faults", results, json_path)
