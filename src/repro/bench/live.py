"""``live`` report — generic vs. fast-path runtime on this machine.

Unlike the table/figure reports (which reproduce the paper's 1997
numbers in the simulator), this one times the *live* Python RPC stack:
the generic path re-encoding the call header and allocating buffers on
every call, against the runtime fast path (pre-serialized header
templates, pooled exact-size buffers, zero-copy decode — see
:mod:`repro.rpc.fastpath`).  No Tempo run is needed; both paths use
the generic XDR body marshalers, so the delta isolates exactly the
staged constant work.

Numbers are emitted as a table and as JSON (``BENCH_live.json`` by
default) so successive PRs can track the trajectory.
"""

import contextlib
import json
import platform
import time

from repro import obs
from repro.bench.report import format_table, ratio
from repro.bench.workloads import PROG_NUMBER, VERS_NUMBER, WORKLOAD_IDL
from repro.rpc import SvcRegistry, UdpClient, UdpServer
from repro.rpc.client import RpcClient
from repro.rpcgen.codegen_py import load_python
from repro.rpcgen.idl_parser import parse_idl

DEFAULT_SIZES = (20, 250, 2000)
DEFAULT_JSON = "BENCH_live.json"


def _best_us(fn, repeats=5, number=200):
    """Best-of-``repeats`` mean microseconds per call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed / number)
    return best * 1e6


def _stubs():
    return load_python(parse_idl(WORKLOAD_IDL), "live_bench_stubs")


def marshal_times(stubs, n, repeats=5, number=200):
    """(generic_us, fastpath_us) for building one call message."""
    args = stubs.intarr(vals=list(range(n)))
    generic = RpcClient(PROG_NUMBER, VERS_NUMBER)
    fast = RpcClient(PROG_NUMBER, VERS_NUMBER).enable_fastpath()
    wire = generic.build_call(7, 1, args, stubs.xdr_intarr)
    assert fast.build_call(7, 1, args, stubs.xdr_intarr) == wire
    generic_us = _best_us(
        lambda: generic.build_call(7, 1, args, stubs.xdr_intarr),
        repeats, number,
    )
    fast_us = _best_us(
        lambda: fast.build_call(7, 1, args, stubs.xdr_intarr),
        repeats, number,
    )
    return generic_us, fast_us


def _registry(stubs, fastpath):
    registry = SvcRegistry(fastpath=fastpath)

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    stubs.register_XCHG_PROG_1(registry, Impl())
    return registry


def roundtrip_times(stubs, n, repeats=3, number=200):
    """(generic_us, fastpath_us, fastpath_allocs) for one loopback UDP
    round trip.  ``fastpath_allocs`` counts client buffer-pool
    allocations over the timed calls — 0 means the steady state is
    allocation-free.

    Both endpoints stay up for the whole measurement and the repeats
    are interleaved generic/fastpath, so a noisy scheduling burst hits
    both modes instead of skewing the ratio."""
    args = stubs.intarr(vals=list(range(n)))
    want = [v + 1 for v in range(n)]

    with contextlib.ExitStack() as stack:
        clients = {}
        for fastpath in (False, True):
            registry = _registry(stubs, fastpath)
            server = stack.enter_context(
                UdpServer(registry, fastpath=fastpath)
            )
            transport = stack.enter_context(
                UdpClient("127.0.0.1", server.port, PROG_NUMBER,
                          VERS_NUMBER, fastpath=fastpath)
            )
            client = stubs.XCHG_PROG_1_client(transport)
            assert client.SENDRECV(args).vals == want
            clients[fastpath] = (transport, client)
        fast_transport = clients[True][0]
        allocs_before = fast_transport._send_pool.allocations
        best = {False: float("inf"), True: float("inf")}
        for _ in range(repeats):
            for fastpath in (False, True):
                call = clients[fastpath][1].SENDRECV
                started = time.perf_counter()
                for _ in range(number):
                    call(args)
                elapsed = time.perf_counter() - started
                best[fastpath] = min(best[fastpath], elapsed / number)
        allocs = fast_transport._send_pool.allocations - allocs_before
    return best[False] * 1e6, best[True] * 1e6, allocs


def obs_roundtrips(stubs, n=64, repeats=3, number=200):
    """The same fast-path loopback call timed with obs off, with
    metrics on, and with tracing into a
    :class:`~repro.obs.trace.MemorySink` (us/call, informational: one
    process, one run).  The number CI bounds is the performance
    ledger's ``obs.metrics_on_overhead_pct``, measured in alternating
    passes on a pinned CPU (``benchmarks/ledger``)."""
    prev_enabled, prev_sinks = obs.enabled, obs.tracer.sinks
    obs.enabled, obs.tracer.sinks = False, []
    try:
        registry = _registry(stubs, fastpath=True)
        args = stubs.intarr(vals=list(range(n)))
        roundtrip_us = {}
        with contextlib.ExitStack() as stack:
            server = stack.enter_context(
                UdpServer(registry, fastpath=True)
            )
            transport = stack.enter_context(
                UdpClient("127.0.0.1", server.port, PROG_NUMBER,
                          VERS_NUMBER, fastpath=True)
            )
            client = stubs.XCHG_PROG_1_client(transport)
            client.SENDRECV(args)  # warm templates and pools
            memory_sink = obs.MemorySink()
            modes = (
                ("disabled", False, False),
                ("metrics", True, False),
                ("tracing", True, True),
            )
            for name, enabled, tracing in modes:
                obs.enabled = enabled
                obs.tracer.sinks = [memory_sink] if tracing else []
                roundtrip_us[name] = _best_us(
                    lambda: client.SENDRECV(args), repeats, number
                )
                memory_sink.clear()
            obs.enabled, obs.tracer.sinks = False, []
        return roundtrip_us
    finally:
        obs.enabled, obs.tracer.sinks = prev_enabled, prev_sinks


def run(workload=None, sizes=DEFAULT_SIZES, repeats=5, number=200,
        json_path=DEFAULT_JSON):
    """Print the generic-vs-fastpath table and write the JSON report.

    ``workload`` is accepted (and ignored) for CLI uniformity with the
    simulator reports — the live report needs no Tempo run.
    """
    del workload
    stubs = _stubs()
    results = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repeats": repeats,
            "number": number,
        },
        "marshal": {},
        "roundtrip": {},
    }
    marshal_rows = []
    roundtrip_rows = []
    for n in sizes:
        generic_us, fast_us = marshal_times(stubs, n, repeats, number)
        speedup = ratio(generic_us, fast_us)
        results["marshal"][str(n)] = {
            "generic_us": generic_us,
            "fastpath_us": fast_us,
            "speedup": speedup,
        }
        marshal_rows.append((n, generic_us, fast_us, speedup))
    for n in sizes:
        generic_us, fast_us, allocs = roundtrip_times(
            stubs, n, max(3, repeats - 2), number
        )
        speedup = ratio(generic_us, fast_us)
        results["roundtrip"][str(n)] = {
            "generic_us": generic_us,
            "fastpath_us": fast_us,
            "speedup": speedup,
            "fastpath_pool_allocations": allocs,
        }
        roundtrip_rows.append((n, generic_us, fast_us, speedup))
    rt = obs_roundtrips(stubs, repeats=max(3, repeats - 2), number=number)
    results["obs_roundtrip_us"] = rt
    # a populated snapshot rides along so the report shows what the
    # instruments see for this exact workload
    snapshot_state = obs.enabled
    obs.registry.reset()
    obs.enabled = True
    try:
        marshal_times(stubs, sizes[0], repeats=1, number=10)
        roundtrip_times(stubs, sizes[0], repeats=1, number=10)
    finally:
        obs.enabled = snapshot_state
    results["obs_metrics"] = obs.collect()
    print(format_table(
        "Live marshal — generic vs fast path (us/call)",
        ("n", "generic", "fastpath", "speedup"),
        marshal_rows,
    ))
    print()
    print(format_table(
        "Live UDP loopback round trip — generic vs fast path (us/call)",
        ("n", "generic", "fastpath", "speedup"),
        roundtrip_rows,
        note="fast path: header templates + pooled exact-size buffers"
             " + zero-copy decode (repro.rpc.fastpath)",
    ))
    print()
    print(f"Observability, n=64 round trip (informational): off"
          f" {rt['disabled']:.1f}us, metrics {rt['metrics']:.1f}us,"
          f" metrics+tracing {rt['tracing']:.1f}us")
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"\n[wrote {json_path}]")
    return results
