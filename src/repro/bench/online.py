"""``online`` report — profile-guided specialization converging live.

The other live report (:mod:`repro.bench.live`) compares two *static*
configurations.  This one tells the tuning story of
:mod:`repro.specialized.online`: a server and client start fully
generic, the :class:`~repro.specialized.online.OnlineSpecializer`
watches the traffic profile, and after the policy's evidence threshold
it hot-swaps compiled residual codecs into live dispatch.  The report
is a *convergence curve*: per-window throughput over four traffic
phases —

1. **hot** — a stable array length; the curve starts at the generic
   floor and jumps when the promotion lands;
2. **shift** — the workload changes length mid-run; every call is an
   invariant violation answered (correctly) by the generic fallback,
   until the review finds the table uncovered and widens it with a
   variant for the new length, and the curve recovers;
3. **reconverged** — the widened route answers the new length at
   specialized speed;
4. **tail** — both lengths alternating under a 5% uniform tail of
   other lengths: every tail call is a guard miss, the table still
   covers 95% of its calls, so nothing is demoted and the curve stays
   specialized (``tail_hit_share``, ``demotions`` in the summary).

After the curve the report prints the specializer's own account:
``explain()`` per table and the decision log with reasons.

Correctness is asserted, not sampled: every window replays probe
requests (in-profile *and* deliberately off-profile) against a shadow
generic registry and requires byte-identical wire output.  The bench
aborts on the first wrong byte; ``wrong_bytes`` in the JSON is the
asserted count (always 0 in a successful run).

``--calls`` scales the per-window call count (default 400; CI uses a
small value).  Numbers land in ``BENCH_online.json`` so CI
can hold the conservative floor: converged online throughput must not
be *worse* than generic, and the tail phase must neither demote nor
drop under a 0.9 hit share.

Note: the bench constructs its specializer with ``enabled=True``, but
the ``REPRO_ONLINE_SPEC`` environment kill switch still wins — with
``REPRO_ONLINE_SPEC=0`` in the environment the curve (deliberately)
never converges.
"""

import itertools
import json
import platform
import random
import time

from repro import obs
from repro.bench.report import format_table, ratio
from repro.bench.workloads import (
    PROG_NUMBER,
    VERS_NUMBER,
    WORKLOAD_IDL,
    WORKLOAD_IMPL,
    request_bytes,
)
from repro.rpc import SvcRegistry
from repro.rpc.client import RpcClient
from repro.rpcgen.codegen_py import load_python
from repro.rpcgen.idl_parser import parse_idl
from repro.specialized import (
    OnlinePolicy,
    OnlineSpecializer,
    SpecializationPipeline,
)

DEFAULT_JSON = "BENCH_online.json"
#: calls per window (a window under MIN_CALLS cannot show a promotion)
DEFAULT_CALLS = 400
MIN_CALLS = 20

#: the hot length the traffic starts on, and the length it shifts to
HOT_N = 64
SHIFT_N = 16
#: off-profile probe length — exercised every window to prove the
#: violation fallback answers byte-identically while specialized
PROBE_N = 7

PROC_SENDRECV = 1
HOT_WINDOWS = 6
SHIFT_WINDOWS = 5
TAIL_WINDOWS = 4
#: the tail phase: share of calls drawn uniformly from 1..TAIL_MAX_N
TAIL_SHARE = 0.05
TAIL_MAX_N = 128


def _stubs():
    return load_python(parse_idl(WORKLOAD_IDL), "online_bench_stubs")


def _registry(stubs):
    registry = SvcRegistry()

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    stubs.register_XCHG_PROG_1(registry, Impl())
    return registry


def _policy(calls):
    """The default policy, scaled to the window size: promotion
    becomes eligible inside the first hot window and the first review
    of the shifted traffic inside the first shift window."""
    return OnlinePolicy(
        min_calls=max(20, calls // 2),
        violation_threshold=max(8, calls // 8),
    )


def _make_call(stubs, registry, client, xids):
    """One end-to-end in-process round trip: client encode ->
    ``SvcRegistry.dispatch_bytes`` -> client decode.

    Working at the dispatch layer (no sockets) keeps the curve about
    the thing being measured — generic marshaling vs hot-swapped
    residual code — instead of syscall noise, and it is exactly the
    entry point every server tier (svc_udp/svc_tcp/mux) funnels into,
    so the hot swap timed here is the hot swap production traffic
    would see.  ``build_call``/``parse_reply`` route through any
    installed whole-message codec, so the same closure covers the
    generic, hand-specialized, and online clients.
    """
    xdr = stubs.xdr_intarr

    def call(args):
        xid = next(xids)
        data = client.build_call(xid, PROC_SENDRECV, args, xdr)
        reply = registry.dispatch_bytes(data)
        matched, value = client.parse_reply(reply, xid, PROC_SENDRECV,
                                            xdr)
        assert matched
        return value

    return call


def _window_us(call, window):
    """Mean microseconds per call over one un-averaged window of
    argument structs (the curve wants the trajectory, not best-of)."""
    started = time.perf_counter()
    for args in window:
        call(args)
    return (time.perf_counter() - started) / len(window) * 1e6


def _verify_bytes(stubs, online_reg, shadow_reg, ns):
    """Replay identical requests against the online registry and the
    shadow generic registry; every reply must be byte-identical.
    Returns the number of mismatches found (asserted 0 by the caller);
    raises immediately on the first wrong-bytes reply."""
    wrong = 0
    client = RpcClient(PROG_NUMBER, VERS_NUMBER)
    for index, n in enumerate(ns):
        args = stubs.intarr(vals=list(range(n)))
        data = client.build_call(
            0x7F000000 + index, PROC_SENDRECV, args, stubs.xdr_intarr
        )
        got = online_reg.dispatch_bytes(data)
        want = shadow_reg.dispatch_bytes(data)
        if bytes(got or b"") != bytes(want or b""):
            wrong += 1
            raise AssertionError(
                f"wrong-bytes reply for n={n}: online reply differs"
                f" from generic ({len(got or b'')} vs"
                f" {len(want or b'')} bytes)"
            )
    return wrong


def _baseline_us(call, args, calls, repeats=3):
    return min(_window_us(call, [args] * calls) for _ in range(repeats))


def run(workload=None, json_path=DEFAULT_JSON, calls=DEFAULT_CALLS):
    """Print the convergence curve and write ``BENCH_online.json``."""
    del workload  # CLI uniformity; the live stack needs no simulator run
    calls = max(MIN_CALLS, calls)
    stubs = _stubs()
    pipeline = SpecializationPipeline(
        WORKLOAD_IDL, impl_sources=[WORKLOAD_IMPL]
    )
    hot_args = stubs.intarr(vals=list(range(HOT_N)))
    shift_args = stubs.intarr(vals=list(range(SHIFT_N)))

    # -- baseline 1: fully generic ------------------------------------
    generic_reg = _registry(stubs)
    generic_call = _make_call(
        stubs, generic_reg, RpcClient(PROG_NUMBER, VERS_NUMBER),
        itertools.count(1),
    )
    assert generic_call(hot_args).vals == [v + 1 for v in range(HOT_N)]
    generic_us = _baseline_us(generic_call, hot_args, calls)

    # -- baseline 2: hand-specialized (the offline ceiling) -----------
    lens = {"vals": HOT_N}
    hand_client = RpcClient(PROG_NUMBER, VERS_NUMBER)
    pipeline.specialize_client(
        "SENDRECV", arg_lens=lens, res_lens=lens
    ).install(hand_client)
    hand_server = pipeline.specialize_server(
        "SENDRECV", arg_lens=lens, res_lens=lens,
        fallback=_registry(stubs),
    )
    hand_call = _make_call(stubs, hand_server, hand_client,
                           itertools.count(1))
    assert hand_call(hot_args).vals == [v + 1 for v in range(HOT_N)]
    hand_us = _baseline_us(hand_call, hot_args, calls)

    # -- the online run -----------------------------------------------
    online_reg = _registry(stubs)
    shadow_reg = _registry(stubs)  # byte-identity oracle, stays generic
    spec = OnlineSpecializer(pipeline, policy=_policy(calls),
                             enabled=True)
    spec.attach_server(online_reg)
    online_client = RpcClient(PROG_NUMBER, VERS_NUMBER)
    codec = spec.attach_client(online_client, "SENDRECV")
    online_call = _make_call(stubs, online_reg, online_client,
                             itertools.count(1))
    assert online_call(hot_args).vals == [v + 1 for v in range(HOT_N)]

    hot_proc = pipeline.find_proc("SENDRECV").number

    def route_of():
        entry = online_reg.route_for(PROG_NUMBER, VERS_NUMBER, hot_proc)
        return entry.body if entry is not None else None

    windows = []
    wrong_bytes = 0

    def run_window(phase, window, n):
        nonlocal wrong_bytes
        us = _window_us(online_call, window)
        # decisions happen between windows, deterministically
        spec.poll_once()
        # correctness probes: the current length, the *other* phase's
        # length, and a never-specialized length — all must match the
        # generic oracle byte for byte, specialized or not
        wrong_bytes += _verify_bytes(
            stubs, online_reg, shadow_reg, (n, PROBE_N)
        )
        route = route_of()
        windows.append({
            "phase": phase,
            "n": n,
            "us_per_call": us,
            "rps": 1e6 / us if us else 0.0,
            "route_sizes": list(route.sizes) if route else [],
            "route_hits": route.hits if route else 0,
            "route_violations": route.violations if route else 0,
            "client_lens": list(codec.lens),
            "promotions": spec.promotions,
            "respecializations": spec.respecializations,
            "demotions": spec.demotions,
        })
        return us

    for _ in range(HOT_WINDOWS):
        run_window("hot", [hot_args] * calls, HOT_N)
    assert spec.promotions >= 1, (
        "online specializer never promoted the hot procedure"
    )
    for _ in range(SHIFT_WINDOWS):
        run_window("shift", [shift_args] * calls, SHIFT_N)
    assert spec.respecializations >= 1, (
        "the uncovered table was never widened to the shifted length"
    )
    violations_seen = max(w["route_violations"] for w in windows)
    assert violations_seen >= 1, (
        "the invariant-violation fallback was never exercised"
    )
    # the reconverged mix under a uniform tail: misses, not demotions
    rng = random.Random(0)
    tail_args = [stubs.intarr(vals=list(range(n)))
                 for n in range(TAIL_MAX_N + 1)]

    def server_guard():
        table = next(t for t in spec.explain() if t["side"] == "server")
        return table["hits"], table["violations"]

    before_tail = server_guard()
    for _ in range(TAIL_WINDOWS):
        run_window("tail", [
            tail_args[rng.randint(1, TAIL_MAX_N)]
            if rng.random() < TAIL_SHARE
            else (hot_args, shift_args)[index % 2]
            for index in range(calls)
        ], HOT_N)
    tail_hits, tail_misses = (
        now - before for now, before in zip(server_guard(), before_tail))
    spec.stop()

    converged_hot = min(
        w["us_per_call"] for w in windows
        if w["phase"] == "hot" and w["route_hits"] > 0
    )
    reconverged = min(
        w["us_per_call"] for w in windows
        if w["phase"] == "shift"
        and request_bytes(SHIFT_N) in w["route_sizes"]
    )
    summary = {
        "generic_us": generic_us,
        "hand_specialized_us": hand_us,
        "online_converged_us": converged_hot,
        "online_reconverged_us": reconverged,
        "speedup_vs_generic": ratio(generic_us, converged_hot),
        "fraction_of_hand_specialized": ratio(hand_us, converged_hot),
        "promotions": spec.promotions,
        "respecializations": spec.respecializations,
        "demotions": spec.demotions,
        "tail_hit_share": ratio(tail_hits, tail_hits + tail_misses),
        "violations": violations_seen,
        "wrong_bytes": wrong_bytes,
    }

    # a populated metrics snapshot rides along: a short instrumented
    # burst shows what rpc.spec.online.* report for this workload
    prev = obs.enabled
    obs.registry.reset()
    obs.enabled = True
    try:
        for _ in range(8):
            online_call(hot_args)
        online_call(shift_args)
        spec.poll_once()
    finally:
        obs.enabled = prev
    results = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "calls_per_window": calls,
            "hot_n": HOT_N,
            "shift_n": SHIFT_N,
            "probe_n": PROBE_N,
        },
        "windows": windows,
        "summary": summary,
        "decisions": [d._asdict() for d in spec.decisions],
        "obs_metrics": obs.collect(),
    }

    rows = [
        (i + 1, w["phase"], w["n"], w["us_per_call"],
         ratio(generic_us, w["us_per_call"]),
         ",".join(str(s) for s in w["route_sizes"]) or "-",
         w["route_violations"])
        for i, w in enumerate(windows)
    ]
    print(format_table(
        "Online convergence — us/call per window (generic floor"
        f" {generic_us:.1f}us, hand-specialized {hand_us:.1f}us)",
        ("win", "phase", "n", "us/call", "vs generic", "route sizes",
         "violations"),
        rows,
        note="hot: stable length -> promotion; shift: new length ->"
             " violations -> the review widens the table; tail: both"
             " lengths + 5% other lengths -> misses, no demotion",
    ))
    print()
    print(f"converged: {summary['speedup_vs_generic']:.2f}x generic,"
          f" {summary['fraction_of_hand_specialized']:.2f}x of the"
          f" hand-specialized ceiling;"
          f" tail phase hit share {summary['tail_hit_share']:.3f},"
          f" demotions {spec.demotions};"
          f" wrong-bytes replies: {wrong_bytes}")
    print()
    for table in spec.explain():
        last = table["last_decision"]
        print(f"{table['side']} {table['procedure']}: variants"
              f" {table['variants']} (size: hits), violations"
              f" {table['violations']}, declines {table['declines']};"
              f" last decision: {last.action if last else '-'}")
    for d in spec.decisions:
        print(f"  {d.side:6} {d.action:7} {d.size!s:>5}  {d.reason}"
              f"  [{d.calls} calls, hit share {d.hit_share:.2f}]")
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"\n[wrote {json_path}]")
    return results
