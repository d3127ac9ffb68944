"""One tier-conformance table: every dispatch tier runs under the same
at-most-once protocol.

The same scripted sequence is driven through {generic, fastpath,
staged, offline residual + fallback, online-promoted}, with
observability off and on.  Per step, every tier must answer the same
bytes and move the same protocol counters as the generic tier with
observability off — the reference — so a tier (or a switch) that grows
its own copy of the protocol shows up as a row that differs.
"""

import socket
import struct
import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MemorySink, Tracer
from repro.rpc import SvcRegistry, UdpServer
from repro.rpc.client import RpcClient
from repro.rpc.message import AcceptStat
from repro.rpc.resilience import (
    HEALTH_PROC_STATUS,
    HEALTH_PROG,
    HEALTH_VERS,
    Deadline,
)
from repro.specialized import (
    OnlinePolicy,
    OnlineSpecializer,
    SpecializationPipeline,
)
from repro.xdr import xdr_u_long

IDL = """
const MAXN = 64;

struct intarr {
    int vals<MAXN>;
};

program SPINE_PROG {
    version SPINE_VERS {
        intarr SENDRECV(intarr) = 1;
    } = 1;
} = 0x20005151;
"""

IMPL = """
void sendrecv_impl(struct intarr *args, struct intarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i] + 1;
}
"""

PROG, VERS, PROC = 0x20005151, 1, 1
#: the specialized length; CRASH_N makes the Python handler raise (the
#: residual tiers decline that size, so every tier reaches it) and
#: OTHER_N is a well-formed length no residual was built for
N, CRASH_N, OTHER_N = 8, 3, 5
CALLER = ("127.0.0.1", 40404)
TIERS = ("generic", "fastpath", "staged", "specialized", "online")
MIN_CALLS = 10


@pytest.fixture(scope="module")
def pipeline():
    return SpecializationPipeline(IDL, impl_sources=[IMPL])


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def call_bytes(pipeline, xid, n=N, prog=PROG, vers=VERS, proc=PROC,
               deadline=None):
    stubs = pipeline.stubs
    client = RpcClient(prog, vers)
    args = stubs.intarr(vals=list(range(n)))
    if deadline is not None:
        return bytes(client.build_call_deadline(xid, proc, args,
                                                stubs.xdr_intarr, deadline))
    return bytes(client.build_call(xid, proc, args, stubs.xdr_intarr))


def accept_stat(reply):
    return struct.unpack_from(">I", reply, 20)[0]


class Tier:
    """One tier's dispatcher plus the counters the table compares."""

    def __init__(self, name, pipeline):
        stubs = pipeline.stubs
        self.name = name
        self.registry = registry = SvcRegistry(fastpath=name != "generic",
                                               drc=True)

        class Impl:
            def SENDRECV(self, args):
                if len(args.vals) == CRASH_N:
                    raise RuntimeError("servant crash")
                return stubs.intarr(vals=[v + 1 for v in args.vals])

        stubs.register_SPINE_PROG_1(registry, Impl())
        registry.install_health()
        self.dispatcher = registry
        lens = {"arg_lens": {"vals": N}, "res_lens": {"vals": N}}
        if name == "staged":
            registry.stage_route(PROG, VERS, PROC)
        elif name == "specialized":
            self.dispatcher = pipeline.specialize_server(
                "SENDRECV", fallback=registry, **lens)
        elif name == "online":
            online = OnlineSpecializer(
                pipeline, enabled=True,
                policy=OnlinePolicy(min_calls=MIN_CALLS, window=8,
                                    cooldown_s=0.0))
            online.attach_server(registry)
            for xid in range(MIN_CALLS):
                registry.dispatch_bytes(call_bytes(pipeline, 0x7000 + xid))
            online.poll_once()
            assert online.promotions == 1
        self._base = self._raw_counts()
        self.dispatches = 0

    def _raw_counts(self):
        registry, drc = self.registry, self.registry.drc
        return (registry.handlers_invoked, drc.stores, drc.hits,
                registry.sheds, registry.doomed_dropped)

    def counts(self):
        """(handler executions, drc.stores, drc.hits, sheds,
        doomed_dropped) since the tier was built."""
        return tuple(now - base for now, base
                     in zip(self._raw_counts(), self._base))

    def dispatch(self, data):
        self.dispatches += 1
        return self.dispatcher.dispatch_bytes(data, CALLER)


def run_script(tier, pipeline):
    """The scripted sequence; returns one ``(step, reply, counts)`` row
    per dispatch."""
    registry = tier.registry
    rows = []

    def step(name, data):
        reply = tier.dispatch(data)
        rows.append((name, reply, tier.counts()))
        return reply

    def request(xid, **kwargs):
        return call_bytes(pipeline, xid, **kwargs)

    first = step("first call", request(1))
    assert accept_stat(first) == AcceptStat.SUCCESS
    assert step("retransmission replays", request(1)) == first

    held = registry.drc.key(2, CALLER, PROG, VERS, PROC)
    assert registry.drc.begin(held) is True  # "another worker" owns it
    assert step("in-progress duplicate dropped", request(2)) is None
    registry.drc.abandon(held)
    step("released claim executes", request(2))

    # the hot size, so every residual body sees it — but the length
    # word promises one element more than the message carries
    garbage = bytearray(request(3))
    struct.pack_into(">I", garbage, 40, N + 1)
    garbage = bytes(garbage)
    assert accept_stat(step("garbage args", garbage)) == \
        AcceptStat.GARBAGE_ARGS
    step("garbage args again (never cached)", garbage)

    crash = step("crashing handler", request(4, n=CRASH_N))
    assert accept_stat(crash) == AcceptStat.SYSTEM_ERR
    assert step("crash reply replays (cached)",
                request(4, n=CRASH_N)) == crash

    assert accept_stat(step("unknown proc", request(5, proc=99))) == \
        AcceptStat.PROC_UNAVAIL
    assert accept_stat(step("unknown prog", request(6, prog=PROG + 1))) == \
        AcceptStat.PROG_UNAVAIL
    assert accept_stat(step("unknown vers", request(7, vers=VERS + 1))) == \
        AcceptStat.PROG_MISMATCH

    frozen = FakeClock()
    live = step("deadline cred, budget left",
                request(8, deadline=Deadline(60.0, clock=frozen)))
    assert accept_stat(live) == AcceptStat.SUCCESS
    assert step("deadline cred, budget spent (doomed)",
                request(9, deadline=Deadline(0.0, clock=frozen))) is None

    registry.begin_drain()
    shed = step("draining sheds new work", request(10))
    assert accept_stat(shed) == AcceptStat.SYSTEM_ERR
    health = step("health answers while draining", bytes(
        RpcClient(HEALTH_PROG, HEALTH_VERS).build_call(
            11, HEALTH_PROC_STATUS, None, None)))
    assert accept_stat(health) == AcceptStat.SUCCESS
    assert step("replay answers while draining", request(1)) == first
    registry.end_drain()
    assert accept_stat(step("drain off: the shed call executes",
                            request(10))) == AcceptStat.SUCCESS

    clock = FakeClock()
    registry.install_quota(rate=1.0, burst=2.0, clock=clock)
    step("quota: first of burst", request(12))
    step("quota: second of burst", request(13))
    assert accept_stat(step("quota: over budget sheds", request(14))) == \
        AcceptStat.SYSTEM_ERR
    step("quota: replay is not charged", request(12))
    assert accept_stat(step("quota: still over budget", request(14))) == \
        AcceptStat.SYSTEM_ERR
    clock.now += 1.0
    assert accept_stat(step("quota: refilled, the shed call executes",
                            request(14))) == AcceptStat.SUCCESS
    registry.quota = None

    assert accept_stat(step("body declines (off-profile size)",
                            request(15, n=OTHER_N))) == AcceptStat.SUCCESS
    return rows


@pytest.fixture()
def observed():
    """Metrics plus an in-memory trace on private instruments."""
    prev = (obs.enabled, obs.registry, obs.tracer)
    obs.registry, obs.tracer = MetricsRegistry(), Tracer()
    sink = obs.tracer.add_sink(MemorySink())
    obs.enabled = True
    yield sink
    obs.enabled, obs.registry, obs.tracer = prev


@pytest.fixture(scope="module")
def reference(pipeline):
    prev = obs.enabled
    obs.enabled = False
    try:
        return run_script(Tier("generic", pipeline), pipeline)
    finally:
        obs.enabled = prev


def assert_conforms(rows, reference):
    assert [name for name, _, _ in rows] == \
        [name for name, _, _ in reference]
    for (name, reply, counts), (_, want_reply, want_counts) in zip(
            rows, reference):
        assert reply == want_reply, f"{name}: reply bytes differ"
        assert counts == want_counts, (
            f"{name}: (executions, stores, hits, sheds, doomed) ="
            f" {counts}, generic tier has {want_counts}")
        executions, stores = counts[0], counts[1]
        assert stores == executions, f"{name}: stores != executions"


@pytest.mark.parametrize("name", TIERS)
def test_tier_conforms_with_obs_off(pipeline, reference, name):
    prev = obs.enabled
    obs.enabled = False
    try:
        rows = run_script(Tier(name, pipeline), pipeline)
    finally:
        obs.enabled = prev
    assert_conforms(rows, reference)


@pytest.mark.parametrize("name", TIERS)
def test_tier_conforms_with_obs_on(pipeline, reference, observed, name):
    tier = Tier(name, pipeline)
    obs.registry.reset()
    observed.clear()
    rows = run_script(tier, pipeline)
    assert_conforms(rows, reference)
    counters = obs.collect()["counters"]
    # one request per dispatch_bytes call, whatever the body did
    assert counters["rpc.server.requests"] == tier.dispatches == len(rows)
    spans = [r for r in observed.records if r["name"] == "server.dispatch"]
    assert len(spans) == len(rows)
    by_step = {row[0]: span for row, span in zip(rows, spans)}
    # the tier that actually served: the route on the hot shape, the
    # default body once the route declined
    # (an online-promoted residual serves from the same residual
    # route, under the same label, as an offline-pinned one)
    assert by_step["first call"]["tier"] == (
        "specialized" if name == "online" else name)
    default = "generic" if name == "generic" else "fastpath"
    # a staged body takes any length; the residual ones only their own
    assert by_step["body declines (off-profile size)"]["tier"] == (
        "staged" if name == "staged" else default)
    assert by_step["garbage args"]["tier"] == default


def test_duplicate_racing_a_declining_route_executes_once():
    """The original and a duplicate of one xid through a route that
    declines: the duplicate arrives while the default body is already
    decoding under the original's claim, so it must be dropped — the
    claim is never handed back between the route and the default body.
    """
    registry = SvcRegistry(fastpath=True, drc=True)
    executions = []
    request = bytes(RpcClient(PROG, VERS).build_call(77, PROC, 5, xdr_u_long))
    duplicate = []

    def decode(stream, value):
        if not duplicate:
            racer = threading.Thread(target=lambda: duplicate.append(
                registry.dispatch_bytes(request, CALLER)))
            racer.start()
            racer.join(timeout=10.0)
            assert not racer.is_alive()
        return xdr_u_long(stream, value)

    def handler(value):
        executions.append(value)
        return value + 1

    def decline(data, offset):
        raise ValueError("off-profile")

    registry.register(PROG, VERS, PROC, handler, decode, xdr_u_long)
    registry.stage_route(PROG, VERS, PROC, unpack_args=decline)
    reply = registry.dispatch_bytes(request, CALLER)
    assert accept_stat(reply) == AcceptStat.SUCCESS
    assert duplicate == [None]  # dropped: the original was in progress
    assert executions == [5]
    assert registry.drc.stores == 1
    assert registry.drc.in_progress_drops == 1
    assert registry.dispatch_bytes(request, CALLER) == reply  # replays
    assert executions == [5]


@pytest.mark.parametrize("server_cls", [UdpServer])
def test_transport_over_the_residual_handle_controls_its_fallback(
        pipeline, tmp_path, server_cls):
    """A transport built over ``specialize_server(..., fallback=)`` must
    journal, shed and drain the fallback registry: the handle forwards
    the registry-control surface the transports probe for."""
    tier = Tier("specialized", pipeline)
    registry = tier.registry
    entered, release = threading.Event(), threading.Event()

    def slow(value):
        entered.set()
        release.wait(10.0)
        return value

    registry.register(PROG, VERS, 2, slow, xdr_u_long, xdr_u_long)

    def slow_call(xid):
        return bytes(RpcClient(PROG, VERS).build_call(xid, 2, xid,
                                                      xdr_u_long))

    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(5.0)
    try:
        with server_cls(tier.dispatcher, workers=1, queue_depth=1,
                        drc_dir=str(tmp_path)) as server:
            target = ("127.0.0.1", server.port)
            assert server.journal is not None
            assert registry.drc.on_store is not None  # the fallback's DRC
            # one call parks the only worker, one fills the queue, and
            # the overflow is answered SYSTEM_ERR instead of dropped
            sock.sendto(slow_call(1), target)
            assert entered.wait(5.0)
            sock.sendto(slow_call(2), target)
            sock.sendto(call_bytes(pipeline, 3), target)
            shed, _ = sock.recvfrom(65536)
            assert shed[:4] == struct.pack(">I", 3)
            assert accept_stat(shed) == AcceptStat.SYSTEM_ERR
            assert (server.requests_shed, registry.sheds) == (1, 1)
            release.set()
            assert {sock.recvfrom(65536)[0][:4] for _ in range(2)} == {
                struct.pack(">I", 1), struct.pack(">I", 2)}
            assert server.drain(timeout=5.0)
            assert registry.draining
            sock.sendto(call_bytes(pipeline, 4), target)
            refused, _ = sock.recvfrom(65536)
            assert accept_stat(refused) == AcceptStat.SYSTEM_ERR
            assert registry.sheds == 2 and tier.counts()[0] == 2
    finally:
        release.set()
        sock.close()
