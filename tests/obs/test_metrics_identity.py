"""The metrics identity table: what the instruments say is pinned.

The per-call folds (one record per side, folded once into cells
resolved per registry) replaced one get-or-create lookup per site.
This table is what says the replacement counts the same things: one
scripted scenario per outcome the conformance tables script, run
against ``UdpServer`` inline and with ``workers=2``, through
``UdpClient.call`` and ``MuxUdpClient.call_async``, and the normalized
``obs.collect()`` of each cell compared to a golden dict **recorded
from the commit before the folds** (``43ae90c``) by running this file
as a script against that tree::

    PYTHONPATH=<parent>/src python tests/obs/test_metrics_identity.py \
        > tests/obs/metrics_identity_golden.json

The only cells allowed to differ are listed in :data:`FIXED`: a call
that never reaches the wire used to be half-counted.  The series of
:data:`REMOVED` left with the buffer pools they counted.

Below the table: the registry agrees with the lifetime counters,
totals are exact under threads *through the folds*, the cells re-bind
when ``obs.registry`` is swapped, reset, or enabled late, and
``Histogram`` picks the bucket the linear scan picked.
"""

import contextlib
import json
import math
import pathlib
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import RpcError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
)
from repro.rpc import (
    FaultPlan,
    MuxTcpClient,
    MuxUdpClient,
    SvcRegistry,
    TcpClient,
    TcpServer,
    UdpClient,
    UdpServer,
)
from repro.rpc.client import RpcClient
from repro.rpc.resilience import Deadline
from repro.specialized import (
    OnlinePolicy,
    OnlineSpecializer,
    SpecializationPipeline,
)

GOLDEN = pathlib.Path(__file__).with_name("metrics_identity_golden.json")

IDL = """
const MAXN = 64;

struct intarr {
    int vals<MAXN>;
};

program IDENT_PROG {
    version IDENT_VERS {
        intarr SENDRECV(intarr) = 1;
    } = 1;
} = 0x20009a9a;
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

PROG, VERS, PROC = 0x20009a9a, 1, 1
#: the specialized length; a CRASH_N-element call makes the Python
#: handler raise (residual tiers decline that size)
N, CRASH_N = 8, 3
MIN_CALLS = 10
HOST = "127.0.0.1"

TIERS = ("generic", "fastpath", "staged", "specialized", "online")
WORKERS = (0, 2)
CLIENTS = (UdpClient, MuxUdpClient)

#: no spurious retransmission under a loaded host: the first window is
#: far longer than any stall, and nothing here waits for one
TIMING = {"timeout": 5.0, "wait": 1.0, "max_wait": 2.0, "jitter": 0.0}

_PIPELINE = []


def pipeline():
    if not _PIPELINE:
        _PIPELINE.append(SpecializationPipeline(IDL, impl_sources=[IMPL]))
    return _PIPELINE[0]


class Gate:
    """Lets a scenario hold the handler inside a call."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()


def make_dispatcher(tier, gate=None):
    """``(dispatcher, registry)`` of one server tier, built and (for
    the online tier) promoted before observability is switched on."""
    stubs = pipeline().stubs
    registry = SvcRegistry(fastpath=tier != "generic", drc=True)

    class Impl:
        def SENDRECV(self, args):
            if gate is not None:
                gate.entered.set()
                gate.release.wait(5.0)
            if len(args.vals) == CRASH_N:
                raise RuntimeError("servant crash")
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    stubs.register_IDENT_PROG_1(registry, Impl())
    dispatcher = registry
    lens = {"arg_lens": {"vals": N}, "res_lens": {"vals": N}}
    if tier == "staged":
        registry.stage_route(PROG, VERS, PROC)
    elif tier == "specialized":
        dispatcher = pipeline().specialize_server(
            "SENDRECV", fallback=registry, **lens)
    elif tier == "online":
        online = OnlineSpecializer(
            pipeline(), enabled=True,
            policy=OnlinePolicy(min_calls=MIN_CALLS, window=8,
                                cooldown_s=0.0))
        online.attach_server(registry)
        for xid in range(MIN_CALLS):
            registry.dispatch_bytes(request_bytes(0x7000 + xid))
        online.poll_once()
        assert online.promotions == 1
    return dispatcher, registry


def make_client(cls, port, tier="generic", **overrides):
    timing = dict(TIMING, **overrides)
    client = cls(HOST, port, PROG, VERS, fastpath=tier != "generic",
                 **timing)
    if tier == "specialized":
        pipeline().specialize_client(
            "SENDRECV", arg_lens={"vals": N}, res_lens={"vals": N},
        ).install(client)
    return client


def args_of(n=N):
    return pipeline().stubs.intarr(vals=list(range(n)))


def request_bytes(xid, n=N, deadline=None):
    xdr = pipeline().stubs.xdr_intarr
    client = RpcClient(PROG, VERS)
    if deadline is not None:
        return bytes(client.build_call_deadline(xid, PROC, args_of(n), xdr,
                                                deadline))
    return bytes(client.build_call(xid, PROC, args_of(n), xdr))


def drive(client, args):
    """One call: ``call()`` on the serial class, ``call_async()`` on
    the windowed one (so both drivers fold).  Returns the value, or
    the error's type name."""
    xdr = pipeline().stubs.xdr_intarr
    try:
        if isinstance(client, MuxUdpClient):
            return client.call_async(PROC, args, xdr, xdr).result(10.0).vals
        return client.call(PROC, args, xdr, xdr).vals
    except RpcError as exc:
        return type(exc).__name__


@contextlib.contextmanager
def observed():
    """Metrics on, against private instruments, inside the block; the
    dict yielded gets the normalized snapshot on exit."""
    out = {}
    obs.registry = MetricsRegistry()
    obs.enabled = True
    try:
        yield out
    finally:
        obs.enabled = False
        out.update(normalize(obs.collect()))


def normalize(snapshot):
    """What of ``collect()`` is a function of the script alone:
    histograms keep their observation count (sums and buckets are
    times), and the demux thread's wake-up count (one per ``select``
    return, idle ticks included) keeps only its presence."""
    counters = {key: (True if key.startswith("rpc.mux.wakeups") else value)
                for key, value in snapshot["counters"].items()}
    return {"counters": counters, "gauges": snapshot["gauges"],
            "histograms": {key: value["count"] for key, value
                           in snapshot["histograms"].items()}}


def wait_for(predicate, what, timeout=5.0):
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, f"timed out waiting for {what}"
        time.sleep(0.002)


# -- the scenarios -----------------------------------------------------------
#
# Each takes (workers, client class) and returns (normalized snapshot,
# facts) where ``facts`` are the lifetime counters the snapshot must
# agree with.


def facts_of(registry=None, dispatcher=None, client=None):
    facts = {}
    if registry is not None:
        drc = registry.drc
        facts.update(drc_hits=drc.hits, drc_misses=drc.misses,
                     drc_stores=drc.stores,
                     executions=registry.handlers_invoked,
                     sheds=registry.sheds, doomed=registry.doomed_dropped)
    if client is not None:
        facts.update(client.stats_summary())
    return facts


def ok_on(tier):
    def scenario(workers, cls):
        dispatcher, registry = make_dispatcher(tier)
        with UdpServer(dispatcher, fastpath=tier != "generic",
                       workers=workers) as server:
            with make_client(cls, server.port, tier) as client:
                base = facts_of(registry, dispatcher)
                with observed() as seen:
                    for _ in range(3):
                        assert drive(client, args_of()) == [
                            v + 1 for v in range(N)]
                facts = facts_of(registry, dispatcher, client)
        for key, value in base.items():
            facts[key] -= value  # the online tier's warm-up calls
        return seen, facts
    scenario.__name__ = f"ok_{tier}"
    return scenario


def retransmission_replays(workers, cls):
    """The first reply is lost: the call is retransmitted and answered
    from the DRC; a second call is clean."""
    dispatcher, registry = make_dispatcher("fastpath")
    plan = FaultPlan(seed=1, drop=1.0, max_faults=1)
    with UdpServer(dispatcher, fastpath=True, workers=workers,
                   fault_plan=plan) as server:
        with make_client(cls, server.port, "fastpath", wait=0.15,
                         max_wait=1.0) as client:
            with observed() as seen:
                for _ in range(2):
                    assert drive(client, args_of()) == [
                        v + 1 for v in range(N)]
            return seen, facts_of(registry, dispatcher, client)


def in_progress_drop(workers, cls):
    """A duplicate that arrives while the original executes is dropped
    (no client class: the requests are scripted on a raw socket)."""
    gate = Gate()
    dispatcher, registry = make_dispatcher("generic", gate)
    with UdpServer(dispatcher, workers=workers) as server, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind((HOST, 0))
        sock.settimeout(5.0)
        data = request_bytes(77)
        if workers:
            gate.release.clear()
        else:
            # inline there is no second dispatcher: "another worker"
            # holds the claim (taken with observability still off)
            key = registry.drc.key(77, sock.getsockname(), PROG, VERS, PROC)
            assert registry.drc.begin(key) is True
        with observed() as seen:
            sock.sendto(data, (HOST, server.port))
            if workers:
                assert gate.entered.wait(5.0)
                sock.sendto(data, (HOST, server.port))
                wait_for(lambda: server.requests_handled == 1, "the drop")
                gate.release.set()
                assert sock.recvfrom(65536)[0][:4] == data[:4]
            wait_for(lambda: server.requests_handled == 1 + bool(workers),
                     "the dispatches")
        facts = facts_of(registry, dispatcher)
        if not workers:
            registry.drc.abandon(key)
            facts["drc_misses"] -= 1  # the scripted claim itself
        return seen, facts


def shed_while_draining(workers, cls):
    dispatcher, registry = make_dispatcher("fastpath")
    with UdpServer(dispatcher, fastpath=True, workers=workers) as server:
        with make_client(cls, server.port, "fastpath") as client:
            registry.begin_drain()
            with observed() as seen:
                assert drive(client, args_of()) == "RpcDeniedError"
            return seen, facts_of(registry, dispatcher, client)


def doomed_deadline(workers, cls):
    """A request whose propagated budget is already spent is dropped
    unanswered (scripted on a raw socket), then a live one is served."""

    class Frozen:
        def __call__(self):
            return 1000.0

    dispatcher, registry = make_dispatcher("generic")
    with UdpServer(dispatcher, workers=workers) as server, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(5.0)
        with observed() as seen:
            sock.sendto(request_bytes(
                5, deadline=Deadline(0.0, clock=Frozen())),
                (HOST, server.port))
            wait_for(lambda: server.requests_handled == 1, "the drop")
            sock.sendto(request_bytes(
                6, deadline=Deadline(60.0, clock=Frozen())),
                (HOST, server.port))
            assert sock.recvfrom(65536)[0][:4] == b"\0\0\0\x06"
            wait_for(lambda: server.requests_handled == 2, "the answer")
        return seen, facts_of(registry, dispatcher)


def undecodable_requests(workers, cls):
    """Garbage, a wrong RPC version, an unknown program, an unknown
    procedure and unparseable arguments: every reply the default body
    answers without a handler."""
    dispatcher, registry = make_dispatcher("fastpath")
    good = request_bytes(9)
    scripted = [
        (b"\x01\x02\x03", False),                              # garbage
        (good[:8] + b"\0\0\0\x03" + good[12:], True),          # rpcvers 3
        (good[:12] + b"\x20\0\x12\x34" + good[16:], True),     # no program
        (good[:16] + b"\0\0\0\x09" + good[20:], True),         # bad version
        (good[:20] + b"\0\0\0\x07" + good[24:], True),         # no procedure
        (good[:44], True),                                     # short args
    ]
    with UdpServer(dispatcher, fastpath=True, workers=workers) as server, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(5.0)
        with observed() as seen:
            for count, (data, answered) in enumerate(scripted, 1):
                sock.sendto(data, (HOST, server.port))
                if answered:
                    sock.recvfrom(65536)
                wait_for(lambda: server.requests_handled == count,
                         f"dispatch {count}")
        return seen, facts_of(registry, dispatcher)


def handler_error(workers, cls):
    dispatcher, registry = make_dispatcher("specialized")
    with UdpServer(dispatcher, fastpath=True, workers=workers) as server:
        with make_client(cls, server.port, "fastpath") as client:
            with observed() as seen:
                # the residual declines CRASH_N; the default body's
                # handler raises: SYSTEM_ERR, cached
                assert drive(client, args_of(CRASH_N)) == "RpcDeniedError"
            return seen, facts_of(registry, dispatcher, client)


def encode_failure(workers, cls):
    """Arguments that do not encode: the call never reaches the wire."""
    dispatcher, registry = make_dispatcher("generic")

    def raising_xdr(stream, value):
        raise ValueError("unencodable")

    with UdpServer(dispatcher, workers=workers) as server:
        with make_client(cls, server.port) as client:
            with observed() as seen:
                with pytest.raises(ValueError):
                    if cls is MuxUdpClient:
                        client.call_async(PROC, 5, raising_xdr, raising_xdr)
                    else:
                        client.call(PROC, 5, raising_xdr, raising_xdr)
            return seen, facts_of(registry, dispatcher, client)


class Peer:
    """A scripted UDP server: ``script(send, xid)`` per request
    (None: a black hole)."""

    def __init__(self, script=None):
        self.script = script
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((HOST, 0))
        self.sock.settimeout(0.05)
        self.port = self.sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                message, addr = self.sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            if self.script is not None:
                self.script(lambda reply: self.sock.sendto(reply, addr),
                            int.from_bytes(message[:4], "big"))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(2.0)
        self.sock.close()


def garbage_and_stale_replies(workers, cls):
    """Ahead of the answer: a payload too short to carry an xid, and a
    well-formed reply to somebody else's call (no server class: the
    replies are scripted)."""
    # everything after the xid of the accepted-SUCCESS reply
    tail = make_dispatcher("generic")[1].dispatch_bytes(request_bytes(1))[4:]

    def script(send, xid):
        send(b"\x01\x02")
        send((xid ^ 0x5A5A).to_bytes(4, "big") + tail)
        send(xid.to_bytes(4, "big") + tail)

    with Peer(script) as peer, make_client(cls, peer.port) as client:
        with observed() as seen:
            assert drive(client, args_of()) == [v + 1 for v in range(N)]
            wait_for(lambda: client.stale_replies == 1
                     and client.garbage_datagrams == 1, "the stragglers")
        return seen, facts_of(client=client)


def timeout(workers, cls):
    """A black hole: one send (the window outlasts the budget), then
    the typed timeout."""
    with Peer() as peer, make_client(cls, peer.port, timeout=0.1,
                                     wait=1.0) as client:
        with observed() as seen:
            assert drive(client, args_of()) == "RpcTimeoutError"
        return seen, facts_of(client=client)


SCENARIOS = [ok_on(tier) for tier in TIERS] + [
    retransmission_replays, in_progress_drop, shed_while_draining,
    doomed_deadline, undecodable_requests, handler_error, encode_failure,
    garbage_and_stale_replies, timeout,
]


def cell_id(scenario, workers, cls):
    return (f"{scenario.__name__}/{'workers' if workers else 'inline'}"
            f"/{cls.__name__}")


def record():
    """Every cell's normalized snapshot (run as a script against the
    tree whose numbers are the reference)."""
    return {cell_id(scenario, workers, cls): scenario(workers, cls)[0]
            for scenario in SCENARIOS for workers in WORKERS
            for cls in CLIENTS}


#: what the first satellite of the change fixes, and nothing else: a
#: call whose arguments do not encode used to leave ``rpc.client.calls``
#: at 1 and no other trace; now it ends like any other call — one typed
#: error, one latency sample.  ``cell id -> (kind, series, value)``
#: additions to the golden snapshot.
FIXED = {
    cell_id(encode_failure, workers, cls): [
        ("counters",
         "rpc.client.errors{error=ValueError,transport=udp}", 1),
        ("histograms", "rpc.client.call_latency_s{transport=udp}", 1),
    ]
    for workers in WORKERS for cls in CLIENTS
}

#: the buffer pools' series, gone with the pools (a fresh ``bytearray``
#: costs less than a free-list round trip): subtracted from every cell
#: of the golden snapshot.
REMOVED = ("rpc.pool.reuses", "rpc.pool.allocations")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("cls", CLIENTS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("workers", WORKERS, ids=["inline", "workers"])
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_collect_equals_the_parent_commits(golden, scenario, workers, cls):
    cell = cell_id(scenario, workers, cls)
    seen, facts = scenario(workers, cls)
    want = golden[cell]
    for kind, series, value in FIXED.get(cell, ()):
        assert series not in want[kind]
        want[kind][series] = value
    for series in REMOVED:
        want["counters"].pop(series, None)
    assert seen == want
    # ... and the registry agrees with the lifetime counters
    counters = seen["counters"]

    def total(prefix):
        return sum(value for key, value in counters.items()
                   if key.split("{")[0] == prefix)

    if "drc_hits" in facts:
        assert total("rpc.drc.hits") == facts["drc_hits"]
        assert total("rpc.drc.misses") == facts["drc_misses"]
        assert total("rpc.drc.stores") == facts["drc_stores"]
        assert facts["drc_stores"] == facts["executions"]
        assert total("rpc.server.sheds") == facts["sheds"]
        assert total("rpc.deadline.doomed") == facts["doomed"]
        assert total("rpc.server.requests") == seen["histograms"].get(
            "rpc.server.dispatch_latency_s", 0)
    if "calls_completed" in facts:
        assert total("rpc.client.calls") == facts["calls_completed"]
        assert total("rpc.client.calls") == seen["histograms"].get(
            "rpc.client.call_latency_s{transport=udp}", 0)
        assert (total("rpc.client.retransmissions")
                == facts["retransmissions"])
        assert (total("rpc.client.garbage_datagrams")
                == facts["garbage_datagrams"])
        assert total("rpc.client.stale_replies") == facts["stale_replies"]


# -- a call that never reaches the wire ---------------------------------------


@pytest.mark.parametrize(
    "cls", [UdpClient, MuxUdpClient, TcpClient, MuxTcpClient],
    ids=lambda c: c.__name__)
@pytest.mark.parametrize("mode", ["call", "async"])
def test_a_call_that_fails_to_encode_is_counted_whole(cls, mode):
    def raising_xdr(stream, value):
        raise ValueError("unencodable")

    label = "udp" if issubclass(cls, UdpClient) else "tcp"
    server_cls = UdpServer if label == "udp" else TcpServer
    with server_cls(SvcRegistry()) as server, \
            cls(HOST, server.port, PROG, VERS, timeout=2.0) as client:
        obs.enabled = True
        with pytest.raises(ValueError):
            submit = client.call if mode == "call" else client.call_async
            submit(1, 5, raising_xdr, raising_xdr)
        obs.enabled = False
        assert client.calls_completed == 1
        assert client.last_call_stats.attempts == 0
    snapshot = normalize(obs.collect())
    assert snapshot["counters"] == {
        f"rpc.client.calls{{tier=generic,transport={label}}}": 1,
        f"rpc.client.errors{{error=ValueError,transport={label}}}": 1,
    }
    assert snapshot["histograms"] == {
        f"rpc.client.call_latency_s{{transport={label}}}": 1}


def test_a_call_the_window_refuses_is_counted_whole():
    """Window 1, held by a call a black hole never answers: the second
    submission waits for room, gives up typed, and is one whole call."""
    with Peer() as peer, MuxUdpClient(
            HOST, peer.port, PROG, VERS, timeout=0.3, wait=1.0,
            max_inflight=1) as client:
        obs.enabled = True
        xdr = pipeline().stubs.xdr_intarr
        first = client.call_async(PROC, args_of(), xdr, xdr)
        with pytest.raises(RpcError):
            client.call_async(PROC, args_of(), xdr, xdr, deadline=0.05)
        assert isinstance(first.exception(5.0), RpcError)
        obs.enabled = False
        assert client.calls_completed == 2
    snapshot = normalize(obs.collect())
    counters = snapshot["counters"]
    assert counters["rpc.client.calls{tier=generic,transport=udp}"] == 2
    assert snapshot["histograms"][
        "rpc.client.call_latency_s{transport=udp}"] == 2
    assert sum(value for key, value in counters.items() if key.startswith(
        ("rpc.client.errors", "rpc.client.timeouts",
         "rpc.client.deadline_exceeded"))) == 2


# -- exact under threads, through the folds -----------------------------------


@pytest.fixture
def fast_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def test_threaded_dispatch_folds_are_exact(fast_switching):
    """8 threads x 5 000 dispatches through one registry: every series
    of the fold is exact, and threads joined before ``collect()``
    still count."""
    threads, per_thread = 8, 5000
    dispatcher, registry = make_dispatcher("specialized")
    requests = [[request_bytes(t * per_thread + i + 1)
                 for i in range(per_thread)] for t in range(threads)]
    barrier = threading.Barrier(threads)
    obs.enabled = True

    def work(index):
        caller = (HOST, 40000 + index)
        barrier.wait()
        for data in requests[index]:
            assert dispatcher.dispatch_bytes(data, caller) is not None

    pool = [threading.Thread(target=work, args=(index,))
            for index in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(120.0)
        assert not thread.is_alive()
    obs.enabled = False
    total = threads * per_thread
    snapshot = obs.collect()
    counters = snapshot["counters"]
    for series in ("rpc.server.requests", "rpc.server.fastpath_header_hits",
                   "rpc.server.specialized_hits", "rpc.drc.misses",
                   "rpc.drc.stores", "rpc.server.replies{outcome=success}"):
        assert counters[series] == total, series
    assert counters["rpc.drc.evictions"] == total - registry.drc.capacity
    assert snapshot["gauges"]["rpc.drc.entries"] == registry.drc.capacity
    latency = snapshot["histograms"]["rpc.server.dispatch_latency_s"]
    assert latency["count"] == latency["cumulative_counts"][-1] == total
    assert registry.drc.stores == registry.handlers_invoked == total


def test_short_lived_connections_do_not_grow_the_registry():
    """``TcpServer`` serves each connection on its own thread: 200 of
    them, come and gone, leave the instruments they found."""
    registry = SvcRegistry()
    registry.register(PROG, VERS, 1, lambda value: value, None, None)
    with TcpServer(registry) as server:
        obs.enabled = True
        sizes = []
        for _ in range(200):
            with TcpClient(HOST, server.port, PROG, VERS,
                           timeout=5.0) as client:
                client.call(1)
            sizes.append(len(obs.registry))
        obs.enabled = False
    assert sizes[-1] == sizes[9]  # everything was resolved by then
    counters = obs.collect()["counters"]
    assert counters["rpc.server.requests"] == 200
    assert counters["rpc.client.calls{tier=generic,transport=tcp}"] == 200


# -- re-binding ---------------------------------------------------------------


def test_folds_follow_a_swapped_reset_or_late_enabled_registry():
    dispatcher, registry = make_dispatcher("specialized")
    registry.enable_drc(capacity=2)  # full, and evicting, from call 3 on

    def one_call():
        assert drive(client, args_of()) == [v + 1 for v in range(N)]

    # the objects exist before observability is enabled ...
    with UdpServer(dispatcher, fastpath=True) as server, \
            make_client(UdpClient, server.port, "specialized") as client:
        for _ in range(3):
            one_call()
        assert obs.collect()["counters"] == {}
        # ... enabled late, directly on the flag as the tests do
        obs.enabled = True
        one_call()
        first = normalize(obs.collect())
        assert first["counters"]["rpc.server.requests"] == 1
        assert first["counters"]["rpc.drc.evictions"] == 1
        assert first["counters"][
            "rpc.client.calls{tier=specialized,transport=udp}"] == 1
        assert first["gauges"] == {"rpc.drc.entries": 2}
        # swapped: the old registry stops moving, the new one starts
        # at zero — and gets the level, which has not moved since the
        # last fold, because it differs from the new cell's
        old, obs.registry = obs.registry, MetricsRegistry()
        one_call()
        assert normalize(old.collect()) == first
        assert normalize(obs.collect()) == first
        # reset: zeroed in place, and the next call counts from there
        obs.reset()
        zeroed = obs.collect()
        assert set(zeroed["counters"].values()) == {0}
        assert zeroed["gauges"] == {"rpc.drc.entries": 0}
        one_call()
        assert normalize(obs.collect()) == first
        obs.enabled = False


# -- the bucket search --------------------------------------------------------


def linear_bucket(buckets, value):
    """``Histogram.observe`` as it was: the first edge >= value."""
    for index, edge in enumerate(buckets):
        if value <= edge:
            return index
    return len(buckets)


def bucket_of(buckets, value):
    histogram = Histogram("h", buckets=buckets)
    histogram.observe(value)
    counts = histogram.snapshot()["cumulative_counts"]
    return counts.index(1)


def test_every_edge_and_its_neighbours_land_where_the_scan_put_them():
    buckets = DEFAULT_LATENCY_BUCKETS_S
    for edge in buckets:
        for value in (math.nextafter(edge, -math.inf), edge,
                      math.nextafter(edge, math.inf)):
            assert bucket_of(buckets, value) == linear_bucket(buckets, value)
    for value in (0.0, -1.0, 1e9, math.inf):
        assert bucket_of(buckets, value) == linear_bucket(buckets, value)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=12, unique=True).map(sorted),
       st.floats(allow_nan=False), st.integers(0, 11),
       st.sampled_from(("free", "below", "on", "above")))
def test_bucket_choice_is_the_linear_scans(buckets, value, index, where):
    # three probes in four sit on an edge or one ulp off it
    if where != "free":
        value = buckets[index % len(buckets)]
        if where != "on":
            value = math.nextafter(
                value, -math.inf if where == "below" else math.inf)
    assert bucket_of(tuple(buckets), value) == linear_bucket(buckets, value)


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
