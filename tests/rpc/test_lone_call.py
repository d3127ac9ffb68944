"""The serial round trip: a lone call, kernel timeouts, one staged pass.

A synchronous call that finds the engine idle — window 1, the driver
role free, an empty table, no wake pair, no unsent bytes — with no
deadline and no trace sink is *lone*: it holds its window slot with no
``PendingCall``, transmits once, blocks once in the receive (under the
socket's kernel ``SO_RCVTIMEO``; no ``select``) and settles on its
reply.  Anything else hands it to the engine.  Both servers receive
under a kernel timeout too, so CPython runs no ``poll`` before any of
their socket calls, and a served datagram takes the server core's
per-request path staged for its configuration.  Below: what a lone
call costs in syscalls and (on CPython 3.11) in bytecodes on either
end, that silence, stale xids, garbage, batch envelopes and
``close()`` still resolve it on time, and that it holds the window.
"""

import functools
import gc
import re
import socket
import struct
import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import RpcConnectionError
from repro.rpc import (
    FaultPlan,
    MuxUdpClient,
    SvcRegistry,
    TcpClient,
    TcpServer,
    UdpClient,
    UdpServer,
)
from repro.bench.workloads import WORKLOAD_IDL, WORKLOAD_IMPL
from repro.rpc.client import RpcClient
from repro.rpc.clnt_core import IDLE_TICK_S
from repro.rpc.fastpath import ReplyHeaderTemplate
from repro.rpc.record import pack_batch
from repro.specialized import OnlineSpecializer, SpecializationPipeline
from repro.xdr import xdr_u_long

PROG, VERS, PROC = 0x20007c7c, 1, 1
PAIRS = [(UdpServer, UdpClient), (TcpServer, TcpClient)]
pairs = pytest.mark.parametrize("server_cls,client_cls", PAIRS,
                                ids=["udp", "tcp"])


@pytest.fixture(autouse=True)
def obs_off():
    previous = obs.enabled
    obs.enabled = False
    yield
    obs.enabled = previous


def registry():
    reg = SvcRegistry()
    reg.register(PROG, VERS, PROC, lambda v: (v + 1) & 0xFFFFFFFF,
                 xdr_u_long, xdr_u_long)
    return reg


def call(client, value=41):
    return client.call(PROC, value, xdr_u_long, xdr_u_long)


def kernel_timeout_of(sock):
    seconds, micros = struct.unpack(
        "@ll", sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, 16))
    return seconds + micros / 1e6


@pytest.fixture()
def select_calls(monkeypatch):
    """Every ``select.select`` the process makes while the test runs."""
    import select

    made = []
    real = select.select

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(select, "select", counting)
    return made


def count_io(client):
    """Count the transport's transmits and receives (and their flags)."""
    counts = {"transmit": 0, "receive": []}
    transmit, receive = client._transmit, client._receive

    def counted_transmit(group):
        counts["transmit"] += 1
        return transmit(group)

    def counted_receive(flags):
        counts["receive"].append(flags)
        return receive(flags)

    client._transmit = counted_transmit
    client._receive = counted_receive
    return counts


@pairs
def test_a_lone_call_blocks_in_the_receive(server_cls, client_cls,
                                           select_calls):
    with server_cls(registry()) as server:
        with client_cls("127.0.0.1", server.port, PROG, VERS) as client:
            assert call(client, 0) == 1  # (TCP: the connection thread)
            counts = count_io(client)
            for value in range(20):
                del select_calls[:]
                assert call(client, value) == value + 1
                assert select_calls == []
            assert counts == {"transmit": 20, "receive": [0] * 20}
            assert client._wake_r is None


def test_a_call_after_an_idle_gap_is_still_lone(select_calls):
    """The first call into an empty table resets the timer floor; one
    its predecessor left behind would sit inside the tick by now."""
    with UdpServer(registry()) as server:
        with UdpClient("127.0.0.1", server.port, PROG, VERS,
                       wait=0.3) as client:
            assert call(client) == 42
            time.sleep(0.2)
            del select_calls[:]
            assert call(client) == 42
            assert select_calls == []


@pairs
def test_no_socket_carries_a_python_timeout(server_cls, client_cls):
    with server_cls(registry()) as server:
        with client_cls("127.0.0.1", server.port, PROG, VERS) as client:
            assert call(client) == 42
            assert client.sock.gettimeout() is None
            assert kernel_timeout_of(client.sock) == pytest.approx(
                IDLE_TICK_S)
            if server_cls is UdpServer:
                assert server.sock.gettimeout() is None
                assert kernel_timeout_of(server.sock) == pytest.approx(0.2)
            else:
                with server._conns_lock:
                    conns = list(server._conns)
                assert conns
                for conn in conns:
                    assert conn.gettimeout() is None
                    assert kernel_timeout_of(conn) == pytest.approx(30.0)


def test_silence_retransmits_within_a_window_and_a_tick():
    """The server loses the first reply: the lone driver's receive
    times out at a tick, the step takes over, and the retransmission
    goes out at the end of the window — not a tick late."""
    plan = FaultPlan(seed=1, drop=1.0, max_faults=1)
    with UdpServer(registry(), fault_plan=plan) as server:
        with UdpClient("127.0.0.1", server.port, PROG, VERS, wait=0.5,
                       jitter=0.0) as client:
            started = time.monotonic()
            assert call(client) == 42
            elapsed = time.monotonic() - started
            stats = client.last_call_stats
            assert (stats.attempts, stats.retransmissions) == (2, 1)
            # within window + tick, and in fact on time: a driver that
            # slept a whole tick past the window would read 0.6
            assert 0.5 - 0.01 <= elapsed < 0.5 + IDLE_TICK_S / 2
            assert server.registry.handlers_invoked == 1  # a DRC replay


_REPLY_TAIL = ReplyHeaderTemplate().prefix[4:]


def success(xid, value):
    return struct.pack(">I", xid) + _REPLY_TAIL + struct.pack(">I", value)


class Peer:
    """A scripted UDP server: ``script(sock, addr, xid)`` per request."""

    def __init__(self, script=None):
        self.script = script
        self.requests = threading.Semaphore(0)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
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
            self.requests.release()
            if self.script is not None:
                self.script(self.sock, addr, int.from_bytes(message[:4],
                                                            "big"))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self.sock.close()
        self._thread.join(timeout=2.0)


@pytest.mark.parametrize("noise", ["stale", "garbage"])
def test_noise_ahead_of_the_reply_is_counted(noise):
    def script(sock, addr, xid):
        sock.sendto(success(xid ^ 0x5A5A, 7) if noise == "stale"
                    else b"\x01\x02", addr)
        time.sleep(0.01)  # the lone receive takes the noise alone
        sock.sendto(success(xid, 42), addr)

    with Peer(script) as peer:
        with UdpClient("127.0.0.1", peer.port, PROG, VERS) as client:
            assert call(client) == 42
            stats = client.last_call_stats
            assert (stats.attempts, stats.retransmissions) == (1, 0)
            if noise == "stale":
                assert (client.unknown_xids, client.stale_replies) == (1, 1)
            else:
                assert client.garbage_datagrams == 1


@pytest.mark.parametrize("client_cls", [UdpClient, TcpClient],
                         ids=["udp", "tcp"])
def test_close_resolves_a_blocked_lone_call(client_cls):
    if client_cls is UdpClient:
        peer = Peer()  # a black hole
        kwargs = {"wait": 5.0, "max_wait": 5.0}
    else:
        slow = registry()
        slow.register(PROG, VERS, 2, lambda v: time.sleep(0.6),
                      xdr_u_long, xdr_u_long)
        peer = TcpServer(slow)
        kwargs = {}
    with peer:
        client = client_cls("127.0.0.1", peer.port, PROG, VERS,
                            timeout=5.0, **kwargs)
        outcome = []

        def caller():
            try:
                client.call(2 if client_cls is TcpClient else PROC, 1,
                            xdr_u_long, xdr_u_long)
            except Exception as exc:  # noqa: BLE001 - the outcome
                outcome.append(exc)

        thread = threading.Thread(target=caller, daemon=True)
        thread.start()
        time.sleep(0.1)  # the driver is in its blocking receive
        started = time.monotonic()
        client.close()
        thread.join(timeout=3.0)
        elapsed = time.monotonic() - started
        assert not thread.is_alive()
        assert [type(exc) for exc in outcome] == [RpcConnectionError]
        assert elapsed < IDLE_TICK_S + 0.15
        # what the engine's sweep says of a call in flight
        proc = 2 if client_cls is TcpClient else PROC
        assert re.fullmatch(
            rf"client closed with call \(proc={proc}, xid=\d+\) in flight",
            str(outcome[0])), str(outcome[0])


def test_close_while_a_window_completes_resolves_every_call():
    """``close()`` sweeps the table while the driver pops completed
    calls from it without the lock.  Here a completion lands at every
    bytecode boundary of the sweep — each one a point where the GIL may
    pass to the driver — and the sweep must still resolve every call:
    one that walked the live table would see it change size and raise
    out of ``close()``, stranding the calls it had not reached."""
    with Peer() as peer:  # a black hole: only the sweep resolves
        client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS,
                              timeout=5.0, wait=5.0, max_wait=5.0,
                              max_inflight=64)
        calls = client.call_async_many(PROC, range(64), xdr_u_long,
                                       xdr_u_long)
        assert peer.requests.acquire(timeout=2.0)  # (maybe one envelope)
        time.sleep(0.05)  # the driver is idle in its receive
        completed = []

        def complete_one(frame, event, arg):
            if event == "opcode" and client._down is not None:
                live = [c for c in list(client._pending.values())
                        if c is not None]
                if live:  # what the driver's batch would do here
                    client._complete_batch([(live[0], 42, None)])
                    completed.append(live[0])
            return complete_one

        def trace(frame, event, arg):
            if frame.f_code.co_name in ("_refuse", "<listcomp>"):
                frame.f_trace_opcodes = True
                return complete_one
            return None

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            client.close()
        finally:
            sys.settrace(previous)
    assert completed  # the sweep did run beside completions
    for pending in calls:
        assert pending.done(), pending
        if pending in completed:
            assert pending.result() == 42
        else:
            assert isinstance(pending.exception(), RpcConnectionError)


def test_a_lone_call_holds_the_window():
    """A second caller waits for the lone call's slot: it reaches the
    wire only after the first reply, the table never holds two, and it
    then drives itself (no demux thread, no wake pair)."""
    sent_at, arrived_at = [], []

    def script(sock, addr, xid):
        arrived_at.append(time.monotonic())

        def answer():
            sent_at.append(time.monotonic())
            sock.sendto(success(xid, 42), addr)

        threading.Timer(0.05, answer).start()  # the loop keeps reading

    with Peer(script) as peer:
        with UdpClient("127.0.0.1", peer.port, PROG, VERS) as client:
            values, seen = [], set()
            first = threading.Thread(
                target=lambda: values.append(call(client)))
            first.start()
            assert peer.requests.acquire(timeout=2.0)
            second = threading.Thread(
                target=lambda: values.append(call(client)))
            second.start()
            give_up = time.monotonic() + 5.0
            while ((first.is_alive() or second.is_alive())
                   and time.monotonic() < give_up):
                seen.add(client.inflight)
            first.join(timeout=1.0)
            second.join(timeout=1.0)
            assert not first.is_alive() and not second.is_alive()
            assert values == [42, 42]
            assert max(seen) <= 1
            assert len(arrived_at) == 2 and arrived_at[1] >= sent_at[0]
            assert client._wake_r is None


@pytest.mark.parametrize("ours_first", [False, True])
def test_a_reply_in_a_batch_envelope_beside_a_stale_one(ours_first):
    def script(sock, addr, xid):
        batch = [success(xid ^ 0x5A5A, 7), success(xid, 42)]
        sock.sendto(pack_batch(batch[::-1] if ours_first else batch), addr)

    with Peer(script) as peer:
        with UdpClient("127.0.0.1", peer.port, PROG, VERS) as client:
            assert call(client) == 42
            stats = client.last_call_stats
            assert (stats.attempts, stats.retransmissions) == (1, 0)
            assert (client.unknown_xids, client.stale_replies) == (1, 1)


def test_a_handle_once_that_knows_only_socket_timeout_keeps_serving():
    """The shape of an older subclass: its ``handle_once`` catches
    ``socket.timeout``, which a kernel timeout never raises.  The
    ``BlockingIOError`` of an idle tick reaches ``serve_forever``,
    which treats it as the tick."""
    class LegacyServer(UdpServer):
        def handle_once(self):
            try:
                data, addr = self.sock.recvfrom(self.bufsize)
            except socket.timeout:
                return False
            reply = self.registry.dispatch_bytes(data)
            if reply is not None:
                self.sock.sendto(reply, addr)
            return True

    with LegacyServer(registry()) as server:
        time.sleep(2.5 * 0.2)  # idle ticks
        assert server._thread.is_alive()
        with UdpClient("127.0.0.1", server.port, PROG, VERS) as client:
            assert call(client) == 42


# -- what a lone call costs the client ---------------------------------------


def count_pyops(fn):
    """Bytecode instructions ``fn()`` executes on this thread, with the
    cyclic collector off: a collection inside ``fn()`` runs finalizers
    and weakref callbacks of garbage earlier tests left, which are not
    ``fn``'s work (a full tier-1 run counted 38 such bytecodes into a
    declined n=1000 decode)."""
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count


#: one lone fast-path NULLPROC call, counted on CPython 3.11: 372
#: (UDP) and 436 (TCP), the engine calling the codec-free half of
#: ``build_call`` / ``parse_reply`` itself (391 and 455 through the
#: public methods, which look the codec up again); the budgets are
#: those plus 5%.  Through the engine's table, send group and drain
#: they read 1 016 and 1 048 (through ``select`` 1 120 and 1 150).
PYOPS_BUDGET = {UdpClient: 391, TcpClient: 458}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="exact bytecode counts compare within one"
                           " CPython minor version (counted on 3.11)")
@pairs
def test_a_lone_null_call_stays_inside_its_bytecode_budget(server_cls,
                                                           client_cls):
    with server_cls(registry(), fastpath=True) as server:
        with client_cls("127.0.0.1", server.port, PROG, VERS,
                        fastpath=True) as client:
            for _ in range(5):  # warm the header templates
                client.null_call()
            counts = {count_pyops(client.null_call) for _ in range(3)}
    assert len(counts) == 1, counts
    count, = counts
    assert count <= PYOPS_BUDGET[client_cls], (
        f"a lone {client_cls.__name__} NULLPROC call runs {count}"
        f" client bytecodes > {PYOPS_BUDGET[client_cls]}: the inline"
        " path gained per-call work")


# -- what a specialized n=20 round trip costs, at each end --------------------

only_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="exact bytecode counts compare within one CPython minor"
           " version (counted on 3.11)")

N = 20

#: counted on CPython 3.11: a lone specialized n=20 call runs 414
#: client bytecodes (494 with the fused entries' struct glue, 646
#: before the straight-line residuals, 1 064 through the engine's
#: table), and serving it takes ``handle_once`` 602 (644 with the glue,
#: 881 before the straight-line residuals, 1 006 before the staged
#: path), a NULLPROC 374 (1 218 through the generic reply encoder); the
#: budgets are the counts plus 5%
SPEC_CALL_BUDGET = 434
HANDLE_ONCE_BUDGET = {"spec": 632, "null": 392}


@pytest.fixture(scope="module")
def workload():
    """The paper workload's pipeline, its n=20 argument, and a registry
    factory serving it."""
    pipeline = SpecializationPipeline(WORKLOAD_IDL,
                                      impl_sources=[WORKLOAD_IMPL])
    stubs = pipeline.stubs

    def make_registry():
        reg = SvcRegistry(fastpath=True, drc=True)

        class Impl:
            def SENDRECV(self, args):
                return stubs.intarr(vals=[v + 1 for v in args.vals])

        stubs.register_XCHG_PROG_1(reg, Impl())
        return reg

    lens = {"arg_lens": {"vals": N}, "res_lens": {"vals": N}}
    return pipeline, stubs.intarr(vals=list(range(N))), make_registry, lens


def spec_server(workload):
    pipeline, _args, make_registry, lens = workload
    return pipeline.specialize_server("SENDRECV", fallback=make_registry(),
                                      **lens)


@only_311
def test_a_lone_specialized_call_stays_inside_its_bytecode_budget(workload):
    pipeline, args, _make_registry, lens = workload
    xdr = pipeline.stubs.xdr_intarr
    with UdpServer(spec_server(workload), fastpath=True) as server:
        with UdpClient("127.0.0.1", server.port, pipeline.prog_number,
                       pipeline.vers_number, fastpath=True) as client:
            pipeline.specialize_client("SENDRECV", **lens).install(client)
            lone = functools.partial(client.call, 1, args, xdr, xdr)
            for _ in range(5):
                lone()
            counts = {count_pyops(lone) for _ in range(3)}
    assert len(counts) == 1, counts
    count, = counts
    assert count <= SPEC_CALL_BUDGET, (
        f"a lone specialized n={N} UdpClient.call runs {count} client"
        f" bytecodes > {SPEC_CALL_BUDGET}: the lone path gained work")


def served_pyops(dispatcher, request, warm=5):
    """Bytecodes ``UdpServer.handle_once`` runs serving ``request``
    under fresh xids, driven on this thread (the server is not
    started), once ``warm`` requests warmed its templates and caches."""
    server = UdpServer(dispatcher, fastpath=True)
    peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    peer.bind(("127.0.0.1", 0))
    counts = set()
    try:
        for n in range(warm + 3):
            peer.sendto(struct.pack(">I", 0x1000 + n) + request[4:],
                        ("127.0.0.1", server.port))
            if n < warm:
                assert server.handle_once()
            else:
                counts.add(count_pyops(server.handle_once))
            assert peer.recv(65536)[:4] == struct.pack(">I", 0x1000 + n)
    finally:
        peer.close()
        server.stop()
    assert len(counts) == 1, counts
    return counts.pop()


@only_311
@pytest.mark.parametrize("kind", ["spec", "null"])
def test_a_served_datagram_stays_inside_its_bytecode_budget(workload, kind):
    pipeline, args, make_registry, _lens = workload
    client = RpcClient(pipeline.prog_number, pipeline.vers_number)
    if kind == "spec":
        dispatcher = spec_server(workload)
        request = client.build_call(1, 1, args, pipeline.stubs.xdr_intarr)
    else:
        dispatcher = make_registry()
        request = client.build_call(1, 0, None, None)
    count = served_pyops(dispatcher, bytes(request))
    assert count <= HANDLE_ONCE_BUDGET[kind], (
        f"UdpServer.handle_once serving a {kind} call runs {count}"
        f" bytecodes > {HANDLE_ONCE_BUDGET[kind]}: the staged server"
        " path gained per-request work")


#: counted on CPython 3.11: once the duplicate-request cache holds its
#: capacity (256) every store evicts the oldest entry; serving an n=20
#: call then takes ``handle_once`` 628 bytecodes (670 with the fused
#: entry's struct glue, 707 while each store scanned for claims); the
#: budget is the count plus 5%
AT_CAPACITY_BUDGET = 659


@only_311
def test_a_served_datagram_at_drc_capacity_evicts_in_constant_time(workload):
    pipeline, args, _make_registry, _lens = workload
    dispatcher = spec_server(workload)
    request = RpcClient(pipeline.prog_number, pipeline.vers_number
                        ).build_call(1, 1, args, pipeline.stubs.xdr_intarr)
    drc = dispatcher.registry.drc
    count = served_pyops(dispatcher, bytes(request),
                         warm=drc.capacity + 5)
    assert len(drc) == drc.capacity and drc.evictions > 0
    assert count <= AT_CAPACITY_BUDGET, (
        f"UdpServer.handle_once serving a spec call at DRC capacity runs"
        f" {count} bytecodes > {AT_CAPACITY_BUDGET}: the DRC's eviction"
        " gained per-store work")


#: counted on CPython 3.11: the codec an ``OnlineSpecializer`` manages,
#: holding one variant at n=20, encodes in 87 bytecodes and decodes in
#: 105, its fused entries the residual functions themselves (121 and
#: 151 with their struct glue; 152 and 177 through a per-call count and
#: table lookup, before its swaps published methods specialized to one
#: variant); the budgets are the counts plus 5%.  The unmanaged
#: ``install`` path is the ledger's ``rpc.client.{encode,decode}_pyops.
#: spec``.
MANAGED_CODEC_BUDGET = {"encode": 91, "decode": 110}


@only_311
def test_a_managed_codec_stays_inside_its_bytecode_budget(workload):
    pipeline, args, make_registry, lens = workload
    xdr = pipeline.stubs.xdr_intarr
    client = RpcClient(pipeline.prog_number,
                       pipeline.vers_number).enable_fastpath()
    pipeline.specialize_client("SENDRECV", **lens).install(client)
    codec = OnlineSpecializer(pipeline, enabled=True).attach_client(
        client, "SENDRECV")
    assert codec.lens == [N] and codec.profile is not None
    reply = make_registry().dispatch_bytes(
        client.build_call(7, 1, args, xdr))
    probes = {"encode": lambda: client.build_call(7, 1, args, xdr),
              "decode": lambda: client.parse_reply(reply, 7, 1, xdr)}
    for what, probe in probes.items():
        for _ in range(5):
            probe()
        counts = {count_pyops(probe) for _ in range(3)}
        assert len(counts) == 1, counts
        count, = counts
        assert count <= MANAGED_CODEC_BUDGET[what], (
            f"a managed n={N} client codec's {what} runs {count}"
            f" bytecodes > {MANAGED_CODEC_BUDGET[what]}: its published"
            " path gained per-call work")
    assert codec.violations == 0 and codec.profile.calls == 0


#: counted on CPython 3.11: what an installed n=20 codec adds to a call
#: it declines — its entry's length test — before the client's
#: codec-free half codes it: 38 bytecodes on encode and 33 on decode,
#: whatever the length (96 / 88 while a decline went back through the
#: table, which counted the arguments, looked the variant up and ran it
#: again; 1 020 more on encode at n=300 while a decline encoded the
#: header through the XDR micro-layers, not the template); the budget
#: is the larger plus 5%
DECLINE_BUDGET = 40


@only_311
@pytest.mark.parametrize("n", [300, 1000])
def test_a_declined_call_is_coded_as_with_no_codec(workload, n):
    pipeline, _args, make_registry, lens = workload
    xdr = pipeline.stubs.xdr_intarr
    args = pipeline.stubs.intarr(vals=list(range(n)))
    plain, coded = (RpcClient(pipeline.prog_number, pipeline.vers_number)
                    .enable_fastpath() for _ in range(2))
    pipeline.specialize_client("SENDRECV", **lens).install(coded)
    reply = make_registry().dispatch_bytes(plain.build_call(7, 1, args, xdr))
    probes = {"encode": lambda client: client.build_call(7, 1, args, xdr),
              "decode": lambda client: client.parse_reply(reply, 7, 1, xdr)}
    for what, probe in probes.items():
        assert probe(coded) == probe(plain)
        counts = [count_pyops(functools.partial(probe, client))
                  for client in (coded, plain)]
        assert counts[0] - counts[1] <= DECLINE_BUDGET, (
            f"an n={n} call the n={N} codec declines runs {counts[0]}"
            f" {what} bytecodes, {counts[1]} with no codec: its decline"
            " path codes it otherwise")
