"""One client-conformance table: every client name runs the one engine.

Deadlines, retransmission, the retry budget, xid matching and per-call
stats are written once, in :class:`repro.rpc.clnt_core.CallEngine`; a
transport only moves messages.  Each row below is one behaviour of the
engine, driven against a scripted raw-socket peer through every client
name — ``UdpClient``, ``MuxUdpClient``, ``TcpClient``, ``MuxTcpClient``
— by ``call()`` and by ``call_async().result()``, with the fast path
off and on, with observability off and on.  What a cell observes is
the typed outcome, the call's :class:`CallStats` and the client's
lifetime counters; a name or a path that grows its own copy of an
engine behaviour, or drops one, shows up as a cell that differs.

Below the table: the two defects the second engine had drifted into,
the single-reader property of the driver role, and "no thread at
window 1".
"""

import socket
import struct
import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import (
    FaultInjected,
    RpcConnectionError,
    RpcDeadlineExceeded,
    RpcDeniedError,
    RpcProtocolError,
    RpcRetryBudgetExhausted,
    RpcTimeoutError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MemorySink, Tracer
from repro.rpc import (
    Deadline,
    FaultPlan,
    MuxTcpClient,
    MuxUdpClient,
    RetryBudget,
    SvcRegistry,
    TcpClient,
    TcpServer,
    UdpClient,
    UdpServer,
)
from repro.rpc.fastpath import ReplyHeaderTemplate
from repro.rpc.record import RecordAssembler, mark_record
from repro.xdr import xdr_u_long

PROG, VERS, PROC = 0x20007b7b, 1, 1

CLIENTS = [UdpClient, MuxUdpClient, TcpClient, MuxTcpClient]

#: the schedule every UDP row runs under: windows 30, 60, 120 ms (a
#: row's exact schedule survives a host stall of up to ~100 ms)
UDP_TIMING = {"timeout": 0.2, "wait": 0.03, "max_wait": 0.12, "jitter": 0.0}
TCP_TIMING = {"timeout": 0.12}

_REPLY_TAIL = ReplyHeaderTemplate().prefix[4:]


def family(cls):
    return "udp" if issubclass(cls, UdpClient) else "tcp"


def success(xid, value):
    """A well-formed accepted-SUCCESS reply carrying one u_long."""
    return struct.pack(">I", xid) + _REPLY_TAIL + struct.pack(">I", value)


def accepted(xid, stat):
    """An accepted reply with a non-SUCCESS ``accept_stat``."""
    return struct.pack(">6I", xid, 1, 0, 0, 0, stat)


def denied(xid):
    """MSG_DENIED / AUTH_ERROR / AUTH_BADCRED."""
    return struct.pack(">5I", xid, 1, 1, 1, 1)


def xid_of(message):
    return int.from_bytes(message[:4], "big")


class Peer:
    """A scripted server on a raw socket.  ``script(send, n, xid)`` is
    run for the ``n``-th request received (1-based); ``send(message)``
    answers on the framing of the transport.  ``script=None`` is a
    black hole."""

    def __init__(self, kind, script=None):
        self.kind, self.script = kind, script
        self.requests = []
        self.seen = threading.Semaphore(0)
        stream = kind == "tcp"
        self.sock = socket.socket(
            socket.AF_INET,
            socket.SOCK_STREAM if stream else socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        if stream:
            self.sock.listen(4)
        self.sock.settimeout(0.05)
        self.port = self.sock.getsockname()[1]
        self._stop = threading.Event()
        self._conns = []
        self._thread = threading.Thread(
            target=self._serve_tcp if stream else self._serve_udp,
            daemon=True)
        self._thread.start()

    def _got(self, message, send):
        self.requests.append(bytes(message))
        self.seen.release()
        if self.script is not None:
            self.script(send, len(self.requests), xid_of(message))

    def _serve_udp(self):
        while not self._stop.is_set():
            try:
                message, addr = self.sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            self._got(message, lambda reply, addr=addr:
                      self.sock.sendto(reply, addr))

    def _serve_tcp(self):
        while not self._stop.is_set():
            try:
                conn, _addr = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._conns.append(conn)
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True).start()

    def _serve_conn(self, conn):
        assembler = RecordAssembler()

        def send(reply, raw=False):
            conn.sendall(reply if raw else mark_record(reply))

        send.close = conn.close
        try:
            conn.settimeout(0.05)
            while not self._stop.is_set():
                try:
                    chunk = conn.recv(1 << 16)
                except socket.timeout:
                    continue
                if not chunk:
                    return
                for record in assembler.feed(chunk):
                    self._got(record, send)
        except OSError:
            return  # the row closed the connection under us

    def wait_request(self, timeout=2.0):
        assert self.seen.acquire(timeout=timeout), "peer saw no request"

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self.sock.close()
        for conn in self._conns:
            conn.close()
        self._thread.join(timeout=2.0)


@pytest.fixture(params=["obs-off", "obs-on"])
def obs_mode(request):
    """Each row runs with observability off and on (private
    instruments and an in-memory trace): the instrument must not
    change the behaviour."""
    prev = (obs.enabled, obs.registry, obs.tracer)
    obs.registry, obs.tracer = MetricsRegistry(), Tracer()
    sink = MemorySink()
    obs.tracer.add_sink(sink)
    obs.enabled = request.param == "obs-on"
    yield sink if obs.enabled else None
    obs.enabled, obs.registry, obs.tracer = prev


table = pytest.mark.parametrize("cls", CLIENTS, ids=lambda c: c.__name__)
modes = pytest.mark.parametrize("mode", ["call", "async"])
paths = pytest.mark.parametrize("fastpath", [False, True],
                                ids=["generic", "fastpath"])


def make_client(cls, peer, fastpath, **overrides):
    timing = dict(UDP_TIMING if family(cls) == "udp" else TCP_TIMING)
    timing.update(overrides)
    return cls("127.0.0.1", peer.port, PROG, VERS, fastpath=fastpath,
               **timing)


def drive(client, mode, value=41, deadline=None):
    """One call by ``mode``; returns ``(outcome, CallStats or None)``
    where outcome is ``("ok", value)`` or the error's type name."""
    handle = None
    try:
        if mode == "call":
            result = client.call(PROC, value, xdr_u_long, xdr_u_long,
                                 deadline=deadline)
        else:
            handle = client.call_async(PROC, value, xdr_u_long, xdr_u_long,
                                       deadline=deadline)
            result = handle.result(5.0)
        outcome = ("ok", result)
    except Exception as exc:  # noqa: BLE001 - the cell records its type
        outcome = type(exc).__name__
    if handle is not None:
        return outcome, handle.stats
    return outcome, client.last_call_stats


def stats_of(stats):
    return (stats.attempts, stats.retransmissions,
            [round(window, 2) for window in stats.backoff_schedule],
            stats.stale_replies, stats.garbage_datagrams)


def lifetime(client):
    return {"calls": client.calls_completed,
            "retrans": client.retransmissions,
            "stale": client.stale_replies,
            "garbage": client.garbage_datagrams,
            "unknown": client.unknown_xids}


def settled(client, **want):
    """Lifetime counters, once the driver has folded them (a handle
    resolves before a straggler datagram is counted)."""
    end = time.monotonic() + 2.0
    while time.monotonic() < end:
        got = lifetime(client)
        if all(got[key] == value for key, value in want.items()):
            break
        time.sleep(0.005)
    got = lifetime(client)
    return {key: got[key] for key in want}


# -- the table ---------------------------------------------------------------


@table
@modes
@paths
def test_reply(cls, mode, fastpath, obs_mode):
    with Peer(family(cls),
              lambda send, n, xid: send(success(xid, 42))) as peer:
        with make_client(cls, peer, fastpath) as client:
            outcome, stats = drive(client, mode)
            assert outcome == ("ok", 42)
            first = [0.03] if family(cls) == "udp" else []
            assert stats_of(stats) == (1, 0, first, 0, 0)
            assert lifetime(client) == {"calls": 1, "retrans": 0,
                                        "stale": 0, "garbage": 0,
                                        "unknown": 0}
            # a lone call is the raw message on UDP, one record on TCP
            request = peer.requests[0]
            assert struct.unpack_from(">5I", request, 4) == (
                0, 2, PROG, VERS, PROC)
    if obs_mode is not None:
        label = family(cls)
        tier = "fastpath" if fastpath else "generic"
        counters = obs.collect()["counters"]
        assert counters[
            f"rpc.client.calls{{tier={tier},transport={label}}}"] == 1
        assert counters[f"rpc.client.attempts{{transport={label}}}"] == 1
        names = [record["name"] for record in obs_mode.records]
        if mode == "call":
            # the serial tree, whichever class made the call
            assert sorted(names) == ["client.call", "client.decode",
                                     "client.encode", "client.send",
                                     "client.wait"]
            root = [r for r in obs_mode.records
                    if r["name"] == "client.call"][0]
            assert root["outcome"] == "ok" and root["transport"] == label
        else:
            assert names == ["mux.flush"]
            assert counters[f"rpc.mux.calls{{transport={label}}}"] == 1


@table
@modes
@paths
def test_stale_xid_is_counted_and_dropped(cls, mode, fastpath, obs_mode):
    def script(send, n, xid):
        send(success(xid ^ 0x5A5A, 99))
        send(success(xid, 42))

    with Peer(family(cls), script) as peer:
        with make_client(cls, peer, fastpath) as client:
            outcome, stats = drive(client, mode)
            assert outcome == ("ok", 42)
            assert stats_of(stats)[:2] == (1, 0)
            assert lifetime(client) == {"calls": 1, "retrans": 0,
                                        "stale": 1, "garbage": 0,
                                        "unknown": 1}


@table
@modes
@paths
def test_garbage_is_counted_and_dropped(cls, mode, fastpath, obs_mode):
    def script(send, n, xid):
        send(b"\x01\x02")  # too short to carry an xid
        send(success(xid, 42))

    with Peer(family(cls), script) as peer:
        with make_client(cls, peer, fastpath) as client:
            outcome, _stats = drive(client, mode)
            assert outcome == ("ok", 42)
            assert lifetime(client) == {"calls": 1, "retrans": 0,
                                        "stale": 0, "garbage": 1,
                                        "unknown": 0}


@table
@modes
@paths
def test_truncated_reply(cls, mode, fastpath, obs_mode):
    """Undecodable under our xid: a datagram transport retransmits and
    recovers; a stream cannot, so the call resolves typed."""
    def script(send, n, xid):
        send(success(xid, 42)[:10] if n == 1 else success(xid, 42))

    with Peer(family(cls), script) as peer:
        with make_client(cls, peer, fastpath) as client:
            outcome, stats = drive(client, mode)
            if family(cls) == "udp":
                assert outcome == ("ok", 42)
                assert stats_of(stats) == (2, 1, [0.03, 0.06], 0, 1)
                assert lifetime(client)["retrans"] == 1
            else:
                assert outcome == RpcProtocolError.__name__
                assert stats_of(stats) == (1, 0, [], 0, 1)
            assert lifetime(client)["garbage"] == 1


@table
@modes
@paths
@pytest.mark.parametrize("verdict", ["denied", "prog_unavail", "shed"])
def test_server_verdict_resolves_typed(cls, mode, fastpath, obs_mode,
                                       verdict):
    replies = {"denied": denied,
               "prog_unavail": lambda xid: accepted(xid, 1),
               "shed": lambda xid: accepted(xid, 5)}  # SYSTEM_ERR
    with Peer(family(cls),
              lambda send, n, xid: send(replies[verdict](xid))) as peer:
        with make_client(cls, peer, fastpath) as client:
            outcome, stats = drive(client, mode)
            assert outcome == RpcDeniedError.__name__
            assert stats_of(stats)[:2] == (1, 0)
            assert lifetime(client)["calls"] == 1
    if obs_mode is not None:
        counters = obs.collect()["counters"]
        assert counters[f"rpc.client.errors{{error=RpcDeniedError,"
                        f"transport={family(cls)}}}"] == 1


@table
@modes
@paths
def test_black_hole_times_out_on_the_pinned_schedule(cls, mode, fastpath,
                                                     obs_mode):
    with Peer(family(cls)) as peer:
        with make_client(cls, peer, fastpath) as client:
            started = time.monotonic()
            outcome, stats = drive(client, mode)
            elapsed = time.monotonic() - started
            assert outcome == RpcTimeoutError.__name__
            if family(cls) == "udp":
                # sends at 0, 30, 90 ms; the third is the final try and
                # still listens for its whole 120 ms window
                assert stats_of(stats) == (3, 2, [0.03, 0.06, 0.12], 0, 0)
                assert elapsed >= 0.21 - 0.01
                assert len({bytes(r) for r in peer.requests}) == 1
            else:
                assert stats_of(stats) == (1, 0, [], 0, 0)
                assert elapsed >= 0.12 - 0.01
            assert lifetime(client) == {
                "calls": 1, "retrans": stats.retransmissions, "stale": 0,
                "garbage": 0, "unknown": 0}
    if obs_mode is not None:
        counters = obs.collect()["counters"]
        label = family(cls)
        assert counters[f"rpc.client.timeouts{{transport={label}}}"] == 1
        assert (counters[f"rpc.client.attempts{{transport={label}}}"]
                == stats.attempts)


@table
@modes
@paths
def test_expired_deadline_fails_before_anything_is_sent(cls, mode, fastpath,
                                                        obs_mode):
    with Peer(family(cls)) as peer:
        with make_client(cls, peer, fastpath) as client:
            outcome, _stats = drive(client, mode, deadline=Deadline(0.0))
            assert outcome == RpcDeadlineExceeded.__name__
            assert lifetime(client)["calls"] == 0
            assert peer.requests == []


@table
@modes
@paths
def test_deadline_mid_call(cls, mode, fastpath, obs_mode):
    with Peer(family(cls)) as peer:
        with make_client(cls, peer, fastpath, timeout=5.0) as client:
            started = time.monotonic()
            outcome, stats = drive(client, mode, deadline=0.1)
            elapsed = time.monotonic() - started
            assert outcome == RpcDeadlineExceeded.__name__
            assert 0.1 - 0.01 <= elapsed < 0.5
            if family(cls) == "udp":
                # 30 and 60 ms windows, then a final try clamped to
                # the 10 ms the deadline has left (when the last one
                # goes out depends on the host: the shape is pinned)
                schedule = stats.backoff_schedule
                assert stats.attempts == len(schedule) >= 2
                assert stats.retransmissions == stats.attempts - 1
                assert schedule[0] == pytest.approx(0.03)
                assert sum(schedule) <= 0.1 + 0.005
            else:
                assert stats_of(stats) == (1, 0, [], 0, 0)
    if obs_mode is not None:
        counters = obs.collect()["counters"]
        assert counters[f"rpc.client.deadline_exceeded"
                        f"{{transport={family(cls)}}}"] == 1


@pytest.mark.parametrize("cls", [UdpClient, MuxUdpClient],
                         ids=lambda c: c.__name__)
@modes
@paths
def test_dry_retry_budget_fails_the_retransmission(cls, mode, fastpath,
                                                   obs_mode):
    budget = RetryBudget(ratio=0.0, burst=1.0, min_rate=0.0)
    budget.tokens = 0.0
    with Peer("udp") as peer:
        with make_client(cls, peer, fastpath,
                         retry_budget=budget) as client:
            outcome, stats = drive(client, mode)
            assert outcome == RpcRetryBudgetExhausted.__name__
            assert stats_of(stats) == (1, 0, [0.03], 0, 0)
            assert len(peer.requests) == 1
            assert budget.calls == 1 and budget.denied == 1


class _FaultOnSend:
    """A datagram socket whose sends raise the injected-fault error
    (a stream gets the same from ``FaultPlan(drop=1.0)``)."""

    def __init__(self, sock):
        self._sock = sock

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def sendto(self, data, addr):
        raise FaultInjected("injected send fault")


@table
@modes
@paths
def test_fault_injected_resolves_the_call(cls, mode, fastpath, obs_mode):
    with Peer(family(cls)) as peer:
        overrides = ({} if family(cls) == "udp"
                     else {"fault_plan": FaultPlan(seed=43, drop=1.0)})
        with make_client(cls, peer, fastpath, **overrides) as client:
            if family(cls) == "udp":
                client.sock = _FaultOnSend(client.sock)
            outcome, stats = drive(client, mode)
            assert outcome == FaultInjected.__name__
            assert stats_of(stats) == (0, 0, [], 0, 0)
            assert lifetime(client)["calls"] == 1


@table
@modes
@paths
def test_connection_death(cls, mode, fastpath, obs_mode):
    """The socket dies under a call: typed, never a bare ``OSError``,
    and the client stays down — typed — until revived."""
    def script(send, n, xid):
        send.close()

    with Peer(family(cls), script if family(cls) == "tcp" else None) as peer:
        with make_client(cls, peer, fastpath) as client:
            if family(cls) == "udp":
                client.sock.close()
            outcome, _stats = drive(client, mode)
            assert outcome == RpcConnectionError.__name__
            assert lifetime(client)["calls"] == 1
            again, _stats = drive(client, mode)
            assert again == RpcConnectionError.__name__
            assert lifetime(client)["calls"] == 1  # refused at the door
            if family(cls) == "tcp":
                peer.script = lambda send, n, xid: send(success(xid, 42))
                client.reconnect()
                assert drive(client, mode)[0] == ("ok", 42)


@table
@modes
@paths
def test_close_with_a_call_in_flight(cls, mode, fastpath, obs_mode):
    with Peer(family(cls)) as peer:
        client = make_client(cls, peer, fastpath, timeout=5.0, **(
            {"wait": 5.0, "max_wait": 5.0} if family(cls) == "udp" else {}))
        results = []
        caller = threading.Thread(
            target=lambda: results.append(drive(client, mode)), daemon=True)
        caller.start()
        peer.wait_request()
        client.close()
        caller.join(timeout=3.0)
        assert not caller.is_alive()
        (outcome, stats), = results
        assert outcome == RpcConnectionError.__name__
        assert stats_of(stats)[:2] == (1, 0)
        assert lifetime(client)["calls"] == 1


@table
@modes
@paths
def test_call_after_close_is_typed(cls, mode, fastpath, obs_mode):
    """Bugfix: the two serial clients leaked ``OSError: [Errno 9] Bad
    file descriptor`` here, where the mux ones raised typed."""
    with Peer(family(cls),
              lambda send, n, xid: send(success(xid, 42))) as peer:
        client = make_client(cls, peer, fastpath)
        assert drive(client, mode)[0] == ("ok", 42)
        client.close()
        with pytest.raises(RpcConnectionError, match="is closed"):
            if mode == "call":
                client.call(PROC, 1, xdr_u_long, xdr_u_long)
            else:
                client.call_async(PROC, 1, xdr_u_long, xdr_u_long)
        client.close()  # idempotent


# -- what the second engine had drifted into ---------------------------------


@pytest.mark.parametrize("cls", [TcpClient, MuxTcpClient],
                         ids=lambda c: c.__name__)
def test_timeout_mid_record_keeps_the_stream_in_frame(cls):
    """Bugfix: the peer sends 10 bytes of a reply, the rest after the
    call timed out.  ``TcpClient`` used to discard the partial read, so
    the next call parsed the record's tail as a fragment header and was
    lost too; reassembly state now outlives the call and the late reply
    is dropped as an unknown xid."""
    late = []

    def script(send, n, xid):
        if n == 1:
            record = mark_record(success(xid, 42))
            send(record[:10], raw=True)
            late.append(lambda: send(record[10:], raw=True))
        else:
            send(success(xid, 7))

    with Peer("tcp", script) as peer:
        with cls("127.0.0.1", peer.port, PROG, VERS, timeout=0.1) as client:
            with pytest.raises(RpcTimeoutError):
                client.call(PROC, 41, xdr_u_long, xdr_u_long)
            late[0]()
            assert client.call(PROC, 6, xdr_u_long, xdr_u_long) == 7
            assert settled(client, unknown=1, stale=1) == {
                "unknown": 1, "stale": 1}


# -- the driver role ---------------------------------------------------------


class _CountingSocket:
    """Counts threads inside ``recv_into`` at once."""

    def __init__(self, sock):
        self._sock = sock
        self._lock = threading.Lock()
        self.readers = 0
        self.max_readers = 0
        self.reads = 0

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def recv_into(self, buffer, *args):
        with self._lock:
            self.readers += 1
            self.reads += 1
            self.max_readers = max(self.max_readers, self.readers)
        try:
            time.sleep(0)  # invite a switch while "in" the read
            return self._sock.recv_into(buffer, *args)
        finally:
            with self._lock:
                self.readers -= 1


def _registry():
    registry = SvcRegistry()
    registry.register(PROG, VERS, PROC, lambda v: (v + 1) & 0xFFFFFFFF,
                      xdr_u_long, xdr_u_long)
    return registry


def test_the_socket_has_one_reader_at_any_time():
    """N threads in ``call()`` and one in ``call_async`` on one
    ``MuxUdpClient``: whoever drives, never two concurrent receives,
    and no reply is lost."""
    threads, per_thread, errors, results = 4, 40, [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with UdpServer(_registry(), workers=2) as server:
            client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=10.0, wait=0.05)
            client.sock = counting = _CountingSocket(client.sock)

            def sync_caller(base):
                try:
                    for i in range(per_thread):
                        value = client.call(PROC, base + i, xdr_u_long,
                                            xdr_u_long)
                        results.append(value - (base + i))
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

            def async_caller():
                try:
                    handles = [client.call_async(PROC, 5000 + i, xdr_u_long,
                                                 xdr_u_long)
                               for i in range(per_thread)]
                    results.extend(handle.result(10.0) - (5000 + i)
                                   for i, handle in enumerate(handles))
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

            workers = [threading.Thread(target=sync_caller, args=(k * 1000,),
                                        daemon=True) for k in range(threads)]
            workers.append(threading.Thread(target=async_caller, daemon=True))
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
            assert not any(worker.is_alive() for worker in workers)
            client.close()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert results == [1] * ((threads + 1) * per_thread)
    assert counting.reads > 0 and counting.max_readers == 1
    assert client.calls_completed == (threads + 1) * per_thread


def test_an_inline_drivers_leftovers_go_to_the_demux_thread():
    """A caller driving its own call inline also sends what others
    queue meanwhile; when its call resolves it leaves, and whatever is
    still pending is resolved by the demux thread."""
    answer_only = {"value": 1}

    def script(send, n, xid):
        # answer the inline driver's call only once the async call's
        # request has arrived too, and never the async call's itself
        if n == 2:
            send(success(xid_of(peer.requests[0]), answer_only["value"]))

    with Peer("udp", script) as peer:
        client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS,
                              timeout=5.0, wait=2.0, jitter=0.0)
        try:
            inline = []
            caller = threading.Thread(target=lambda: inline.append(
                client.call(PROC, 1, xdr_u_long, xdr_u_long)), daemon=True)
            caller.start()
            peer.wait_request()           # the inline driver is waiting
            leftover = client.call_async(PROC, 2, xdr_u_long, xdr_u_long)
            peer.wait_request()           # ... and sent the async call
            caller.join(timeout=3.0)
            assert inline == [1] and not caller.is_alive()
            assert not leftover.done()
            assert client.inflight == 1
            peer.sock.sendto(success(leftover.xid, 3),
                             ("127.0.0.1", client.sock.getsockname()[1]))
            assert leftover.result(3.0) == 3
        finally:
            client.close()


def test_no_thread_at_window_one():
    """Synchronous calls drive themselves: no demux thread, no wake
    pair, however many are made."""
    with UdpServer(_registry()) as udp, TcpServer(_registry()) as tcp:
        clients = [UdpClient("127.0.0.1", udp.port, PROG, VERS),
                   TcpClient("127.0.0.1", tcp.port, PROG, VERS)]
        try:
            for client in clients:  # the TCP server's connection thread
                assert client.call(PROC, 0, xdr_u_long, xdr_u_long) == 1
            before = set(threading.enumerate())
            for client in clients:
                for i in range(100):
                    assert client.call(PROC, i, xdr_u_long,
                                       xdr_u_long) == i + 1
                assert client._wake_r is None
            assert set(threading.enumerate()) == before
        finally:
            for client in clients:
                client.close()
