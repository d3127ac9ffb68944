"""One server-conformance table: every transport runs the one core.

Admission, shedding, drain and the lifecycle are written once, in
:class:`repro.rpc.svc_core.RpcServer`; a transport only moves
messages.  Each row below is one behaviour of the core, driven over
raw sockets through every server class — ``UdpServer``, ``TcpServer``,
``MuxTcpServer`` — inline and (where accepted) with ``workers=2``,
with observability off and on.  A transport that grows its own copy of
a core behaviour, or drops one, shows up as a cell that differs.
"""

import socket
import struct
import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import RpcError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.rpc import (
    FaultPlan,
    MuxTcpServer,
    MuxUdpServer,
    SvcRegistry,
    TcpClient,
    TcpServer,
    UdpClient,
    UdpServer,
)
from repro.rpc.message import AcceptStat
from repro.rpc.record import (
    pack_batch,
    read_record,
    unpack_batch,
    write_record,
)
from repro.rpc.resilience import HEALTH_PROC_STATUS, HEALTH_PROG, HEALTH_VERS
from repro.xdr import xdr_array, xdr_u_long

PROG, VERS = 0x20007a7a, 1
PROC_INC, PROC_HOLD, PROC_SLEEP_MS, PROC_FILL = 1, 2, 3, 4

_WORD = struct.Struct(">I")

SERVERS = [
    pytest.param(UdpServer, {}, id="udp-inline"),
    pytest.param(UdpServer, {"workers": 2}, id="udp-workers"),
    pytest.param(TcpServer, {}, id="tcp-inline"),
    pytest.param(MuxTcpServer, {}, id="muxtcp-inline"),
    pytest.param(MuxTcpServer, {"workers": 2}, id="muxtcp-workers"),
]
table = pytest.mark.parametrize("cls, options", SERVERS)


@pytest.fixture(params=["obs-off", "obs-on"])
def obs_mode(request):
    """Each row runs with observability off and on (private
    instruments): the instrument must not change the behaviour."""
    prev = (obs.enabled, obs.registry, obs.tracer)
    obs.registry, obs.tracer = MetricsRegistry(), Tracer()
    obs.enabled = request.param == "obs-on"
    yield request.param
    obs.enabled, obs.registry, obs.tracer = prev


def xdr_words(xdrs, value):
    return xdr_array(xdrs, value, 1 << 16, xdr_u_long)


class Service:
    """The test program, with the hooks the rows steer it by."""

    def __init__(self, bufsize=8800):
        self.registry = registry = SvcRegistry(bufsize=bufsize)
        self.invocations = []
        #: PROC_HOLD parks its thread on ``release`` after bumping
        #: ``entered`` — how a row keeps workers or a slot busy
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()

        def inc(value):
            self.invocations.append(value)
            return (value + 1) & 0xFFFFFFFF

        def hold(value):
            self.entered.release()
            self.release.wait(timeout=10.0)
            return value

        def sleep_ms(value):
            time.sleep(value / 1000.0)
            return value

        for proc, handler, xdr_res in (
                (PROC_INC, inc, xdr_u_long),
                (PROC_HOLD, hold, xdr_u_long),
                (PROC_SLEEP_MS, sleep_ms, xdr_u_long),
                (PROC_FILL, lambda n: list(range(n)), xdr_words)):
            registry.register(PROG, VERS, proc, handler,
                              xdr_args=xdr_u_long, xdr_res=xdr_res)
        registry.install_health()


def call_bytes(xid, value, proc=PROC_INC, prog=PROG, vers=VERS):
    """One well-formed call message (null auth), one u_long argument."""
    return struct.pack(">10I", xid, 0, 2, prog, vers, proc,
                       0, 0, 0, 0) + _WORD.pack(value)


def health_bytes(xid):
    return struct.pack(">10I", xid, 0, 2, HEALTH_PROG, HEALTH_VERS,
                       HEALTH_PROC_STATUS, 0, 0, 0, 0)


def xid_of(reply):
    return _WORD.unpack_from(reply, 0)[0]


def accept_stat(reply):
    return _WORD.unpack_from(reply, 20)[0]


class Wire:
    """A raw client socket speaking one transport's framing."""

    def __init__(self, server):
        self.udp = isinstance(server, UdpServer)
        address = ("127.0.0.1", server.port)
        if self.udp:
            self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self.sock.connect(address)
        else:
            self.sock = socket.create_connection(address)
        self.sock.settimeout(5.0)

    def send(self, message):
        if self.udp:
            self.sock.send(message)
        else:
            write_record(self.sock, message)

    def recv(self):
        return self.sock.recv(1 << 17) if self.udp else \
            read_record(self.sock)

    def exchange(self, message):
        self.send(message)
        return self.recv()

    def recv_by_xid(self, count):
        replies = [self.recv() for _ in range(count)]
        return {xid_of(reply): reply for reply in replies}

    def close(self):
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def park_workers(service, wire, count):
    """Park ``count`` serving threads in PROC_HOLD (xids 1..count),
    one at a time so that none of the calls waits in a queue."""
    for xid in range(1, count + 1):
        wire.send(call_bytes(xid, xid, proc=PROC_HOLD))
        assert service.entered.acquire(timeout=5.0)


# -- the table ---------------------------------------------------------------


@table
def test_replies_identical_to_dispatch_bytes(cls, options, obs_mode):
    service, reference = Service(), Service()
    messages = [
        call_bytes(1, 41),
        call_bytes(2, 0xFFFFFFFF),
        call_bytes(3, 7, proc=PROC_FILL),
        call_bytes(4, 1, proc=99),            # PROC_UNAVAIL
        call_bytes(5, 1, prog=PROG + 1),      # PROG_UNAVAIL
        call_bytes(6, 1, vers=VERS + 1),      # PROG_MISMATCH
        call_bytes(7, 1)[:-2],                # GARBAGE_ARGS
        call_bytes(1, 41),                    # a retransmission: replayed
    ]
    stamps = []
    dispatch = service.registry.dispatch_bytes

    def spy(data, caller=None, received_at=None):
        stamps.append(received_at)
        return dispatch(data, caller=caller, received_at=received_at)

    service.registry.dispatch_bytes = spy
    with cls(service.registry, **options) as server, Wire(server) as wire:
        for message in messages:
            expected = reference.registry.dispatch_bytes(
                message, caller=("127.0.0.1", 1))
            assert wire.exchange(message) == expected
        assert server.requests_handled == len(messages)
        assert server.requests_shed == 0
    assert service.invocations == [41, 0xFFFFFFFF]
    # every transport anchors a request's deadline at its receive
    assert len(stamps) == len(messages)
    assert all(stamp is not None for stamp in stamps)


@table
def test_overflow_is_shed_typed_and_counted(cls, options, obs_mode):
    service = Service()
    workers = options.get("workers", 0)
    if workers:
        bound = dict(options, queue_depth=1, queue_policy="fifo")
    else:
        bound = dict(options, max_inflight=1)
    with cls(service.registry, **bound) as server, Wire(server) as wire:
        try:
            if workers:
                # every worker parked, the queue's one place taken
                park_workers(service, wire, workers)
                wire.send(call_bytes(10, 10))
                admitted = workers + 1
            else:
                # the one in-flight slot taken
                assert server._limiter.try_acquire()
                admitted = 0
            refused = [call_bytes(xid, xid) for xid in (20, 21, 22)]
            for message in refused:
                wire.send(message)
            sheds = wire.recv_by_xid(len(refused))
            assert sorted(sheds) == [20, 21, 22]
            assert all(accept_stat(reply) == AcceptStat.SYSTEM_ERR
                       for reply in sheds.values())
            assert server.requests_shed == 3
            assert server.inflight == max(admitted, 1)
            # a shed is never recorded: nothing was stored for it ...
            assert service.registry.drc.stores == 0
        finally:
            service.release.set()
            if not workers:
                server._limiter.release()
        # ... the rest is served ...
        served = wire.recv_by_xid(admitted)
        assert all(accept_stat(reply) == AcceptStat.SUCCESS
                   for reply in served.values())
        # ... and so is a shed request once it comes again
        for message in refused:
            assert accept_stat(wire.exchange(message)) == AcceptStat.SUCCESS
        assert server.requests_handled == admitted + 3
        assert server.requests_shed == 3


@pytest.mark.parametrize("cls", [UdpServer, MuxTcpServer])
def test_a_sojourn_shed_is_answered_not_dropped(cls, obs_mode):
    service = Service()
    with cls(service.registry, workers=2, queue_depth=16,
             queue_policy="codel", queue_target_s=0.001,
             queue_interval_s=0.02) as server, Wire(server) as wire:
        park_workers(service, wire, 2)
        # Four 40 ms calls queue behind the parked workers.  The first
        # two dequeued arm the controller; when the workers come back
        # for the rest, the interval has lapsed with sojourn still over
        # target, and CoDel sheds.
        for xid in (10, 11, 12, 13):
            wire.send(call_bytes(xid, 40, proc=PROC_SLEEP_MS))
        time.sleep(0.01)
        service.release.set()
        replies = wire.recv_by_xid(6)
        assert sorted(replies) == [1, 2, 10, 11, 12, 13]  # none dropped
        shed = [xid for xid, reply in replies.items()
                if accept_stat(reply) == AcceptStat.SYSTEM_ERR]
        assert shed and set(shed) <= {10, 11, 12, 13}
        assert server.requests_shed == len(shed)
        assert server._pool.sojourn_shed == len(shed)
        assert server.requests_handled == 6 - len(shed)


@table
def test_drain_answers_replays_and_health_and_sheds_new_work(
        cls, options, obs_mode):
    service = Service()
    with cls(service.registry, **options) as server, Wire(server) as wire:
        first = wire.exchange(call_bytes(1, 5))
        assert accept_stat(first) == AcceptStat.SUCCESS
        assert server.drain(timeout=5.0) is True
        assert server.inflight == 0
        assert wire.exchange(call_bytes(1, 5)) == first     # DRC replay
        assert accept_stat(wire.exchange(health_bytes(2))) == \
            AcceptStat.SUCCESS
        assert accept_stat(wire.exchange(call_bytes(3, 6))) == \
            AcceptStat.SYSTEM_ERR                           # new work
        assert service.invocations == [5]
        service.registry.end_drain()
        assert accept_stat(wire.exchange(call_bytes(3, 6))) == \
            AcceptStat.SUCCESS
        assert service.invocations == [5, 6]


@table
def test_drain_waits_for_what_is_in_flight(cls, options, obs_mode):
    service = Service()
    with cls(service.registry, **options) as server, Wire(server) as wire:
        park_workers(service, wire, 1)
        try:
            assert server.inflight == 1
            assert server.drain(timeout=0.05) is False
        finally:
            service.release.set()
        assert accept_stat(wire.recv()) == AcceptStat.SUCCESS
        assert server.drain(timeout=5.0) is True
        assert server.inflight == 0


@table
def test_stop_joins_its_threads_closes_everything_and_is_idempotent(
        cls, options, obs_mode, tmp_path):
    before = set(threading.enumerate())
    service = Service()
    server = cls(service.registry, drc_dir=str(tmp_path), **options)
    server.start()
    wire = Wire(server)
    try:
        assert accept_stat(wire.exchange(call_bytes(1, 1))) == \
            AcceptStat.SUCCESS
        assert server.journal is not None
        assert set(threading.enumerate()) - before
        server.stop()
        assert set(threading.enumerate()) - before == set()
        assert server.sock.fileno() == -1
        assert server.journal._file is None
        if not wire.udp:
            assert wire.sock.recv(1) == b""     # the connection was severed
        server.stop()
    finally:
        wire.close()
        server.stop()


@table
def test_a_faulted_reply_send_never_ends_the_serving_thread(
        cls, options, obs_mode):
    service = Service()
    # The first reply is faulted — dropped on UDP, the connection
    # aborted on TCP — and the plan is clean afterwards.
    plan = FaultPlan(seed=3, drop=1.0, max_faults=1)
    with cls(service.registry, fault_plan=plan, **options) as server:
        with Wire(server) as wire:
            wire.sock.settimeout(0.3)
            wire.send(call_bytes(1, 1))
            with pytest.raises((socket.timeout, RpcError)):
                wire.recv()
        assert plan.injected["drop"] == 1
        assert server._thread.is_alive()
        with Wire(server) as wire:
            assert accept_stat(wire.exchange(call_bytes(2, 2))) == \
                AcceptStat.SUCCESS
        assert server.requests_handled == 2


@table
def test_a_reply_the_wire_refuses_is_a_lost_reply(cls, options, obs_mode):
    # 20 000 words encode (the registry's buffer allows it) but exceed
    # what one datagram carries: sendto raises EMSGSIZE.  That call is
    # lost — typed, at the client — and the server keeps serving.  A
    # stream carries the reply whole.
    service = Service(bufsize=1 << 17)
    if cls is UdpServer:
        options = dict(options, bufsize=1 << 17)
        client_cls, kwargs = UdpClient, {"bufsize": 1 << 17, "wait": 0.05}
    else:
        client_cls, kwargs = TcpClient, {}
    with cls(service.registry, **options) as server:
        with client_cls("127.0.0.1", server.port, PROG, VERS, timeout=0.3,
                        **kwargs) as client:
            try:
                got = client.call(PROC_FILL, 20000, xdr_args=xdr_u_long,
                                  xdr_res=xdr_words)
            except RpcError:
                got = None
            assert (got is None) == (cls is UdpServer)
            assert got is None or got == list(range(20000))
            assert server._thread.is_alive()
            assert client.call(PROC_INC, 1, xdr_args=xdr_u_long,
                               xdr_res=xdr_u_long) == 2


# -- the TCP tier's bookkeeping ----------------------------------------------


@pytest.mark.parametrize("cls, options", [
    pytest.param(TcpServer, {"max_inflight": 1}, id="tcp"),
    pytest.param(MuxTcpServer, {"max_inflight": 1}, id="muxtcp-inline"),
    pytest.param(MuxTcpServer, {"workers": 2, "queue_depth": 1,
                                "queue_policy": "fifo"},
                 id="muxtcp-workers"),
])
def test_counters_add_up_under_concurrent_connections(cls, options):
    connections, records = 8, 6
    service = Service()
    stats = []

    def drive(server, base):
        with Wire(server) as wire:
            for index in range(records):
                reply = wire.exchange(call_bytes(base + index, 2,
                                                 proc=PROC_SLEEP_MS))
                stats.append(accept_stat(reply))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with cls(service.registry, **options) as server:
            threads = [threading.Thread(target=drive,
                                        args=(server, 1000 * (n + 1)))
                       for n in range(connections)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            sent = connections * records
            assert len(stats) == sent
            # every refusal is a typed SYSTEM_ERR, counted once ...
            assert set(stats) <= {AcceptStat.SUCCESS, AcceptStat.SYSTEM_ERR}
            assert server.requests_shed == stats.count(AcceptStat.SYSTEM_ERR)
            assert server.requests_handled + server.requests_shed == sent
            # ... and none of them reached the reply cache
            assert service.registry.drc.stores == server.requests_handled
            if cls is TcpServer:
                assert server.requests_shed > 0
    finally:
        sys.setswitchinterval(interval)


# -- UDP only: the batch envelope ---------------------------------------------


class TestUdpBatchEnvelope:
    def test_replies_are_rebatched_under_bufsize(self):
        service = Service()
        # six 108-byte replies: three to a 400-byte datagram
        with UdpServer(service.registry, bufsize=400) as server, \
                Wire(server) as wire:
            wire.send(pack_batch([call_bytes(xid, 20, proc=PROC_FILL)
                                  for xid in range(1, 7)]))
            datagrams = [wire.recv(), wire.recv()]
            assert all(len(datagram) <= 400 for datagram in datagrams)
            groups = [unpack_batch(datagram) for datagram in datagrams]
            assert [len(group) for group in groups] == [3, 3]
            assert [xid_of(reply) for group in groups for reply in group] \
                == [1, 2, 3, 4, 5, 6]
            assert server.requests_handled == 6

    def test_a_lone_reply_is_sent_plain(self):
        service = Service()
        with UdpServer(service.registry) as server, Wire(server) as wire:
            reply = wire.exchange(pack_batch([call_bytes(1, 1)]))
            assert unpack_batch(reply) is None
            assert accept_stat(reply) == AcceptStat.SUCCESS

    def test_a_truncated_envelope_is_dropped(self):
        service = Service()
        with UdpServer(service.registry) as server, Wire(server) as wire:
            wire.send(pack_batch([call_bytes(1, 1), call_bytes(2, 2)])[:-2])
            assert xid_of(wire.exchange(call_bytes(3, 3))) == 3
            assert service.invocations == [3]
            assert server.requests_handled == 1

    def test_a_full_queue_sheds_the_overflow_not_the_batch(self):
        service = Service()
        with UdpServer(service.registry, workers=2, queue_depth=1,
                       queue_policy="fifo") as server, Wire(server) as wire:
            park_workers(service, wire, 2)
            try:
                wire.send(pack_batch([call_bytes(xid, xid)
                                      for xid in (10, 11, 12, 13)]))
                sheds = wire.recv_by_xid(3)
                assert sorted(sheds) == [11, 12, 13]
                assert all(accept_stat(reply) == AcceptStat.SYSTEM_ERR
                           for reply in sheds.values())
                assert server.requests_shed == 3
            finally:
                service.release.set()
            served = wire.recv_by_xid(3)
            assert sorted(served) == [1, 2, 10]
            assert service.invocations == [10]


def test_tcp_server_takes_no_workers():
    with pytest.raises(TypeError, match="workers"):
        TcpServer(Service().registry, workers=2)


def test_there_is_one_udp_server():
    assert MuxUdpServer is UdpServer
