"""Fault-injection tests: the seeded plan layer and the fault matrix.

The loopback matrix is the acceptance bar of the failure model: with a
seeded 20%-drop/10%-duplicate plan on both directions of a UDP wire,
200 consecutive calls must all return correct results — on the generic
*and* the fastpath stacks — with every retransmitted duplicate served
from the duplicate-request cache (handler invocations == unique xids).
"""

import socket
import time

import pytest

from repro.errors import (
    FaultInjected,
    RpcConnectionError,
    RpcError,
    RpcProtocolError,
    RpcTimeoutError,
)
from repro.rpc import (
    FaultPlan,
    FaultySocket,
    SvcRegistry,
    TcpClient,
    TcpServer,
    UdpClient,
    UdpServer,
)
from repro.rpc.faults import FAULT_KINDS
from repro.xdr import xdr_array, xdr_int

PROG, VERS = 0x20007777, 1


def xdr_iarr(xdrs, value):
    return xdr_array(xdrs, value, 4096, xdr_int)


def make_registry(fastpath=False):
    registry = SvcRegistry(fastpath=fastpath)
    registry.register(PROG, VERS, 1, lambda a: sum(a), xdr_iarr, xdr_int)
    registry.register(
        PROG, VERS, 2, lambda a: [x + 1 for x in a], xdr_iarr, xdr_iarr
    )
    return registry


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        first = FaultPlan(seed=11, drop=0.3, duplicate=0.2, corrupt=0.1)
        second = FaultPlan(seed=11, drop=0.3, duplicate=0.2, corrupt=0.1)
        decisions_a = [sorted(first.decide().actions) for _ in range(200)]
        decisions_b = [sorted(second.decide().actions) for _ in range(200)]
        assert decisions_a == decisions_b

    def test_different_seed_different_decisions(self):
        first = FaultPlan(seed=1, drop=0.5)
        second = FaultPlan(seed=2, drop=0.5)
        decisions_a = [sorted(first.decide().actions) for _ in range(100)]
        decisions_b = [sorted(second.decide().actions) for _ in range(100)]
        assert decisions_a != decisions_b

    def test_fixed_draws_keep_streams_aligned(self):
        """Plans from one seed make the same drop decisions whatever
        the *other* rates are — every decide() consumes a fixed number
        of draws."""
        lean = FaultPlan(seed=3, drop=0.4)
        rich = FaultPlan(seed=3, drop=0.4, duplicate=0.0, reorder=0.0,
                         delay=0.0, corrupt=0.0, truncate=0.0)
        drops_a = ["drop" in lean.decide() for _ in range(300)]
        drops_b = ["drop" in rich.decide() for _ in range(300)]
        assert drops_a == drops_b

    def test_clean_plan_never_faults(self):
        plan = FaultPlan(seed=5)
        for _ in range(100):
            assert not plan.decide()
        assert plan.total_injected == 0
        assert plan.decisions == 100

    def test_drop_excludes_other_faults(self):
        plan = FaultPlan(seed=7, drop=1.0, duplicate=1.0, corrupt=1.0)
        for _ in range(50):
            assert plan.decide().actions == {"drop"}

    def test_max_faults_turns_plan_clean(self):
        plan = FaultPlan(seed=9, drop=1.0, max_faults=3)
        sock = _CountingSock()
        faulty = FaultySocket(sock, plan, stream=False)
        for _ in range(10):
            faulty.sendto(b"payload", ("127.0.0.1", 9))
        assert plan.injected["drop"] == 3
        assert len(sock.sent) == 7

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop=1.5)

    def test_mutate_corrupt_changes_one_byte(self):
        plan = FaultPlan(seed=13, corrupt=1.0)
        payload = bytes(range(64))
        decision = plan.decide()
        mutated = decision.mutate(payload)
        assert len(mutated) == len(payload)
        differing = [i for i in range(64) if mutated[i] != payload[i]]
        assert len(differing) == 1

    def test_mutate_truncate_shortens(self):
        plan = FaultPlan(seed=17, truncate=1.0)
        payload = bytes(64)
        sizes = {len(plan.decide().mutate(payload)) for _ in range(20)}
        assert all(1 <= size <= 64 for size in sizes)
        assert any(size < 64 for size in sizes)

    def test_summary_counts(self):
        plan = FaultPlan(seed=19, drop=1.0)
        sock = _CountingSock()
        faulty = FaultySocket(sock, plan, stream=False)
        faulty.sendto(b"x", ("127.0.0.1", 9))
        summary = plan.summary()
        assert summary["drop"] == 1
        assert summary["decisions"] == 1
        assert summary["seed"] == 19


class _CountingSock:
    """A socket double recording datagram sends."""

    type = socket.SOCK_DGRAM

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append((bytes(data), addr))
        return len(data)

    def send(self, data):
        return self.sendto(data, None)

    def close(self):
        pass


class TestFaultySocketUdp:
    ADDR = ("127.0.0.1", 12345)

    def test_duplicate_sends_twice(self):
        sock = _CountingSock()
        faulty = FaultySocket(sock, FaultPlan(seed=1, duplicate=1.0),
                              stream=False)
        faulty.sendto(b"hello", self.ADDR)
        assert [data for data, _ in sock.sent] == [b"hello", b"hello"]

    def test_reorder_swaps_adjacent(self):
        sock = _CountingSock()
        plan = FaultPlan(seed=1, reorder=1.0)
        faulty = FaultySocket(sock, plan, stream=False)
        faulty.sendto(b"first", self.ADDR)
        assert sock.sent == []  # held back
        faulty.sendto(b"second", self.ADDR)
        assert [data for data, _ in sock.sent] == [b"second", b"first"]

    def test_held_datagram_flushed_on_close(self):
        sock = _CountingSock()
        faulty = FaultySocket(sock, FaultPlan(seed=1, reorder=1.0),
                              stream=False)
        faulty.sendto(b"held", self.ADDR)
        assert sock.sent == []
        faulty.close()
        assert [data for data, _ in sock.sent] == [b"held"]

    def test_corrupt_preserves_length(self):
        sock = _CountingSock()
        faulty = FaultySocket(sock, FaultPlan(seed=2, corrupt=1.0),
                              stream=False)
        faulty.sendto(b"a" * 32, self.ADDR)
        (data, _addr), = sock.sent
        assert len(data) == 32
        assert data != b"a" * 32

    def test_recv_drop_delivers_empty_datagram(self):
        left = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        right = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            right.bind(("127.0.0.1", 0))
            right.settimeout(2.0)
            left.sendto(b"payload", right.getsockname())
            faulty = FaultySocket(right, FaultPlan(seed=3, drop=1.0),
                                  on_send=False, on_recv=True)
            data, _addr = faulty.recvfrom(4096)
            assert data == b""
        finally:
            left.close()
            right.close()

    def test_connected_send_is_faulted(self):
        """Bugfix: ``send`` on a connected datagram socket went straight
        to the wire, past the plan."""
        receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            receiver.bind(("127.0.0.1", 0))
            receiver.settimeout(0.2)
            sender.connect(receiver.getsockname())
            faulty = FaultySocket(sender, FaultPlan(seed=5, drop=1.0))
            for _ in range(10):
                assert faulty.send(b"payload") == 7
            with pytest.raises(socket.timeout):
                receiver.recv(64)
        finally:
            sender.close()
            receiver.close()

    def test_send_and_sendto_draw_the_same_sequence(self):
        def run(send):
            plan = FaultPlan(seed=7, drop=0.2, duplicate=0.2, reorder=0.2,
                             corrupt=0.2)
            notes, note = [], plan.note
            plan.note = lambda kind: (notes.append(kind), note(kind))
            sock = _CountingSock()
            faulty = FaultySocket(sock, plan, stream=False)
            for index in range(50):
                send(faulty, b"message %d" % index)
            faulty.close()
            return notes, [data for data, _addr in sock.sent]

        by_sendto = run(lambda sock, data: sock.sendto(data, self.ADDR))
        by_send = run(lambda sock, data: sock.send(data))
        assert by_send == by_sendto
        assert {"drop", "duplicate", "reorder", "corrupt"} <= set(by_send[0])

    def test_delegates_socket_surface(self):
        inner = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            inner.bind(("127.0.0.1", 0))
            faulty = FaultySocket(inner, FaultPlan())
            assert faulty.fileno() == inner.fileno()
            assert faulty.getsockname() == inner.getsockname()
            faulty.settimeout(0.5)
            assert inner.gettimeout() == 0.5
        finally:
            inner.close()


def run_matrix_calls(fastpath, calls=200, drop=0.20, duplicate=0.10,
                     reorder=0.0):
    """The acceptance workload: seeded faulty wire, DRC on, both paths."""
    registry = make_registry(fastpath=fastpath)
    client_plan = FaultPlan(seed=1001, drop=drop, duplicate=duplicate,
                            reorder=reorder)
    server_plan = FaultPlan(seed=2002, drop=drop, duplicate=duplicate,
                            reorder=reorder)
    with UdpServer(registry, fastpath=fastpath, drc=True,
                   fault_plan=server_plan) as server:
        with UdpClient("127.0.0.1", server.port, PROG, VERS,
                       timeout=30.0, wait=0.005, max_wait=0.25,
                       jitter=0.0, fastpath=fastpath,
                       fault_plan=client_plan) as client:
            for value in range(calls):
                assert client.call(1, [value, 1], xdr_iarr,
                                   xdr_int) == value + 1
            stats = {
                "retransmissions": client.retransmissions,
                "stale_replies": client.stale_replies,
            }
    return registry, server, stats


class TestFaultMatrixUdp:
    """The acceptance criterion, generic and fastpath."""

    @pytest.mark.parametrize("fastpath", [False, True],
                             ids=["generic", "fastpath"])
    def test_200_calls_survive_drop_and_duplication(self, fastpath):
        registry, server, stats = run_matrix_calls(fastpath)
        # Every call completed correctly (asserted inside); the DRC
        # absorbed every retransmitted duplicate: the handler ran
        # exactly once per unique xid.
        assert registry.handlers_invoked == 200
        drc = registry.drc.summary()
        assert drc["stores"] == 200
        # Each duplicate the server received beyond the first sighting
        # was served from the cache, not the handler.
        assert server.requests_handled == 200 + drc["hits"]
        assert drc["hits"] > 0
        assert stats["retransmissions"] > 0

    def test_reorder_only_wire(self):
        registry, _server, _stats = run_matrix_calls(
            False, calls=50, drop=0.0, duplicate=0.0, reorder=0.3
        )
        assert registry.handlers_invoked == 50

    def test_fastpath_and_generic_replies_byte_equivalent(self):
        """The same faulted requests produce byte-identical replies
        from the generic and fastpath dispatchers, and DRC replays are
        byte-identical to the first reply."""
        generic = make_registry(fastpath=False).enable_drc()
        fast = make_registry(fastpath=True).enable_drc()
        caller = ("127.0.0.1", 54321)
        plan = FaultPlan(seed=77, corrupt=0.3, truncate=0.2)
        from repro.rpc.client import RpcClient

        builder = RpcClient(PROG, VERS)
        for xid in range(40):
            request = builder.build_call(xid, 2, [xid, xid + 1], xdr_iarr)
            request = plan.decide().mutate(request)
            first = generic.dispatch_bytes(request, caller=caller)
            assert fast.dispatch_bytes(request, caller=caller) == first
            # Retransmission of the identical datagram: replayed bytes.
            assert generic.dispatch_bytes(request, caller=caller) == first
            assert fast.dispatch_bytes(request, caller=caller) == first

    def test_corrupted_wire_never_crashes(self):
        """Corruption cannot guarantee correct *values* (UDP has no
        app-layer checksum), but every call must either succeed or
        raise a typed RpcError, and the stack must keep serving."""
        registry = make_registry()
        server_plan = FaultPlan(seed=31, drop=0.1, corrupt=0.3,
                                truncate=0.1)
        with UdpServer(registry, fault_plan=server_plan) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           timeout=5.0, wait=0.005, max_wait=0.1,
                           jitter=0.0) as client:
                outcomes = 0
                for value in range(50):
                    try:
                        client.call(1, [value], xdr_iarr, xdr_int)
                        outcomes += 1
                    except RpcError:
                        pass
                # The wire is bad, not dead: most calls complete.
                assert outcomes > 25
        assert registry.handlers_invoked > 0


class TestFaultsTcp:
    def test_corrupt_stream_raises_only_typed_errors(self):
        """A corrupted TCP stream may yield a wrong-but-decodable value
        (one flipped argument byte) or fail — but every failure must be
        a typed RpcError (denied, protocol, connection, timeout), never
        ``struct.error`` or a bare ``ConnectionResetError``."""
        registry = make_registry()
        with TcpServer(registry) as server:
            plan = FaultPlan(seed=41, corrupt=1.0)
            failures = []
            for attempt in range(8):
                try:
                    with TcpClient("127.0.0.1", server.port, PROG, VERS,
                                   timeout=1.0, fault_plan=plan) as client:
                        client.call(1, [1, 2], xdr_iarr, xdr_int)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    failures.append(exc)
            assert failures, "corrupting every record never failed a call"
            assert all(isinstance(exc, RpcError) for exc in failures), (
                f"untyped errors leaked: {[type(e) for e in failures]}"
            )

    def test_stream_drop_aborts_connection(self):
        registry = make_registry()
        with TcpServer(registry) as server:
            plan = FaultPlan(seed=43, drop=1.0)
            with TcpClient("127.0.0.1", server.port, PROG, VERS,
                           timeout=2.0, fault_plan=plan) as client:
                with pytest.raises(FaultInjected):
                    client.call(1, [1], xdr_iarr, xdr_int)

    def test_stream_truncation_peer_sees_connection_error(self):
        """A server whose replies are truncated mid-record: the client
        gets RpcConnectionError, and the server thread survives."""
        registry = make_registry()
        plan = FaultPlan(seed=47, truncate=1.0)
        with TcpServer(registry, fault_plan=plan) as server:
            with TcpClient("127.0.0.1", server.port, PROG, VERS,
                           timeout=2.0) as client:
                with pytest.raises(RpcConnectionError):
                    client.call(1, [1], xdr_iarr, xdr_int)
            # The listener is still alive for new connections.
            with TcpClient("127.0.0.1", server.port, PROG, VERS,
                           timeout=2.0) as client:
                with pytest.raises((RpcConnectionError, RpcTimeoutError)):
                    client.call(1, [2], xdr_iarr, xdr_int)

    def test_refused_connection_is_typed(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        with pytest.raises(RpcConnectionError):
            TcpClient("127.0.0.1", port, PROG, VERS, timeout=1.0)


class TestAdaptiveRetransmission:
    def test_backoff_schedule_doubles_and_caps(self):
        """Against a black-hole wire, the realized windows follow
        wait, 2*wait, 4*wait, ... capped at max_wait."""
        plan = FaultPlan(seed=51, drop=1.0)
        with UdpClient("127.0.0.1", 1, PROG, VERS, timeout=0.45,
                       wait=0.05, max_wait=0.2, backoff=2.0, jitter=0.0,
                       fault_plan=plan) as client:
            with pytest.raises(RpcTimeoutError):
                client.call(1, [1], xdr_iarr, xdr_int)
            schedule = client.last_call_stats.backoff_schedule
        assert schedule[0] == pytest.approx(0.05)
        assert schedule[1] == pytest.approx(0.1)
        assert schedule[2] == pytest.approx(0.2)  # capped
        assert all(window <= 0.2 for window in schedule)

    def test_jitter_perturbs_schedule_deterministically(self):
        def schedule_with_seed(seed):
            with UdpClient("127.0.0.1", 1, PROG, VERS, timeout=0.3,
                           wait=0.04, max_wait=1.0, jitter=0.25,
                           retrans_seed=seed,
                           fault_plan=FaultPlan(drop=1.0)) as client:
                with pytest.raises(RpcTimeoutError):
                    client.call(1, [1], xdr_iarr, xdr_int)
                return client.last_call_stats.backoff_schedule

        first = schedule_with_seed(99)
        again = schedule_with_seed(99)
        assert first == again
        assert len(first) >= 2
        # Jittered: the second window is NOT exactly double the first.
        assert first[1] != pytest.approx(2 * first[0])

    def test_final_try_gets_full_window_no_spin(self):
        """The near-deadline fix: when the budget no longer covers a
        full window, the client sends one final retransmit and grants
        it the whole window — never a burst of back-to-back sends."""
        plan = FaultPlan(seed=53, drop=1.0)  # black hole, counts sends
        started = time.monotonic()
        with UdpClient("127.0.0.1", 1, PROG, VERS, timeout=0.5,
                       wait=0.2, max_wait=0.2, jitter=0.0,
                       fault_plan=plan) as client:
            with pytest.raises(RpcTimeoutError):
                client.call(1, [1], xdr_iarr, xdr_int)
            elapsed = time.monotonic() - started
            stats = client.last_call_stats
        # Budget 0.5 at window 0.2: sends at t=0, 0.2, 0.4 — the third
        # is final and still waits its full 0.2 window.
        assert stats.attempts == 3
        assert plan.decisions == 3
        assert elapsed >= 0.6 - 0.02
        # Every attempt was granted the full window, no slivers.
        assert all(window == pytest.approx(0.2)
                   for window in stats.backoff_schedule)

    def test_timeout_shorter_than_wait_still_waits_full_window(self):
        plan = FaultPlan(seed=57, drop=1.0)
        started = time.monotonic()
        with UdpClient("127.0.0.1", 1, PROG, VERS, timeout=0.02,
                       wait=0.1, jitter=0.0, fault_plan=plan) as client:
            with pytest.raises(RpcTimeoutError):
                client.call(1, [1], xdr_iarr, xdr_int)
            elapsed = time.monotonic() - started
            stats = client.last_call_stats
        assert stats.attempts == 1  # no back-to-back burst
        assert elapsed >= 0.1 - 0.01  # one full receive wait happened

    def test_per_call_stats_reset_between_calls(self):
        registry = make_registry()
        with UdpServer(registry) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           wait=0.5) as client:
                assert client.call(1, [1, 2], xdr_iarr, xdr_int) == 3
                first = client.last_call_stats
                assert client.call(1, [3, 4], xdr_iarr, xdr_int) == 7
                second = client.last_call_stats
        assert first is not second
        assert first.attempts == 1
        assert second.attempts == 1
        assert second.retransmissions == 0
        assert second.elapsed_s > 0

    def test_fault_kinds_constant(self):
        assert set(FAULT_KINDS) == {
            "drop", "duplicate", "reorder", "delay", "corrupt", "truncate"
        }
