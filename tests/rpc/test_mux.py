"""The concurrent call engine (repro.rpc.mux): batching wire format,
xid demultiplexing edge cases, deadlines, retransmission, and
connection-death semantics.

The ISSUE-level contract under test: every PendingCall settles — with
a value or a *typed* RpcError — whatever the wire does (unknown xids,
out-of-order replies, duplicates after completion, a dead connection
with N calls in flight).  Nothing hangs.
"""

import random
import socket
import struct
import threading
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    RpcConnectionError,
    RpcDeadlineExceeded,
    RpcError,
    RpcTimeoutError,
)
from repro.rpc import (
    MuxTcpClient,
    MuxUdpClient,
    MuxUdpServer,
    MuxTcpServer,
    SvcRegistry,
    TcpServer,
    UdpServer,
)
from repro.rpc.fastpath import ReplyHeaderTemplate
from repro.rpc.faults import FaultPlan
from repro.rpc.mux import (
    BATCH_MAGIC,
    mark_record,
    pack_batch,
    unpack_batch,
)
from repro.rpc.record import RecordAssembler
from repro.xdr import xdr_bytes, xdr_u_long

PROG, VERS = 0x20008888, 1
PROC_INC, PROC_SLEEP_MS, PROC_BOOM, PROC_SUM = 1, 2, 3, 4


def xdr_payload(xdrs, value):
    return xdr_bytes(xdrs, value, 1 << 16)

#: accepted-SUCCESS reply tail (everything after the xid)
_REPLY_TAIL = ReplyHeaderTemplate().prefix[4:]


def _reply_bytes(xid, value):
    """A well-formed accepted-SUCCESS reply carrying one u_long."""
    return struct.pack(">I", xid) + _REPLY_TAIL + struct.pack(">I", value)


def make_registry(invocations=None):
    reg = SvcRegistry()

    def inc(v):
        if invocations is not None:
            invocations.append(v)
        return (v + 1) & 0xFFFFFFFF

    def sleep_ms(v):
        time.sleep(v / 1000.0)
        return v

    def boom(_v):
        raise RuntimeError("handler exploded")

    reg.register(PROG, VERS, PROC_INC, inc, xdr_u_long, xdr_u_long)
    reg.register(PROG, VERS, PROC_SLEEP_MS, sleep_ms, xdr_u_long,
                 xdr_u_long)
    reg.register(PROG, VERS, PROC_BOOM, boom, xdr_u_long, xdr_u_long)
    return reg


def _await(predicate, timeout=2.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class _SilentUdpPeer:
    """A bound UDP socket that never answers (unless the test does)."""

    def __enter__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(5.0)
        self.port = self.sock.getsockname()[1]
        return self

    def __exit__(self, *exc_info):
        self.sock.close()


class TestBatchEnvelope:
    def test_roundtrip(self):
        messages = [b"alpha", b"bb", b"c" * 300]
        unpacked = unpack_batch(pack_batch(messages))
        assert [bytes(m) for m in unpacked] == messages

    def test_plain_rpc_message_is_not_an_envelope(self):
        # msg_type (second word) is 0 for calls and 1 for replies —
        # never the 0xFFFFFFFF flag — even with an adversarial xid
        # equal to BATCH_MAGIC.
        call = struct.pack(">III", BATCH_MAGIC, 0, 2) + b"\0" * 28
        assert unpack_batch(call) is None
        reply = struct.pack(">III", BATCH_MAGIC, 1, 0) + b"\0" * 12
        assert unpack_batch(reply) is None

    def test_short_datagram_is_not_an_envelope(self):
        assert unpack_batch(b"\x01\x02") is None

    def test_truncated_envelope_raises(self):
        from repro.errors import RpcProtocolError

        packed = pack_batch([b"hello", b"world"])
        with pytest.raises(RpcProtocolError):
            unpack_batch(packed[:-3])

    def test_overrunning_member_raises(self):
        from repro.errors import RpcProtocolError

        bogus = struct.pack(">III", BATCH_MAGIC, 0xFFFFFFFF, 1)
        bogus += struct.pack(">I", 1000) + b"short"
        with pytest.raises(RpcProtocolError):
            unpack_batch(bogus)

    # -- properties: the fast paths against the framing and the loop --

    @staticmethod
    def reference_pack(messages):
        """The framing documented in :mod:`repro.rpc.record`."""
        out = struct.pack(">III", BATCH_MAGIC, 0xFFFFFFFF, len(messages))
        for message in messages:
            out += struct.pack(">I", len(message)) + bytes(message)
        return out

    @staticmethod
    def loop_unpack(data):
        """Member by member, as the envelope was always read: the
        messages, None for a plain datagram, or the error's text."""
        if len(data) < 12:
            return None
        magic, flag, count = struct.unpack_from(">III", data, 0)
        if magic != BATCH_MAGIC or flag != 0xFFFFFFFF:
            return None
        messages, offset = [], 12
        for _ in range(count):
            if offset + 4 > len(data):
                return "truncated batch envelope"
            (length,) = struct.unpack_from(">I", data, offset)
            offset += 4
            if offset + length > len(data):
                return f"batch member of {length} bytes overruns the datagram"
            messages.append(bytes(data[offset:offset + length]))
            offset += length
        return messages

    @staticmethod
    def unpacked(data):
        from repro.errors import RpcProtocolError

        try:
            messages = unpack_batch(data)
        except RpcProtocolError as exc:
            return str(exc)
        return messages if messages is None else [bytes(m) for m in messages]

    @given(messages=st.one_of(
        st.lists(st.binary(max_size=48), max_size=40),
        st.builds(lambda length, count: [bytes([count % 256]) * length] * count,
                  st.integers(0, 48), st.integers(0, 40))))
    @settings(deadline=None)
    def test_pack_is_the_framing_and_unpack_inverts_it(self, messages):
        packed = pack_batch(messages)
        assert packed == self.reference_pack(messages)
        assert pack_batch([bytearray(m) for m in messages]) == packed
        assert self.unpacked(packed) == messages

    @given(length=st.integers(0, 48), count=st.integers(1, 40),
           damage=st.sampled_from(["truncate", "trailing", "word", "count"]),
           amount=st.integers(1, 64), where=st.integers(0, 39))
    @settings(deadline=None)
    def test_a_damaged_run_reads_as_the_loop_reads_it(self, length, count,
                                                      damage, amount, where):
        data = bytearray(pack_batch([b"\x5a" * length] * count))
        if damage == "truncate":
            del data[max(12, len(data) - amount):]
        elif damage == "trailing":
            data += b"\0" * amount
        elif damage == "word":  # one member's length word off
            offset = 12 + (where % count) * (length + 4)
            struct.pack_into(">I", data, offset,
                             max(0, length + amount - 32))
        else:
            struct.pack_into(">I", data, 8, count + amount)
        assert self.unpacked(bytes(data)) == self.loop_unpack(bytes(data))

    def test_mark_record_reassembles(self):
        payload = bytes(range(256)) * 40
        asm = RecordAssembler()
        (record,) = asm.feed(mark_record(payload, fragment_size=1000))
        assert bytes(record) == payload

    def test_mark_record_multiple_records_in_one_stream(self):
        asm = RecordAssembler()
        stream = mark_record(b"first") + mark_record(b"second")
        records = asm.feed(stream)
        assert [bytes(r) for r in records] == [b"first", b"second"]


class TestMuxUdp:
    def test_single_call_is_wire_compatible_with_plain_server(self):
        # A lone call is sent raw (no envelope): the threaded serial
        # server — which knows nothing of batches — answers it.
        with UdpServer(make_registry()) as server:
            client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0)
            try:
                assert client.call(PROC_INC, 41, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long) == 42
            finally:
                client.close()

    def test_many_inflight_calls_all_resolve_correctly(self):
        with MuxUdpServer(make_registry()) as server:
            client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0, max_inflight=64)
            try:
                calls = [
                    client.call_async(PROC_INC, i, xdr_args=xdr_u_long,
                                      xdr_res=xdr_u_long)
                    for i in range(200)
                ]
                for i, call in enumerate(calls):
                    assert call.result(10.0) == i + 1
                assert client.messages_batched == 200
            finally:
                client.close()

    def test_out_of_order_replies_resolve_the_right_calls(self):
        # Two workers let the slow call's handler overlap the fast
        # one's: the fast reply comes back while the slow call is
        # still pending, and each resolves with its own value.
        with MuxUdpServer(make_registry(), workers=2) as server:
            client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0)
            try:
                slow = client.call_async(PROC_SLEEP_MS, 300,
                                         xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long)
                fast = client.call_async(PROC_SLEEP_MS, 1,
                                         xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long)
                assert fast.result(5.0) == 1
                assert not slow.done()
                assert slow.result(5.0) == 300
            finally:
                client.close()

    def test_unknown_xid_is_counted_and_dropped(self):
        with _SilentUdpPeer() as peer:
            client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS,
                                  timeout=5.0, wait=2.0, jitter=0)
            try:
                call = client.call_async(PROC_INC, 7, xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long)
                request, addr = peer.sock.recvfrom(65536)
                xid = int.from_bytes(request[:4], "big")
                # A reply for an xid nobody is waiting on, then the
                # real one: the stranger is dropped, the call resolves.
                peer.sock.sendto(_reply_bytes(xid ^ 0x5A5A, 99), addr)
                peer.sock.sendto(_reply_bytes(xid, 8), addr)
                assert call.result(5.0) == 8
                assert _await(lambda: client.unknown_xids == 1)
            finally:
                client.close()

    def test_duplicate_reply_after_completion_is_dropped(self):
        with _SilentUdpPeer() as peer:
            client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS,
                                  timeout=5.0, wait=2.0, jitter=0)
            try:
                call = client.call_async(PROC_INC, 7, xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long)
                request, addr = peer.sock.recvfrom(65536)
                xid = int.from_bytes(request[:4], "big")
                peer.sock.sendto(_reply_bytes(xid, 8), addr)
                assert call.result(5.0) == 8
                # The same reply again, post-completion: counted as an
                # unknown xid and dropped — never delivered twice.
                peer.sock.sendto(_reply_bytes(xid, 8), addr)
                assert _await(lambda: client.unknown_xids == 1)
                assert call.result() == 8
            finally:
                client.close()

    def test_timeout_resolves_typed_after_retransmitting(self):
        with _SilentUdpPeer() as peer:
            client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS,
                                  timeout=0.3, wait=0.05, jitter=0)
            try:
                call = client.call_async(PROC_INC, 1, xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long)
                error = call.exception(5.0)
                assert isinstance(error, RpcTimeoutError)
                assert not isinstance(error, RpcDeadlineExceeded)
                assert call.stats.retransmissions >= 1
                with pytest.raises(RpcTimeoutError):
                    call.result()
            finally:
                client.close()

    def test_deadline_resolves_deadline_exceeded(self):
        with _SilentUdpPeer() as peer:
            client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS,
                                  timeout=5.0, wait=2.0, jitter=0)
            try:
                call = client.call_async(PROC_INC, 1, xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long, deadline=0.2)
                assert isinstance(call.exception(5.0), RpcDeadlineExceeded)
            finally:
                client.close()

    def test_retransmission_recovers_a_dropped_request(self):
        plan = FaultPlan(seed=7, drop=1.0, max_faults=1)
        with MuxUdpServer(make_registry()) as server:
            client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0, wait=0.05, jitter=0,
                                  fault_plan=plan)
            try:
                assert client.call(PROC_INC, 10, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long) == 11
                assert client.retransmissions >= 1
            finally:
                client.close()

    def test_duplicated_requests_execute_exactly_once(self):
        # Every request datagram is sent twice; the server's DRC keeps
        # handler execution exactly-once per call even with many xids
        # in flight from one caller.
        invocations = []
        plan = FaultPlan(seed=3, duplicate=1.0)
        with MuxUdpServer(make_registry(invocations)) as server:
            client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0, wait=2.0, jitter=0,
                                  fault_plan=plan)
            try:
                for i in range(20):
                    assert client.call(PROC_INC, i, xdr_args=xdr_u_long,
                                       xdr_res=xdr_u_long) == i + 1
            finally:
                client.close()
        assert len(invocations) == 20

    def test_handler_failure_resolves_typed(self):
        with MuxUdpServer(make_registry()) as server:
            client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0)
            try:
                call = client.call_async(PROC_BOOM, 1, xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long)
                assert isinstance(call.exception(5.0), RpcError)
            finally:
                client.close()

    def test_window_admission_times_out_typed(self):
        # The in-flight call has the full 5s timeout, so no slot frees
        # within the second call's 0.3s deadline budget: admission
        # itself times out, typed.
        with _SilentUdpPeer() as peer:
            client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS,
                                  timeout=5.0, wait=5.0, jitter=0,
                                  max_inflight=1)
            try:
                first = client.call_async(PROC_INC, 1, xdr_args=xdr_u_long,
                                          xdr_res=xdr_u_long)
                with pytest.raises(RpcTimeoutError, match="window full"):
                    client.call_async(PROC_INC, 2, xdr_args=xdr_u_long,
                                      xdr_res=xdr_u_long, deadline=0.3)
                assert not first.done()
            finally:
                client.close()
            assert isinstance(first.exception(2.0), RpcConnectionError)

    def test_result_timeout_is_a_safety_net(self):
        with _SilentUdpPeer() as peer:
            client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS,
                                  timeout=5.0, wait=2.0, jitter=0)
            try:
                call = client.call_async(PROC_INC, 1, xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long)
                with pytest.raises(RpcTimeoutError, match="still pending"):
                    call.result(0.05)
                assert not call.done()
            finally:
                client.close()

    def test_close_resolves_inflight_calls_typed(self):
        with _SilentUdpPeer() as peer:
            client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS,
                                  timeout=5.0, wait=2.0, jitter=0)
            call = client.call_async(PROC_INC, 1, xdr_args=xdr_u_long,
                                     xdr_res=xdr_u_long)
            client.close()
            assert isinstance(call.exception(2.0), RpcConnectionError)
            with pytest.raises(RpcConnectionError):
                client.call_async(PROC_INC, 2, xdr_args=xdr_u_long,
                                  xdr_res=xdr_u_long)


class TestCallAsyncMany:
    def test_burst_resolves_in_order(self):
        with MuxUdpServer(make_registry()) as server:
            client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0, max_inflight=32)
            try:
                calls = client.call_async_many(
                    PROC_INC, list(range(10)),
                    xdr_args=xdr_u_long, xdr_res=xdr_u_long,
                )
                assert [c.result(10.0) for c in calls] == list(range(1, 11))
            finally:
                client.close()

    def test_unadmitted_burst_resolves_typed_instead_of_raising(self):
        # The window is pre-filled with two long-budget calls, then a
        # burst of 3 arrives with a 0.3s deadline: no slot frees in
        # time, and the whole burst *resolves* typed ("window full")
        # rather than raising out of the submit — every handle
        # settles individually.
        with _SilentUdpPeer() as peer:
            client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS,
                                  timeout=5.0, wait=5.0, jitter=0,
                                  max_inflight=2)
            try:
                blockers = [
                    client.call_async(PROC_INC, i, xdr_args=xdr_u_long,
                                      xdr_res=xdr_u_long)
                    for i in range(2)
                ]
                calls = client.call_async_many(
                    PROC_INC, list(range(3)),
                    xdr_args=xdr_u_long, xdr_res=xdr_u_long, deadline=0.3,
                )
                assert len(calls) == 3
                errors = [c.exception(5.0) for c in calls]
                assert all(isinstance(e, RpcTimeoutError) for e in errors)
                assert all("window full" in str(e) for e in errors)
                assert not any(b.done() for b in blockers)
            finally:
                client.close()

    def test_burst_larger_than_the_window_resolves_on_an_idle_client(self):
        # An idle client has no driver: the admitted head must go out
        # before the tail waits for window room, which only the head's
        # replies can make -- else the tail times out "window full"
        # behind calls nobody sent.
        with UdpServer(make_registry()) as server:
            client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=1.0, max_inflight=2)
            try:
                started = time.monotonic()
                calls = client.call_async_many(
                    PROC_INC, [1, 2, 3, 4],
                    xdr_args=xdr_u_long, xdr_res=xdr_u_long,
                )
                assert [c.exception(1.0) for c in calls] == [None] * 4
                assert [c.result() for c in calls] == [2, 3, 4, 5]
                assert time.monotonic() - started < 0.5
            finally:
                client.close()

    def test_empty_burst(self):
        with _SilentUdpPeer() as peer:
            client = MuxUdpClient("127.0.0.1", peer.port, PROG, VERS)
            try:
                assert client.call_async_many(
                    PROC_INC, [], xdr_args=xdr_u_long, xdr_res=xdr_u_long,
                ) == []
            finally:
                client.close()


class _TcpPeer:
    """A TCP listener whose accepted connections follow a scripted
    sequence of behaviors: "die" reads a little and slams the
    connection shut; "serve" answers RPCs off the stream."""

    def __init__(self, behaviors, registry=None, gate=None, rcvbuf=None):
        self.behaviors = list(behaviors)
        self.registry = registry
        #: "die" waits on this (if given) before slamming the
        #: connection shut, so a test can get N calls in flight first;
        #: "serve" waits on it before reading anything.
        self.gate = gate
        self.rcvbuf = rcvbuf
        #: the records "serve" reassembled
        self.records = 0

    def __enter__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if self.rcvbuf is not None:  # inherited by accepted sockets
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                                 self.rcvbuf)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.sock.settimeout(10.0)
        self.port = self.sock.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.sock.close()
        self._thread.join(timeout=5.0)

    def _run(self):
        for behavior in self.behaviors:
            try:
                conn, peer = self.sock.accept()
            except OSError:
                return
            if behavior == "die":
                try:
                    conn.recv(1)
                    if self.gate is not None:
                        self.gate.wait(5.0)
                    # RST rather than FIN: exercise the harsher death.
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))
                finally:
                    conn.close()
            else:
                self._serve(conn, peer)

    def _serve(self, conn, peer):
        asm = RecordAssembler()
        if self.gate is not None:
            self.gate.wait(5.0)
        try:
            while True:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    return
                for record in asm.feed(chunk):
                    self.records += 1
                    reply = self.registry.dispatch_bytes(record,
                                                         caller=peer)
                    if reply is not None:
                        conn.sendall(mark_record(reply))
        except OSError:
            return
        finally:
            conn.close()


class TestMuxTcp:
    def test_pipelining_is_wire_compatible_with_plain_server(self):
        # Several record-marked calls in one send against the classic
        # threaded TCP server: standard record marking, so the serial
        # server answers them all.
        with TcpServer(make_registry()) as server:
            client = MuxTcpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0)
            try:
                calls = [
                    client.call_async(PROC_INC, i, xdr_args=xdr_u_long,
                                      xdr_res=xdr_u_long)
                    for i in range(20)
                ]
                for i, call in enumerate(calls):
                    assert call.result(10.0) == i + 1
            finally:
                client.close()

    def test_many_inflight_against_event_loop_server(self):
        with MuxTcpServer(make_registry()) as server:
            client = MuxTcpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0, max_inflight=64)
            try:
                calls = [
                    client.call_async(PROC_INC, i, xdr_args=xdr_u_long,
                                      xdr_res=xdr_u_long)
                    for i in range(100)
                ]
                for i, call in enumerate(calls):
                    assert call.result(10.0) == i + 1
            finally:
                client.close()

    def test_connection_death_resolves_all_inflight_typed(self):
        gate = threading.Event()
        with _TcpPeer(["die", "serve"], make_registry(),
                      gate=gate) as peer:
            client = MuxTcpClient("127.0.0.1", peer.port, PROG, VERS,
                                  timeout=5.0)
            try:
                calls = [
                    client.call_async(PROC_INC, i, xdr_args=xdr_u_long,
                                      xdr_res=xdr_u_long)
                    for i in range(4)
                ]
                gate.set()  # all four in flight: now kill the wire
                errors = [c.exception(5.0) for c in calls]
                assert all(isinstance(e, RpcConnectionError)
                           for e in errors)
                # The engine is down, typed — not hung.
                with pytest.raises(RpcConnectionError, match="reconnect"):
                    client.call_async(PROC_INC, 9, xdr_args=xdr_u_long,
                                      xdr_res=xdr_u_long)
                # reconnect() revives the client in place.
                client.reconnect()
                assert client.call(PROC_INC, 41, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long) == 42
            finally:
                client.close()

    def test_deadline_on_a_silent_stream_resolves_typed(self):
        # The peer accepts and reads but never answers: the hard
        # deadline fires and the call resolves typed, no hang.
        silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        try:
            client = MuxTcpClient("127.0.0.1",
                                  silent.getsockname()[1], PROG, VERS,
                                  timeout=0.3)
            try:
                call = client.call_async(PROC_INC, 1, xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long)
                error = call.exception(5.0)
                assert isinstance(error, RpcTimeoutError)
            finally:
                client.close()
        finally:
            silent.close()

    def test_out_of_order_replies_over_the_stream(self):
        with MuxTcpServer(make_registry(), workers=2) as server:
            client = MuxTcpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0)
            try:
                slow = client.call_async(PROC_SLEEP_MS, 300,
                                         xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long)
                fast = client.call_async(PROC_SLEEP_MS, 1,
                                         xdr_args=xdr_u_long,
                                         xdr_res=xdr_u_long)
                assert fast.result(5.0) == 1
                assert not slow.done()
                assert slow.result(5.0) == 300
            finally:
                client.close()

    def test_a_write_backlog_drains_in_order(self):
        # A small send buffer and a peer that reads nothing until the
        # client holds unsent bytes: pipelined large requests spill into
        # the client's write backlog, which the engine pumps as the
        # socket drains.  Every call must come back with its own value
        # (the peer answers with a checksum of the argument it
        # reassembled), so no record was cut, dropped or reordered.
        registry = SvcRegistry()
        registry.register(PROG, VERS, PROC_SUM, zlib.crc32,
                          xdr_payload, xdr_u_long)
        gate = threading.Event()
        payloads = [random.Random(i).randbytes(48_000) for i in range(12)]
        with _TcpPeer(["serve"], registry, gate=gate,
                      rcvbuf=4096) as peer:
            client = MuxTcpClient("127.0.0.1", peer.port, PROG, VERS,
                                  timeout=10.0)
            client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                   4096)
            pumps, pump = [], client._pump

            def counted_pump():
                pumps.append(len(client._outbuf))
                pump()

            client._pump = counted_pump
            try:
                calls = [client.call_async(PROC_SUM, payload,
                                           xdr_args=xdr_payload,
                                           xdr_res=xdr_u_long)
                         for payload in payloads]
                assert _await(lambda: client._outbuf, 5.0)
                gate.set()
                assert [c.result(10.0) for c in calls] == [
                    zlib.crc32(payload) for payload in payloads]
                assert pumps and not client._outbuf
                assert peer.records == len(payloads)
            finally:
                gate.set()
                client.close()
