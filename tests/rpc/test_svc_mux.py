"""The batch envelope on the wire (``MuxUdpServer`` is ``UdpServer``),
the staged residual route, and the DRC's fused get+claim (`begin`).

The server-side contract: a batch-envelope datagram is unwrapped and
answered (re-batched) with exactly one handler execution per inner
call; a plain datagram is answered raw (wire-compatible with any Sun
RPC client); overload sheds typed instead of dropping silently; and
the staged route's replies are byte-identical to the generic
dispatcher's.  Drain and the rest of the lifecycle are rows of
``test_server_core.py``, for every server class.
"""

import socket
import struct
import time

from repro.errors import RpcError
from repro.rpc import MuxUdpClient, MuxUdpServer, SvcRegistry
from repro.rpc.drc import DuplicateRequestCache
from repro.rpc.fastpath import ReplyHeaderTemplate
from repro.rpc.mux import pack_batch, unpack_batch
from repro.xdr import xdr_u_long

PROG, VERS = 0x20006666, 1
PROC_INC, PROC_SLEEP_MS = 1, 2

_WORD = struct.Struct(">I")
_REPLY_TAIL = ReplyHeaderTemplate().prefix[4:]
CALLER = ("127.0.0.1", 54321)


def _call_bytes(xid, value, proc=PROC_INC):
    """One well-formed call message (null auth) for the test program."""
    return struct.pack(">10I", xid, 0, 2, PROG, VERS, proc,
                       0, 0, 0, 0) + _WORD.pack(value)


def _ok_reply(xid, value):
    return _WORD.pack(xid) + _REPLY_TAIL + _WORD.pack(value)


def _unpack_args(data, offset):
    return _WORD.unpack_from(data, offset)[0]


def make_registry(invocations=None, staged=False, drc=False):
    reg = SvcRegistry()

    def inc(v):
        if invocations is not None:
            invocations.append(v)
        return (v + 1) & 0xFFFFFFFF

    def sleep_ms(v):
        time.sleep(v / 1000.0)
        return v

    reg.register(PROG, VERS, PROC_INC, inc, xdr_u_long, xdr_u_long)
    reg.register(PROG, VERS, PROC_SLEEP_MS, sleep_ms, xdr_u_long,
                 xdr_u_long)
    if drc:
        reg.enable_drc()
    if staged:
        reg.stage_route(PROG, VERS, PROC_INC,
                        unpack_args=_unpack_args, pack_res=_WORD.pack)
    return reg


class TestMuxUdpServerWire:
    """Raw-socket tests: the envelope contract on the wire."""

    def _client_sock(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(5.0)
        return sock

    def test_batch_unwrapped_and_replies_rebatched(self):
        with MuxUdpServer(make_registry()) as server:
            sock = self._client_sock()
            try:
                batch = pack_batch([_call_bytes(xid, xid * 10)
                                    for xid in (1, 2, 3)])
                sock.sendto(batch, ("127.0.0.1", server.port))
                # Inline dispatch re-batches all three replies into one
                # datagram: one recv syscall gets the whole answer.
                data, _ = sock.recvfrom(65536)
                replies = unpack_batch(data)
                assert replies is not None and len(replies) == 3
                got = {}
                for reply in replies:
                    xid = _WORD.unpack_from(reply, 0)[0]
                    got[xid] = _WORD.unpack_from(reply,
                                                 len(reply) - 4)[0]
                assert got == {1: 11, 2: 21, 3: 31}
                assert server.requests_handled == 3
            finally:
                sock.close()

    def test_single_call_answered_raw(self):
        with MuxUdpServer(make_registry()) as server:
            sock = self._client_sock()
            try:
                sock.sendto(_call_bytes(9, 41), ("127.0.0.1", server.port))
                data, _ = sock.recvfrom(65536)
                # No envelope on a lone reply: any Sun RPC client can
                # parse it.
                assert unpack_batch(data) is None
                assert data == _ok_reply(9, 42)
            finally:
                sock.close()

    def test_truncated_envelope_dropped_but_server_lives(self):
        with MuxUdpServer(make_registry()) as server:
            sock = self._client_sock()
            try:
                mangled = pack_batch([_call_bytes(1, 1)])[:-2]
                sock.sendto(mangled, ("127.0.0.1", server.port))
                sock.sendto(_call_bytes(2, 10), ("127.0.0.1", server.port))
                data, _ = sock.recvfrom(65536)
                assert data == _ok_reply(2, 11)
            finally:
                sock.close()


class TestWorkerPoolOverload:
    def test_overflow_sheds_typed_and_everything_settles(self):
        # One worker, queue depth one, eight concurrent 100ms sleeps:
        # the overflow is shed with a typed reply, not silently
        # dropped — every handle settles within its budget.
        registry = make_registry()
        with MuxUdpServer(registry, workers=1, queue_depth=1) as server:
            client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                                  timeout=5.0, wait=10.0, jitter=0)
            try:
                calls = [
                    client.call_async(PROC_SLEEP_MS, 100,
                                      xdr_args=xdr_u_long,
                                      xdr_res=xdr_u_long)
                    for _ in range(8)
                ]
                outcomes = []
                for call in calls:
                    error = call.exception(10.0)
                    if error is None:
                        assert call.result() == 100
                        outcomes.append("ok")
                    else:
                        assert isinstance(error, RpcError)
                        outcomes.append("shed")
                assert "ok" in outcomes
                assert server.requests_shed > 0
                assert outcomes.count("shed") == server.requests_shed
            finally:
                client.close()


class TestStagedRoute:
    def test_reply_bytes_identical_to_generic_dispatch(self):
        generic = make_registry()
        staged = make_registry(staged=True)
        for xid, value in ((1, 5), (2, 0xFFFFFFFF), (3, 123456)):
            message = _call_bytes(xid, value)
            assert (staged.dispatch_bytes(message, caller=CALLER)
                    == generic.dispatch_bytes(message, caller=CALLER))

    def test_retransmission_replays_without_reexecution(self):
        invocations = []
        registry = make_registry(invocations, staged=True, drc=True)
        message = _call_bytes(7, 10)
        first = registry.dispatch_bytes(message, caller=CALLER)
        assert first == _ok_reply(7, 11)
        assert registry.dispatch_bytes(message, caller=CALLER) == first
        assert invocations == [10]
        assert registry.drc.hits >= 1

    def test_undecodable_args_release_the_claim(self):
        # The route claims the DRC slot before decoding; a decode
        # failure must abandon it so the generic fallback (and any
        # retransmission) is not dropped as "in progress" forever.
        invocations = []
        registry = make_registry(invocations, staged=True, drc=True)
        truncated = _call_bytes(5, 1)[:-4]  # header only, no arg word
        reply = registry.dispatch_bytes(truncated, caller=CALLER)
        assert reply is not None  # generic path answered (garbage args)
        assert invocations == []
        key = DuplicateRequestCache.key(5, CALLER, PROG, VERS, PROC_INC)
        assert registry.drc.begin(key) is not False

    def test_draining_falls_back_to_generic_shed(self):
        invocations = []
        registry = make_registry(invocations, staged=True, drc=True)
        registry.begin_drain()
        reply = registry.dispatch_bytes(_call_bytes(3, 1), caller=CALLER)
        assert invocations == []
        assert reply != _ok_reply(3, 2)
        registry.end_drain()
        assert (registry.dispatch_bytes(_call_bytes(4, 1), caller=CALLER)
                == _ok_reply(4, 2))
        assert invocations == [1]


class TestDrcBegin:
    def test_fused_get_claim_protocol(self):
        drc = DuplicateRequestCache()
        key = DuplicateRequestCache.key(1, CALLER, PROG, VERS, PROC_INC)
        # Fresh key: caller wins the claim and should execute.
        assert drc.begin(key) is True
        assert drc.misses == 1
        # Concurrent duplicate while the original executes: drop.
        assert drc.begin(key) is False
        assert drc.in_progress_drops == 1
        assert drc.misses == 2
        # Recorded reply: replay verbatim.
        drc.put(key, b"the-reply")
        assert drc.begin(key) == b"the-reply"
        assert drc.hits == 1

    def test_abandon_releases_an_unfulfilled_claim(self):
        drc = DuplicateRequestCache()
        key = ("k",)
        assert drc.begin(key) is True
        drc.abandon(key)
        # The slot is free again: the next begin wins a fresh claim
        # instead of being dropped as a duplicate.
        assert drc.begin(key) is True
        assert drc.in_progress_drops == 0
