"""TCP RPC client (``clnttcp_call``): the record-marked stream
transport under the one client engine.

:class:`~repro.rpc.clnt_core.CallEngine` owns the call; this module is
the connection and the framing.  Requests go out as record-marked
messages (RFC 1057 §10), several queued calls coalesced into one
``send`` — plain pipelining to any record-marking server; replies are
reassembled by a :class:`~repro.rpc.record.RecordAssembler` whose
state survives a timed-out call, so a reply that straggles in after
its caller gave up is dropped as a stale xid instead of desyncing the
stream.  A stream never retransmits: a call ends at its timeout or
deadline.

Every wire failure is a typed :class:`~repro.errors.RpcError`:
connection loss (reset, broken pipe, EOF, an unframeable record)
resolves every call in flight with
:class:`~repro.errors.RpcConnectionError`, later calls raise the same
until :meth:`TcpClient.reconnect` revives the client in place —
callers never see ``struct.error`` or a bare ``OSError``.
"""

import socket
from socket import MSG_DONTWAIT

from repro.errors import (
    RpcConnectionError,
    RpcDeadlineExceeded,
    RpcTimeoutError,
)
from repro.rpc.clnt_core import IDLE_TICK_S, CallEngine
from repro.rpc.faults import FaultySocket
from repro.rpc.record import RecordAssembler, kernel_timeout, mark_record

__all__ = ["TcpClient"]

_RECV_CHUNK = 1 << 16


class TcpClient(CallEngine):
    """An RPC client over a persistent TCP connection, one call in
    flight at a time (:class:`~repro.rpc.mux.MuxTcpClient` is the same
    class with a window of 64).  ``fault_plan`` wraps the socket in a
    :class:`~repro.rpc.faults.FaultySocket`."""

    _transport = "tcp"
    #: one coalesced send carries at most this much
    _batch_limit = 1 << 20

    def __init__(self, host, port, prog, vers, timeout=25.0, bufsize=1 << 16,
                 fastpath=False, fault_plan=None, **kwargs):
        super().__init__(prog, vers, timeout, fastpath=fastpath,
                         bufsize=bufsize, **kwargs)
        self.address = (host, port)
        self._fault_plan = fault_plan
        #: successful :meth:`reconnect` calls over the client's lifetime
        self.reconnects = 0
        self._assembler = RecordAssembler()
        self._outbuf = bytearray()
        self.sock = self._connect(timeout)

    def _connect(self, timeout):
        """A connected (and fault-wrapped) socket to ``self.address``,
        under the engine's kernel timeout."""
        host, port = self.address
        try:
            sock = socket.create_connection(self.address, timeout=timeout)
        except socket.timeout as exc:
            raise RpcTimeoutError(
                f"connect to {host}:{port} timed out after {timeout}s"
            ) from exc
        except OSError as exc:
            raise RpcConnectionError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        kernel_timeout(sock, IDLE_TICK_S)
        if self._fault_plan is not None:
            sock = FaultySocket(sock, self._fault_plan)
        return sock

    def reconnect(self, deadline=None):
        """Re-establish the connection after a connection failure.

        Calls still pending resolve with
        :class:`~repro.errors.RpcConnectionError` like any connection
        death, and per-connection state is reset so the revived client
        starts clean: reassembly state and unsent bytes are dropped
        with the old socket.  ``deadline`` bounds the connect
        attempt (it draws from the same per-call budget as everything
        else).
        """
        deadline, timeout = self._clamp(deadline, "reconnect")
        self._halt(
            "reconnecting",
            lambda call: f"reconnect with call (proc={call.proc},"
                         f" xid={call.xid}) in flight",
        )
        self._close_socket()
        try:
            self.sock = self._connect(timeout)
        except RpcTimeoutError:
            if deadline is not None and deadline.expired:
                raise RpcDeadlineExceeded(
                    f"deadline exceeded reconnecting to {self.address}"
                ) from None
            raise
        self._assembler = RecordAssembler()
        self._outbuf = bytearray()
        self._down = None
        self.reconnects += 1
        return self

    def _transmit(self, requests):
        chunk = (mark_record(requests[0]) if len(requests) == 1
                 else b"".join(map(mark_record, requests)))
        size = len(chunk)
        if self._outbuf:
            self._outbuf += chunk  # behind what is already waiting
            self._pump()
        else:
            sent = self._send(chunk)
            if sent < size:
                self._outbuf += chunk[sent:]
        return size

    def _send(self, data):
        """Write what the socket accepts of ``data``; returns how much
        (connection death: all of it — there is nothing left to send)."""
        try:
            return self.sock.send(data, MSG_DONTWAIT)
        except (BlockingIOError, InterruptedError):
            return 0
        except OSError as exc:
            self._connection_lost(exc)
            return len(data)

    def _pump(self):
        """Write as much buffered output as the socket accepts."""
        while self._outbuf:
            sent = self._send(self._outbuf)
            if not sent:
                return
            del self._outbuf[:sent]

    def _receive(self, flags):
        try:
            chunk = self.sock.recv(_RECV_CHUNK, flags)
        except (BlockingIOError, InterruptedError):
            return None
        except OSError as exc:
            raise RpcConnectionError(str(exc)) from exc
        if not chunk:
            raise RpcConnectionError("peer closed the connection")
        return self._assembler.feed(chunk)

    def _close_socket(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
