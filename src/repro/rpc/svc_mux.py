"""``repro.rpc.svc_mux`` — the readiness-driven (event-loop) TCP server.

:class:`~repro.rpc.svc_tcp.TcpServer` spends a thread per connection.
:class:`MuxTcpServer` multiplexes accept, read and write readiness for
every connection in one :mod:`selectors` loop: per-connection
incremental record reassembly
(:class:`repro.rpc.record.RecordAssembler`) and buffered writes with
write-interest registration under backpressure.  No thread per
connection: 1,000 idle connections cost 1,000 registered keys, not
1,000 stacks.

Everything that is not sockets and framing — the registry's
generic/fastpath/DRC paths, admission, shedding, drain, the lifecycle —
is :class:`~repro.rpc.svc_core.RpcServer`'s, as for every transport.
``workers=0`` dispatches inline on the loop thread, the fastest
configuration for cheap handlers (no cross-thread handoff);
``workers=N`` hands decoded requests to the core's bounded pool, and
the replies ride back to the loop thread for transmission (only it
writes to a connection, so records never interleave).

Telemetry: ``rpc.mux.wakeups{side=server}`` and
``rpc.mux.batch_size{side=server}`` complement the client-side series
(see :mod:`repro.obs.catalog`).
"""

import collections
import selectors
import socket
import threading
import time

from repro import obs as _obs
from repro.errors import FaultInjected, RpcProtocolError
from repro.rpc.record import RecordAssembler, mark_record
from repro.rpc.svc_core import RpcServer
from repro.rpc.svc_udp import UdpServer

#: There is no event-loop UDP server — one datagram socket needs no
#: readiness loop.  The name stays for the one UDP server, which
#: understands the call engine's batch envelope.
MuxUdpServer = UdpServer

_WAKEUPS = ("counter", "rpc.mux.wakeups", ("side", "server"),
            ("transport", "tcp"))
_BATCH_SIZE = ("histogram", "rpc.mux.batch_size", ("side", "server"),
               ("transport", "tcp"))


class _MuxConn:
    """Per-connection state for :class:`MuxTcpServer`."""

    __slots__ = ("sock", "peer", "assembler", "outbuf", "writing")

    def __init__(self, sock, peer, max_record):
        self.sock = sock
        self.peer = peer
        self.assembler = RecordAssembler(max_size=max_record)
        self.outbuf = bytearray()
        #: registered for EVENT_WRITE (backpressure) when True
        self.writing = False


class MuxTcpServer(RpcServer):
    """Event-loop TCP server: one thread, N connections.

    Pipelined requests on one connection are answered in arrival
    order; several replies ready at once coalesce into one ``send``.
    ``max_inflight`` sheds (SYSTEM_ERR) over the cap exactly like
    :class:`~repro.rpc.svc_tcp.TcpServer`.
    """

    def __init__(self, registry, host="127.0.0.1", port=0, backlog=128,
                 max_record=1 << 24, **core):
        self.max_record = max_record
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen(backlog)
        self.sock.setblocking(False)
        self.connections_accepted = 0
        #: live connections by file descriptor (the selector key's)
        self._conns = {}
        #: worker-produced replies on their way back to the loop thread
        self._replyq = collections.deque()
        self._replyq_lock = threading.Lock()
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                self._on_wakeup)
        self._selector.register(self.sock, selectors.EVENT_READ,
                                self._on_accept)
        super().__init__(registry, **core)

    # -- the event loop ------------------------------------------------------

    def serve_forever(self):
        while not self._stop.is_set():
            events = self._selector.select(timeout=0.2)
            if _obs.enabled:
                _obs.registry.cells[_WAKEUPS].inc()
            for key, mask in events:
                if self._stop.is_set():
                    return
                key.data(key, mask)
            self._flush_replies()

    def _wake(self):
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # full (a wake-up is already pending) or closed

    def _on_wakeup(self, key, mask):
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass  # drained (BlockingIOError) or closed

    def _on_accept(self, key, mask):
        while not self._stop.is_set():
            try:
                raw, peer = self.sock.accept()
            except OSError:
                return  # backlog drained (BlockingIOError) or closed
            raw.setblocking(False)
            wire = self._faulty(raw)
            conn = _MuxConn(wire, peer, self.max_record)
            self._conns[raw.fileno()] = conn
            self.connections_accepted += 1
            if _obs.enabled:
                _obs.registry.counter("rpc.server.connections",
                                      transport="tcp").inc()
            self._selector.register(wire, selectors.EVENT_READ,
                                    self._on_conn_event)

    def _on_conn_event(self, key, mask):
        conn = self._conns[key.fd]
        if mask & selectors.EVENT_READ:
            self._read_conn(conn)
        if mask & selectors.EVENT_WRITE:
            self._write_conn(conn)

    def _read_conn(self, conn):
        while True:
            try:
                chunk = conn.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                return
            except (FaultInjected, OSError):
                self._close_conn(conn)
                return
            if not chunk:
                self._close_conn(conn)
                return
            try:
                records = conn.assembler.feed(chunk)
            except RpcProtocolError:
                # A desynced or abusive peer ends its own connection,
                # never the server.
                self._close_conn(conn)
                return
            if records and _obs.enabled:
                _obs.registry.cells[_BATCH_SIZE].observe(len(records))
            received_at = time.monotonic()
            for record in records:
                self._submit(record, conn.peer, conn, received_at)
            if len(chunk) < (1 << 16):
                return

    # -- replies -------------------------------------------------------------

    def _send(self, reply, conn):
        if self._pool is None:
            self._queue_reply(conn, reply)  # inline: the loop thread
            return
        # With workers the caller may be one of them, and only the loop
        # thread may touch a connection: hand the reply over and wake it.
        with self._replyq_lock:
            self._replyq.append((conn, reply))
        self._wake()

    def _flush_replies(self):
        """Drain worker replies onto their connections (loop thread)."""
        while True:
            with self._replyq_lock:
                if not self._replyq:
                    return
                conn, reply = self._replyq.popleft()
            self._queue_reply(conn, reply)

    def _queue_reply(self, conn, reply):
        """Append a record-marked reply and pump the connection."""
        if conn.sock.fileno() < 0:
            return  # connection already closed
        conn.outbuf += mark_record(reply)
        self._write_conn(conn)

    def _write_conn(self, conn):
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except (FaultInjected, OSError):
                self._close_conn(conn)
                return
            if sent <= 0:
                break
            del conn.outbuf[:sent]
        # Register/unregister write interest as backpressure demands.
        backlog = bool(conn.outbuf)
        if backlog != conn.writing:
            conn.writing = backlog
            self._selector.modify(
                conn.sock, selectors.EVENT_READ
                | (selectors.EVENT_WRITE if backlog else 0),
                self._on_conn_event)

    def _close_conn(self, conn):
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        self._conns.pop(conn.sock.fileno(), None)
        try:
            conn.sock.close()
        except OSError:
            pass

    def _close(self):
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        self._selector.close()
        for sock in (self._wake_r, self._wake_w, self.sock):
            sock.close()
