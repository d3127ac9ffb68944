"""TCP RPC server transport (``svctcp``) with record marking."""

import socket
import threading
import time

from repro import obs as _obs
from repro.errors import FaultInjected, RpcProtocolError
from repro.rpc.record import kernel_timeout, read_record, write_record
from repro.rpc.svc_core import RpcServer


def _sever(conn):
    """Shut a connection down: its reader — here and at the peer —
    sees end-of-stream at once, and the thread serving it closes it."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class TcpServer(RpcServer):
    """Serves a :class:`~repro.rpc.server.SvcRegistry` over TCP, one
    daemon thread per accepted connection, each processing
    record-marked calls until the peer disconnects.

    Dispatch is inline on the connection's thread, so the only
    admission bound is ``max_inflight`` (concurrent dispatches across
    all connections; see :class:`~repro.rpc.svc_core.RpcServer`).
    ``workers`` is rejected: two workers answering one stream would
    interleave their records (:class:`~repro.rpc.svc_mux.MuxTcpServer`
    routes worker replies through its loop for that reason).

    ``drc=True`` keys the reply cache per peer — duplicates cannot
    arise inside one healthy TCP stream, but a client that reconnects
    and replays an xid after a torn connection is answered from the
    cache rather than re-executing the handler.

    ``fault_plan`` wraps every accepted connection (stream semantics:
    delay, corrupt, abort).
    """

    def __init__(self, registry, host="127.0.0.1", port=0, backlog=16,
                 **core):
        if "workers" in core:
            raise TypeError(
                "TcpServer dispatches on the connection's own thread and"
                " takes no workers (they would interleave records on one"
                " stream): bound it with max_inflight, or use MuxTcpServer"
            )
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen(backlog)
        self.sock.settimeout(0.2)
        #: live connections: raw socket -> its serving thread
        self._conns = {}
        self._conns_lock = threading.Lock()
        self.connections_accepted = 0
        super().__init__(registry, **core)

    def _serve_connection(self, raw_conn, peer):
        # an idle peer is let go after 30 s: a kernel timeout, so
        # CPython polls before no read and no send of a record
        conn = self._faulty(kernel_timeout(raw_conn, 30.0))
        try:
            while not self._stop.is_set():
                try:
                    data = read_record(conn)
                except (RpcProtocolError, OSError):
                    # RpcConnectionError subclasses RpcProtocolError:
                    # a lost or misbehaving peer ends this connection
                    # thread, never the server.
                    return
                self._submit(data, peer, conn, time.monotonic())
        finally:
            conn.close()
            with self._conns_lock:
                self._conns.pop(raw_conn, None)

    def _send(self, reply, conn):
        try:
            write_record(conn, reply)
        except (RpcProtocolError, FaultInjected, OSError):
            # A record that did not go out whole leaves the stream
            # unusable: sever it, and the connection's next read ends
            # its thread.
            _sever(conn)

    def serve_forever(self):
        while not self._stop.is_set():
            try:
                conn, addr = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                if self._stop.is_set():
                    return
                raise
            self.connections_accepted += 1
            if _obs.enabled:
                _obs.registry.counter("rpc.server.connections",
                                      transport="tcp").inc()
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, addr), daemon=True
            )
            with self._conns_lock:
                self._conns[conn] = thread
            thread.start()

    def _close(self):
        # Sever established connections so peers observe the stop as
        # RpcConnectionError immediately — a connection thread blocked
        # in read_record() would otherwise keep answering until its
        # socket timeout.
        with self._conns_lock:
            conns = list(self._conns.items())
        for conn, _thread in conns:
            _sever(conn)
        for _conn, thread in conns:
            thread.join(timeout=2.0)
        self.sock.close()
