"""UDP RPC server transport (``svcudp``)."""

import socket
import time

from repro import obs as _obs
from repro.errors import FaultInjected, RpcProtocolError
from repro.rpc.client import UDPMSGSIZE
from repro.rpc.record import (batch_groups, kernel_timeout, pack_batch,
                              unpack_batch)
from repro.rpc.svc_core import RpcServer

#: static ``registry.cells`` keys of the per-datagram updates
_DATAGRAMS = ("counter", "rpc.server.datagrams", ("transport", "udp"))
_BATCH_SIZE = ("histogram", "rpc.mux.batch_size", ("side", "server"),
               ("transport", "udp"))


class UdpServer(RpcServer):
    """Serves a :class:`~repro.rpc.server.SvcRegistry` over UDP: one
    blocking receive per datagram (a lone datagram socket needs no
    readiness loop).

    Usable inline (``handle_once`` in a loop) or as a daemon thread
    (``start``/``stop``), which is how the tests and examples run
    loopback round-trips.  Admission, shedding, drain and the
    lifecycle are :class:`~repro.rpc.svc_core.RpcServer`'s; ``drc=True``
    (the default) matters most here — the UDP retransmission discipline
    makes duplicate requests a fact of life on this transport.

    A datagram carrying the call engine's batch envelope
    (:func:`repro.rpc.record.unpack_batch`) is unwrapped and each inner
    call dispatched; inline, the replies are re-batched into reply
    datagrams of at most ``bufsize`` bytes, so a 32-call batch costs
    one receive and one send syscall instead of 64.  A plain datagram
    is answered plain, wire-compatible with any Sun RPC client.

    ``fault_plan`` wraps the server socket.
    """

    def __init__(self, registry, host="127.0.0.1", port=0,
                 bufsize=UDPMSGSIZE, **core):
        self.bufsize = bufsize
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((host, port))
        # the idle tick that looks at _stop: a kernel timeout, so
        # CPython polls before no receive and no send
        kernel_timeout(self.sock, 0.2)
        #: the one receive buffer (the receive loop is not reentrant;
        #: the core copies a message before handing it to a worker)
        self._recv_buffer = bytearray(bufsize)
        self._recv_view = memoryview(self._recv_buffer)
        super().__init__(registry, **core)
        self.sock = self._faulty(self.sock)

    def handle_once(self):
        """Receive and handle (or enqueue) one datagram; returns True
        if one was received, False on the socket's (kernel) timeout."""
        try:
            nbytes, addr = self.sock.recvfrom_into(self._recv_buffer)
        except BlockingIOError:
            return False
        if not nbytes:
            return True  # no message (stop()'s wake-up is one of these)
        received_at = time.monotonic()
        data = self._recv_view[:nbytes]
        if _obs.enabled:
            _obs.registry.cells[_DATAGRAMS].inc()
        if nbytes < 5 or self._recv_buffer[4] != 0xFF:
            # msg_type's top byte is 0 in any RPC message and 0xFF in a
            # batch envelope: a plain datagram skips the unwrap
            self._submit(data, addr, addr, received_at)
            return True
        try:
            messages = unpack_batch(data)
        except RpcProtocolError:
            return True  # truncated envelope: drop like any garbage
        if messages is None:
            self._submit(data, addr, addr, received_at)
        else:
            if _obs.enabled:
                _obs.registry.cells[_BATCH_SIZE].observe(len(messages))
            self._submit_batch(messages, addr, addr, received_at)
        return True

    def serve_forever(self):
        while not self._stop.is_set():
            try:
                self.handle_once()
            except BlockingIOError:
                continue  # the idle tick (a handle_once may not catch it)
            except OSError:
                if self._stop.is_set():
                    return
                raise

    def _send(self, reply, addr):
        try:
            self.sock.sendto(reply, addr)
        except (FaultInjected, OSError):
            pass  # a lost reply is the client's retransmit to recover

    def _send_batch(self, replies, addr):
        """Send replies, re-batching under the datagram size cap."""
        for group in batch_groups(replies, self.bufsize):
            # No envelope on a lone reply: any Sun RPC client parses it.
            self._send(group[0] if len(group) == 1 else pack_batch(group),
                       addr)

    def _wake(self):
        # An empty datagram ends the blocking receive now instead of at
        # its next timeout; from a throw-away socket, so a fault plan's
        # seeded draw sequence is not disturbed.
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.sendto(b"", (self.host, self.port))
        except OSError:
            pass

    def _close(self):
        self.sock.close()
