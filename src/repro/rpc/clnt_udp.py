"""UDP RPC client (``clntudp_call`` of the paper's Figure 1): the
datagram transport under the one client engine.

:class:`~repro.rpc.clnt_core.CallEngine` owns the call — xids,
deadlines, the adaptive retransmission schedule, the retry budget,
reply matching, statistics.  This module is the socket and the
framing: a lone call travels as a raw RPC message (wire-compatible
with any Sun RPC server), several queued calls share one datagram in
the batch envelope of :mod:`repro.rpc.record`, and silence past a
call's window means *send it again*.

``wait`` is the initial receive window; each silent retry grows it by
``backoff`` (default double), up to ``max_wait``, with ± ``jitter``
relative randomization so a fleet of clients does not retransmit in
lockstep.  ``retrans_seed`` makes the jitter deterministic (tests);
``jitter=0`` disables it.  Undecodable datagrams (corruption,
truncation) are counted and discarded like stale xids instead of
failing the call — retransmission recovers the reply from the server,
whose duplicate-request cache replays it without re-executing the
handler.
"""

import random
import socket

from repro.errors import RpcConnectionError, RpcProtocolError
from repro.rpc.client import UDPMSGSIZE
from repro.rpc.clnt_core import IDLE_TICK_S, CallEngine
from repro.rpc.faults import FaultySocket
from repro.rpc.record import kernel_timeout, pack_batch, unpack_batch

__all__ = ["UdpClient"]


class UdpClient(CallEngine):
    """An RPC client over UDP, one call in flight at a time
    (:class:`~repro.rpc.mux.MuxUdpClient` is the same class with a
    window of 64).

    ``retry_budget`` — an optional
    :class:`~repro.rpc.overload.RetryBudget` gating retransmissions:
    calls deposit, retransmits withdraw, and a dry bucket fails the
    call with :class:`~repro.errors.RpcRetryBudgetExhausted` instead of
    feeding a retry storm.  ``fault_plan`` wraps the socket in a
    :class:`~repro.rpc.faults.FaultySocket` faulting outgoing requests.
    """

    _transport = "udp"
    retransmits = True

    def __init__(
        self,
        host,
        port,
        prog,
        vers,
        timeout=5.0,
        wait=0.5,
        max_wait=None,
        backoff=2.0,
        jitter=0.1,
        retrans_seed=None,
        bufsize=UDPMSGSIZE,
        fastpath=False,
        fault_plan=None,
        retry_budget=None,
        **kwargs,
    ):
        super().__init__(prog, vers, timeout, fastpath=fastpath,
                         bufsize=bufsize, **kwargs)
        self.retry_budget = retry_budget
        self.address = (host, port)
        self.wait = wait
        self.max_wait = max_wait if max_wait is not None else max(
            wait, timeout / 2.0
        )
        self.backoff = backoff
        self.jitter = jitter
        self._jitter_rng = random.Random(retrans_seed)
        self.sock = kernel_timeout(
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM), IDLE_TICK_S)
        if fault_plan is not None:
            self.sock = FaultySocket(self.sock, fault_plan)
        #: a batch datagram is capped at what either end will accept
        self._batch_limit = min(UDPMSGSIZE, self.bufsize)
        #: the driver's private receive buffer (single reader)
        self._recv_buffer = bytearray(self.bufsize)
        self._recv_view = memoryview(self._recv_buffer)

    def _transmit(self, requests):
        payload = requests[0] if len(requests) == 1 else pack_batch(requests)
        try:
            self.sock.sendto(payload, self.address)
        except OSError:
            pass  # unreachable peer: the retransmit timer recovers
        return len(payload)

    def _receive(self, flags):
        try:
            nbytes = self.sock.recv_into(self._recv_buffer, 0, flags)
        except OSError as exc:
            if self.sock.fileno() < 0:
                raise RpcConnectionError(f"socket closed: {exc}") from exc
            return None  # nothing arrived (or an ICMP error surfacing)
        data = self._recv_view[:nbytes]
        if nbytes < 5 or self._recv_buffer[4] != 0xFF:
            # msg_type's top byte is 0 in every RPC message and 0xFF
            # in a batch envelope: the common case skips the unwrap
            return (data,)
        try:
            messages = unpack_batch(data)
        except RpcProtocolError:
            self._garbage()
            return ()
        return (data,) if messages is None else messages

    def _close_socket(self):
        self.sock.close()
