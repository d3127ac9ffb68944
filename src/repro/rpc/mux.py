"""``repro.rpc.mux`` — the windowed client names.

:class:`MuxUdpClient` and :class:`MuxTcpClient` are
:class:`~repro.rpc.clnt_udp.UdpClient` and
:class:`~repro.rpc.clnt_tcp.TcpClient` with a default window of 64
xids in flight instead of 1 — the same engine
(:mod:`repro.rpc.clnt_core`), the same transports, the same wire
bytes.  What the window buys:

* :meth:`~repro.rpc.clnt_core.CallEngine.call_async` returns a
  :class:`PendingCall` at once, and many of them share one socket,
  driven by whoever waits on them, every call keeping its own
  adaptive retransmission schedule (UDP) and deadline;

* **call batching**: whatever is queued when the driver flushes goes
  out as one transmit — on TCP several record-marked messages in one
  ``send`` (plain pipelining to any record-marking server), on UDP
  several call messages in one datagram wrapped in the *batch
  envelope* of :mod:`repro.rpc.record` (our servers unwrap it; a lone
  message is always sent raw, so single calls stay wire-compatible
  with any Sun RPC server).  The common case costs per transmit, not
  per message: a staged ``call_async`` (no deadline) queues in one
  lock round, a queue that fits is one group armed by one timer rule,
  the envelope is one ``join`` to pack and, for a run of equal-length
  members, one ``Struct`` to read, and a reply datagram is one pass;

* the **DRC claim protocol** is preserved: every call gets a unique
  xid, retransmissions re-send the same bytes, and the server's
  duplicate-request cache keeps execution at-most-once however many
  xids one caller has in flight.

Telemetry: ``rpc.mux.calls`` / ``rpc.mux.inflight`` /
``rpc.mux.batch_size`` / ``rpc.mux.wakeups`` / ``rpc.mux.unknown_xids``
plus the ``mux.flush`` span (see :mod:`repro.obs.catalog`).
"""

from repro.rpc.clnt_core import PendingCall
from repro.rpc.clnt_tcp import TcpClient
from repro.rpc.clnt_udp import UdpClient
from repro.rpc.record import (
    BATCH_MAGIC,
    mark_record,
    pack_batch,
    unpack_batch,
)

__all__ = [
    "BATCH_MAGIC",
    "MuxTcpClient",
    "MuxUdpClient",
    "PendingCall",
    "mark_record",
    "pack_batch",
    "unpack_batch",
]


class MuxUdpClient(UdpClient):
    """A UDP client carrying up to ``max_inflight`` concurrent xids
    over one socket."""

    def __init__(self, host, port, prog, vers, max_inflight=64, **kwargs):
        super().__init__(host, port, prog, vers, **kwargs)
        self.max_inflight = max_inflight


class MuxTcpClient(TcpClient):
    """A TCP client pipelining up to ``max_inflight`` concurrent xids
    over one connection; replies may return in any order."""

    def __init__(self, host, port, prog, vers, max_inflight=64, **kwargs):
        super().__init__(host, port, prog, vers, **kwargs)
        self.max_inflight = max_inflight
