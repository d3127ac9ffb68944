"""``repro.rpc.svc_core`` — the one server core.

A server transport moves messages: sockets and framing, nothing else.
Everything else is written here once, in :class:`RpcServer`: registry
wiring (fast path, DRC, journal, online specialization, fault plan),
admission (an in-flight cap, or a bounded queue drained by workers),
the two shed paths, the request counters, drain, and the lifecycle.
The per-request path — admit, dispatch, count, send, release — is
built once for the server's configuration (:meth:`RpcServer._stage`),
not re-read per message.

A transport — a subclass — provides:

* ``__init__``: open the sockets — ``self.sock`` is the bound one
  that names the server — and call ``super().__init__(registry,
  **core)``; the sockets it answers on go through ``self._faulty``;
* ``serve_forever()``: the receive loop, until ``self._stop`` is set;
  its one call into the core, per RPC message, is
  ``self._submit(message, peer, reply_to, received_at)``;
* ``_send(reply, reply_to)``: one reply onto the wire, from any thread
  (workers answer through it).  It never raises for a reply the wire
  refuses — ``FaultInjected`` / ``OSError`` there is a *lost reply*,
  which the client's retransmission recovers, and must not end the
  thread that produced it;
* ``_wake()`` (optional — a loop that polls on a socket timeout needs
  none): make a blocked ``serve_forever`` look at ``_stop``;
* ``_close()``: close every socket and join every thread the transport
  opened; idempotent.
"""

import threading

from repro.rpc.durable import attach_journal
from repro.rpc.faults import FaultySocket
from repro.rpc.resilience import InflightLimiter, WorkerPool


class RpcServer:
    """Serves a :class:`~repro.rpc.server.SvcRegistry` (or anything
    with its ``dispatch_bytes``) over the sockets of a subclass.

    ``fastpath`` / ``drc`` turn on the registry's template replies and
    its duplicate-request reply cache; ``drc_dir`` / ``drc_fsync``
    journal that cache (:mod:`repro.rpc.durable`; off unless
    ``drc_dir`` or ``REPRO_DRC_DIR`` names a directory);
    ``online_spec`` attaches a caller-owned
    :class:`~repro.specialized.online.OnlineSpecializer`;
    ``fault_plan`` faults outgoing replies (the reply half of a lossy
    wire; wrap the client to lose requests).

    Admission.  Inline (``workers=0``) a request is dispatched on the
    thread that received it, under an in-flight cap of ``max_inflight``
    (None: uncapped).  ``workers=N`` moves dispatch to a bounded queue
    (``queue_depth``, ``queue_policy`` / ``queue_target_s`` /
    ``queue_interval_s``: see :class:`~repro.rpc.resilience.WorkerPool`)
    drained by N threads.  Either way a request over the bound is
    *shed* — answered at once with ``SYSTEM_ERR`` (never silence, never
    a DRC store) so the client fails over instead of retransmitting
    into a black hole — and so is one the queue's CoDel controller
    gives up on after it waited (reason ``sojourn``).
    """

    def __init__(self, registry, fastpath=False, drc=True,
                 fault_plan=None, max_inflight=None, workers=0,
                 queue_depth=64, queue_policy="codel", queue_target_s=0.005,
                 queue_interval_s=0.1, drc_dir=None, drc_fsync=None,
                 online_spec=None):
        self.registry = registry
        self.host, self.port = self.sock.getsockname()
        self.fault_plan = fault_plan
        if fastpath and hasattr(registry, "enable_fastpath"):
            registry.enable_fastpath()
        if drc and hasattr(registry, "enable_drc"):
            if getattr(registry, "drc", None) is None:
                registry.enable_drc()
        #: DRC persistence: recover the predecessor's replies, then
        #: journal this incarnation's (None when off).
        self.journal = attach_journal(registry, drc_dir=drc_dir,
                                      fsync=drc_fsync)
        # The specializer's lifetime belongs to the caller
        # (``REPRO_ONLINE_SPEC=0`` is a global kill switch).
        if online_spec is not None and hasattr(registry,
                                               "install_profiler"):
            online_spec.attach_server(registry)
            online_spec.ensure_started()
        #: messages dispatched / messages answered with a shed reply
        self.requests_handled = 0
        self.requests_shed = 0
        self._counters_lock = threading.Lock()
        self._limiter = InflightLimiter(max_inflight)
        self._pool = None
        if workers:
            self._pool = WorkerPool(
                workers, queue_depth, lambda item: self._serve(*item),
                name=f"{type(self).__name__}:{self.port}",
                queue_policy=queue_policy,
                queue_target_s=queue_target_s,
                queue_interval_s=queue_interval_s,
                # the CoDel controller gave up on a queued request
                shed_handler=lambda item: self._shed(item[0], item[2],
                                                     "sojourn"),
            )
        #: the per-request path, built once for this configuration
        self._submit = self._stage()
        self._stop = threading.Event()
        self._thread = None

    def _faulty(self, sock):
        """``sock`` as the transport should send replies through it:
        in a :class:`~repro.rpc.faults.FaultySocket` under a fault plan."""
        if self.fault_plan is None:
            return sock
        return FaultySocket(sock, self.fault_plan)

    # -- admission -----------------------------------------------------------

    def _stage(self):
        """``_submit(message, peer, reply_to, received_at)`` built for
        this configuration: queue it (workers), or serve it here under
        the cap (shed over it) or, uncapped, under a lock-free count.
        It stays in flight until its reply is handed to the wire, so a
        drain that returned True has lost no reply."""
        if self._pool is not None:
            return self._enqueue
        limiter, lock, send = self._limiter, self._counters_lock, self._send
        dispatch, capped = self.registry.dispatch_bytes, limiter.limit
        enter, admit, leave = (limiter.enter, limiter.try_acquire,
                               limiter.release)

        def serve_inline(message, peer, reply_to, received_at):
            if capped is None:
                enter(None)
            elif not admit():
                return self._shed(message, reply_to, "queue_full")
            try:
                reply = dispatch(message, caller=peer,
                                 received_at=received_at)
                with lock:
                    self.requests_handled += 1
                if reply is not None:
                    send(reply, reply_to)
            finally:
                leave()
        return serve_inline

    def _enqueue(self, message, peer, reply_to, received_at):
        # bytes(): a transport may reuse its receive buffer.
        if not self._pool.submit((bytes(message), peer, reply_to,
                                  received_at)):
            self._shed(message, reply_to, "queue_full")

    def _serve(self, message, peer, reply_to, received_at):
        """Dispatch one queued request and answer it (a worker)."""
        reply = self.registry.dispatch_bytes(message, caller=peer,
                                             received_at=received_at)
        with self._counters_lock:
            self.requests_handled += 1
        if reply is not None:
            self._send(reply, reply_to)

    def _submit_batch(self, messages, peer, reply_to, received_at):
        """Admit the messages one receive delivered together.

        Inline they share one in-flight slot and one counter update,
        and their replies go together to the transport's
        ``_send_batch(replies, reply_to)``; with workers each is queued
        (or shed) on its own — a full queue sheds the overflow, not
        the batch.
        """
        if self._pool is not None or not self._limiter.try_acquire():
            for message in messages:
                self._submit(message, peer, reply_to, received_at)
            return
        replies = []
        dispatch = self.registry.dispatch_bytes
        try:
            for message in messages:
                reply = dispatch(message, caller=peer,
                                 received_at=received_at)
                if reply is not None:
                    replies.append(reply)
            with self._counters_lock:
                self.requests_handled += len(messages)
            self._send_batch(replies, reply_to)
        finally:
            self._limiter.release()

    def _shed(self, message, reply_to, reason):
        """Answer a refused request with SYSTEM_ERR (bytes that are
        not a recognizable call are counted and get no answer)."""
        reply = None
        if hasattr(self.registry, "shed_reply_bytes"):
            reply = self.registry.shed_reply_bytes(message, reason=reason)
        with self._counters_lock:
            self.requests_shed += 1
        if reply is not None:
            self._send(reply, reply_to)

    # -- drain and lifecycle -------------------------------------------------

    @property
    def inflight(self):
        """Requests currently queued or mid-dispatch."""
        return (self._pool or self._limiter).inflight

    def drain(self, timeout=5.0):
        """Graceful drain: stop taking new work, finish what's queued.

        Puts the registry into drain mode (DRC replays and installed
        health programs keep answering; other requests are shed with
        SYSTEM_ERR) and waits up to ``timeout`` for in-flight requests
        to complete.  The transport keeps running — connections stay
        open — until :meth:`stop`; ``registry.end_drain()`` resumes
        service.  Returns True once idle.
        """
        if hasattr(self.registry, "begin_drain"):
            self.registry.begin_drain()
        return (self._pool or self._limiter).wait_idle(timeout)

    def _wake(self):
        """Interrupt a blocked ``serve_forever`` (default: it polls)."""

    def start(self):
        """Run the server in a daemon thread; returns (host, port)."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            name=f"{type(self).__name__}:{self.port}", daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def stop(self):
        """Stop serving and release everything; idempotent.  Peers of
        a stream transport see their connections severed — drain first
        for a graceful goodbye."""
        self._stop.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if self._pool is not None:
            self._pool.stop()
        self._close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False
