"""``repro.rpc.mux`` — the concurrent call engine (client side).

The serial clients (:mod:`repro.rpc.clnt_udp`, :mod:`repro.rpc.clnt_tcp`)
allow exactly one outstanding xid: throughput at concurrency N costs N
threads, each parked in its own ``select``.  This module multiplexes
many in-flight xids over *one* socket:

* :meth:`MuxUdpClient.call_async` / :meth:`MuxTcpClient.call_async`
  return a :class:`PendingCall` — a waitable, future-style handle —
  and a single background **demux loop** per client matches replies to
  pending calls by xid, enforces per-call deadlines, and (on UDP)
  runs the adaptive retransmission discipline for every call
  concurrently.  The demux loop is the socket's *only* reader, which
  retires the shared-socket wakeup races of the serial path.

* **Call batching**: submissions are queued and the demux loop
  coalesces whatever is queued at flush time into one transmit — on
  TCP, several record-marked messages in one ``send`` (pipelining
  over the stream, wire-compatible with any record-marking server);
  on UDP, several call messages in one datagram wrapped in the
  *batch envelope* of :mod:`repro.rpc.record` (our servers unwrap
  it; a lone message is always sent raw, so single calls stay
  wire-compatible with any Sun RPC server).  ``batch_window_s``
  optionally holds the first queued call back a moment to gather a
  fuller batch.

* The **fast path** composes: requests are built from the pre-serialized
  header templates with in-place xid patching, and replies are matched
  against the accepted-SUCCESS template with one slice compare
  (:meth:`~repro.rpc.client.RpcClient.parse_reply`).

* The **DRC claim protocol** is preserved: every call gets a unique
  xid from the client's counter, retransmissions re-send the same
  bytes, and the server's duplicate-request cache keeps execution
  exactly-once per incarnation even with many xids in flight from one
  caller.

Telemetry: ``rpc.mux.calls`` / ``rpc.mux.inflight`` /
``rpc.mux.batch_size`` / ``rpc.mux.wakeups`` / ``rpc.mux.unknown_xids``
plus the ``mux.flush`` span (see :mod:`repro.obs.catalog`).
"""

import collections
import select
import socket
import threading
import time

from repro import obs as _obs
from repro.errors import (
    FaultInjected,
    RpcConnectionError,
    RpcDeadlineExceeded,
    RpcError,
    RpcProtocolError,
    RpcRetryBudgetExhausted,
    RpcTimeoutError,
    XdrError,
)
from repro.rpc.client import UDPMSGSIZE
from repro.rpc.clnt_tcp import TcpClient
from repro.rpc.clnt_udp import CallStats, UdpClient
from repro.rpc.overload import stamp_deadline
from repro.rpc.record import (
    BATCH_MAGIC,
    RecordAssembler,
    batch_groups,
    mark_record,
    pack_batch,
    unpack_batch,
)
from repro.rpc.resilience import Deadline

__all__ = [
    "BATCH_MAGIC",
    "MuxTcpClient",
    "MuxUdpClient",
    "PendingCall",
    "mark_record",
    "pack_batch",
    "unpack_batch",
]


class PendingCall:
    """A waitable handle for one in-flight multiplexed call.

    :meth:`result` blocks until the demux loop completes the call —
    with the decoded value, or by re-raising the typed
    :class:`~repro.errors.RpcError` the call resolved to.  The engine
    always resolves every pending call (reply, timeout, deadline, or
    connection death), so :meth:`result` cannot hang past the call's
    budget.

    Completion is signaled through the owning client's *shared*
    condition variable rather than a per-call ``threading.Event`` —
    at tens of thousands of calls per second, one Event (a Condition
    plus a Lock) per call is measurable allocation and locking cost.
    The ``_done`` flag is written under that condition's lock, after
    ``_value``/``_error``, so the unlocked fast-path read in
    :meth:`result` is safe under the GIL.
    """

    __slots__ = ("xid", "proc", "request", "xdr_res", "deadline", "stats",
                 "started", "hard_end", "window", "next_send_at",
                 "queued_at", "_cond", "_done", "_value", "_error")

    def __init__(self, cond, xid, proc, request, xdr_res, deadline,
                 started, hard_end, window):
        self._cond = cond
        self.xid = xid
        self.proc = proc
        self.request = request
        self.xdr_res = xdr_res
        self.deadline = deadline
        self.stats = CallStats(proc)
        self.started = started
        self.queued_at = started
        self.hard_end = hard_end
        #: current backoff window (UDP retransmission)
        self.window = window
        #: monotonic time of the next retransmission (UDP)
        self.next_send_at = hard_end
        self._done = False
        self._value = None
        self._error = None

    def done(self):
        return self._done

    def wait(self, timeout=None):
        """Block until resolved; True when done (like Event.wait)."""
        if self._done:
            return True
        with self._cond:
            if timeout is None:
                while not self._done:
                    self._cond.wait()
                return True
            end = time.monotonic() + timeout
            while not self._done:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def result(self, timeout=None):
        """The call's value; re-raises its typed error.

        ``timeout`` is a safety net for callers that want to poll — the
        engine itself bounds every call by its deadline/timeout budget.
        """
        if not self.wait(timeout):
            raise RpcTimeoutError(
                f"mux call (proc={self.proc}, xid={self.xid}) still"
                f" pending after a {timeout}s result() wait"
            )
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout=None):
        """The typed error the call resolved to, or None."""
        if not self.wait(timeout):
            raise RpcTimeoutError(
                f"mux call (proc={self.proc}, xid={self.xid}) still"
                f" pending after a {timeout}s exception() wait"
            )
        return self._error

    def __repr__(self):
        state = ("done" if self._done else "pending")
        return f"PendingCall(xid={self.xid}, proc={self.proc}, {state})"


class _MuxEngine:
    """The shared demux machinery: pending table, send queue, wakeup
    pipe, completion plumbing.  Transport specifics (how to flush, how
    to drain the socket, which timers to run) live in the clients."""

    def _init_engine(self, max_inflight, batch_window_s, max_batch_bytes):
        self.max_inflight = max_inflight
        self.batch_window_s = batch_window_s
        self.max_batch_bytes = max_batch_bytes
        self._pending = {}
        self._sendq = collections.deque()
        self._mux_lock = threading.Lock()
        #: completion + window-admission signaling, sharing _mux_lock
        #: (one lock round-trip resolves a call AND wakes its waiter).
        self._cond = threading.Condition(self._mux_lock)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._loop_thread = None
        #: cheap liveness flag for the submit fast path — a
        #: Thread.is_alive() per call is a measurable lock round-trip.
        self._loop_alive = False
        self._closed = False
        #: transmit flushes performed / messages they carried — the
        #: ratio is the realized batch size.
        self.batches_sent = 0
        self.messages_batched = 0
        #: replies bearing an xid with no pending call (late retransmit
        #: answers, duplicates after completion)
        self.unknown_xids = 0
        #: earliest pending timer (hard deadline or retransmit), a
        #: conservative lower bound: the loop skips its O(window) timer
        #: scan entirely while ``now`` is before this.  Lowered (under
        #: the lock) wherever a timer is armed; recomputed exactly by
        #: each scan.  A stale-low value costs one redundant scan, never
        #: a missed timer.
        self._timer_floor = float("inf")

    @property
    def inflight(self):
        with self._mux_lock:
            return len(self._pending)

    def _wake(self):
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full == a wakeup is already queued

    def _drain_wakeups(self):
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _ensure_loop(self):
        with self._mux_lock:
            if self._loop_thread is None or not self._loop_thread.is_alive():
                self._loop_thread = threading.Thread(
                    target=self._run_demux,
                    name=f"mux-demux:{self._transport}", daemon=True,
                )
                self._loop_thread.start()

    def _run_demux(self):
        self._loop_alive = True
        try:
            self._demux_loop()
        finally:
            self._loop_alive = False

    def _submit(self, proc, args, xdr_args, xdr_res, deadline):
        """Common ``call_async`` body: admission, build, enqueue."""
        if self._closed:
            raise RpcConnectionError("mux client is closed")
        deadline = Deadline.coerce(deadline)
        budget = self.timeout
        if deadline is not None:
            budget = min(budget, deadline.check(f"proc={proc}"))
        xid = self.next_xid()
        if (self.propagate_deadline and deadline is not None
                and proc not in self._codecs):
            # Deadline propagation: a mutable request carrying the
            # remaining budget, re-stamped on every retransmission.
            request = self.build_call_deadline(xid, proc, args,
                                               xdr_args, deadline)
        else:
            request = self.build_call(xid, proc, args, xdr_args)
        retry_budget = getattr(self, "retry_budget", None)
        if retry_budget is not None:
            retry_budget.note_call()
        now = time.monotonic()
        hard_end = now + self.timeout
        if deadline is not None:
            hard_end = min(hard_end, deadline.expires_at)
        call = PendingCall(self._cond, xid, proc, request, xdr_res,
                           deadline, now, hard_end, self._initial_window())
        with self._cond:
            # Window admission shares the completion condition: every
            # _complete notify also re-checks admission waiters, so one
            # lock round-trip covers both.
            if len(self._pending) >= self.max_inflight:
                admit_by = time.monotonic() + budget
                while len(self._pending) >= self.max_inflight:
                    if self._closed:
                        raise RpcConnectionError("mux client is closed")
                    remaining = admit_by - time.monotonic()
                    if remaining <= 0:
                        raise RpcTimeoutError(
                            f"mux window full: {self.max_inflight} calls"
                            f" already in flight and none completed"
                            f" within {budget:.3f}s"
                        )
                    self._cond.wait(remaining)
            if self._closed:
                raise RpcConnectionError("mux client is closed")
            self._pending[xid] = call
            if hard_end < self._timer_floor:
                self._timer_floor = hard_end
            # The wakeup byte is only needed on the empty->nonempty
            # transition: whoever queued the head already woke the
            # loop, and a nonempty queue keeps its select timeout at
            # zero (_next_wakeup_in).  Skipping the redundant send
            # syscall per submit matters — it is a GIL handoff.
            need_wake = not self._sendq
            self._sendq.append(call)
            inflight = len(self._pending)
        if _obs.enabled:
            tier = ("specialized" if proc in self._codecs
                    else "fastpath" if self.fastpath_enabled
                    else "generic")
            _obs.registry.counter("rpc.client.calls",
                                  transport=self._transport,
                                  tier=tier).inc()
            _obs.registry.counter("rpc.mux.calls",
                                  transport=self._transport).inc()
            _obs.registry.gauge("rpc.mux.inflight",
                                transport=self._transport).set(inflight)
        if not self._loop_alive:
            self._ensure_loop()
        if need_wake:
            self._wake()
        return call

    def call_async_many(self, proc, args_list, xdr_args=None, xdr_res=None,
                        deadline=None):
        """Submit several calls to one procedure in a single admission
        pass; returns their :class:`PendingCall` handles in order.

        This is the explicit form of call batching: per-call locking,
        wakeup checks, and timestamping are paid once per burst, and a
        burst that fits the window rides to the transport as one flush.
        Calls the window cannot admit within the timeout budget (or
        that a concurrent :meth:`close` interrupts) are *resolved* with
        the typed error rather than raised — every returned handle
        settles individually, exactly like :meth:`call_async` results.
        """
        if self._closed:
            raise RpcConnectionError("mux client is closed")
        deadline = Deadline.coerce(deadline)
        budget = self.timeout
        if deadline is not None:
            budget = min(budget, deadline.check(f"proc={proc}"))
        now = time.monotonic()
        hard_end = now + self.timeout
        if deadline is not None:
            hard_end = min(hard_end, deadline.expires_at)
        window = self._initial_window()
        cond = self._cond
        retry_budget = getattr(self, "retry_budget", None)
        propagate = (self.propagate_deadline and deadline is not None
                     and proc not in self._codecs)
        calls = []
        for args in args_list:
            xid = self.next_xid()
            if propagate:
                request = self.build_call_deadline(xid, proc, args,
                                                   xdr_args, deadline)
            else:
                request = self.build_call(xid, proc, args, xdr_args)
            if retry_budget is not None:
                retry_budget.note_call()
            calls.append(PendingCall(cond, xid, proc, request, xdr_res,
                                     deadline, now, hard_end, window))
        if not calls:
            return calls
        submitted = 0
        admit_by = None
        need_wake = False
        error = None
        with cond:
            while submitted < len(calls):
                if self._closed:
                    error = RpcConnectionError("mux client is closed")
                    break
                room = self.max_inflight - len(self._pending)
                if room <= 0:
                    if admit_by is None:
                        admit_by = time.monotonic() + budget
                    remaining = admit_by - time.monotonic()
                    if remaining <= 0:
                        error = RpcTimeoutError(
                            f"mux window full: {self.max_inflight} calls"
                            f" already in flight and none completed"
                            f" within {budget:.3f}s"
                        )
                        break
                    cond.wait(remaining)
                    continue
                if not self._sendq:
                    need_wake = True
                for call in calls[submitted:submitted + room]:
                    self._pending[call.xid] = call
                    self._sendq.append(call)
                submitted = min(submitted + room, len(calls))
                if hard_end < self._timer_floor:
                    self._timer_floor = hard_end
            if error is not None:
                # Resolve the unadmitted tail typed instead of raising:
                # the admitted prefix is already in flight and its
                # handles were promised to the caller.
                for call in calls[submitted:]:
                    call._error = error
                    call._done = True
            inflight = len(self._pending)
        if _obs.enabled and submitted:
            tier = ("specialized" if proc in self._codecs
                    else "fastpath" if self.fastpath_enabled
                    else "generic")
            _obs.registry.counter("rpc.client.calls",
                                  transport=self._transport,
                                  tier=tier).inc(submitted)
            _obs.registry.counter("rpc.mux.calls",
                                  transport=self._transport).inc(submitted)
            _obs.registry.gauge("rpc.mux.inflight",
                                transport=self._transport).set(inflight)
        if submitted:
            if not self._loop_alive:
                self._ensure_loop()
            if need_wake:
                self._wake()
        return calls

    def _complete(self, call, value=None, error=None, outcome="ok"):
        """Resolve one pending call (demux loop or close())."""
        with self._cond:
            if self._pending.pop(call.xid, None) is None:
                return  # already resolved
            inflight = len(self._pending)
            # Stats and value land before _done so a waiter that
            # returns from result() sees them fully written; a late
            # duplicate cannot reach here (the pop above is the
            # ownership check).
            call.stats.elapsed_s = time.monotonic() - call.started
            call._value = value
            call._error = error
            call._done = True
            self._cond.notify_all()
        self._account_completion(call, outcome)
        if _obs.enabled:
            _obs.registry.gauge("rpc.mux.inflight",
                                transport=self._transport).set(inflight)

    def _complete_batch(self, resolutions):
        """Resolve several calls with one lock round-trip.

        The demux loop drains every queued datagram before it parks
        again; resolving replies one at a time would pay a lock
        acquisition plus a notify per message.  Batching turns a
        64-reply burst into one acquisition and one ``notify_all``.
        ``resolutions`` is ``[(call, value, error, outcome), ...]``;
        entries another path already resolved are skipped (the pop is
        the ownership check, as in :meth:`_complete`).
        """
        if not resolutions:
            return
        now = time.monotonic()
        done = []
        with self._cond:
            for call, value, error, outcome in resolutions:
                if self._pending.pop(call.xid, None) is None:
                    continue
                call.stats.elapsed_s = now - call.started
                call._value = value
                call._error = error
                call._done = True
                done.append((call, outcome))
            inflight = len(self._pending)
            if done:
                self._cond.notify_all()
        for call, outcome in done:
            self._account_completion(call, outcome)
        if done and _obs.enabled:
            _obs.registry.gauge("rpc.mux.inflight",
                                transport=self._transport).set(inflight)

    def _fail_all_pending(self, error_factory):
        """Resolve every pending call with a typed error (connection
        death, close)."""
        with self._mux_lock:
            calls = list(self._pending.values())
        for call in calls:
            error = error_factory(call)
            self._complete(call, error=error, outcome=type(error).__name__)

    def _pop_flushable(self, now):
        """Queued calls ready to transmit (respects the batch window);
        resolved calls (deadline hit before the first send) are skipped."""
        with self._mux_lock:
            if not self._sendq:
                return []
            if (self.batch_window_s
                    and len(self._sendq) < self.max_inflight
                    and now - self._sendq[0].queued_at < self.batch_window_s):
                return []
            calls = [call for call in self._sendq if not call.done()]
            self._sendq.clear()
        return calls

    def _next_wakeup_in(self, now):
        """Seconds until the earliest timer (retransmit, deadline, or
        batch-window expiry), clamped to the idle tick.

        Loop-thread only.  Unlocked reads are benign: a submit landing
        after them performs the empty->nonempty wakeup, so the idle
        tick can never strand a call; and only this thread removes
        from the send queue, so the head peek cannot race away.  The
        pending table is never scanned here — ``_timer_floor`` is the
        maintained lower bound.
        """
        if not self._pending and not self._sendq:
            return 0.2
        earliest = self._timer_floor
        if self._sendq:
            when = (self._sendq[0].queued_at + self.batch_window_s
                    if self.batch_window_s else now)
            if when < earliest:
                earliest = when
        return min(max(earliest - now, 0.0), 0.2)

    def _stop_engine(self, error_factory):
        """Shut the demux loop down and resolve whatever is left."""
        with self._cond:
            self._closed = True
            thread = self._loop_thread
            self._cond.notify_all()  # wake window-admission waiters
        self._wake()
        if thread is not None and thread.is_alive():
            thread.join(timeout=2.0)
        self._fail_all_pending(error_factory)
        try:
            self._wake_r.close()
            self._wake_w.close()
        except OSError:
            pass

    # -- per-transport hooks ----------------------------------------------

    def _initial_window(self):
        raise NotImplementedError

    def _account_completion(self, call, outcome):
        raise NotImplementedError

    def _demux_loop(self):
        raise NotImplementedError


def _timeout_error_for(call, prog):
    """The typed error for a call that exhausted its budget."""
    if call.deadline is not None and call.deadline.expired:
        return RpcDeadlineExceeded(
            f"mux call (prog={prog}, proc={call.proc}) exceeded its"
            f" deadline of {call.deadline.budget_s}s"
            f" ({call.stats.attempts} attempts,"
            f" {call.stats.retransmissions} retransmissions)"
        ), "deadline"
    return RpcTimeoutError(
        f"mux call (prog={prog}, proc={call.proc}) timed out"
        f" ({call.stats.attempts} attempts,"
        f" {call.stats.retransmissions} retransmissions)"
    ), "timeout"


class MuxUdpClient(_MuxEngine, UdpClient):
    """A UDP client carrying up to ``max_inflight`` concurrent xids
    over one socket.

    :meth:`call_async` returns a :class:`PendingCall`; :meth:`call` is
    the synchronous shim (``call_async(...).result()``), so the class
    drops into :class:`~repro.rpc.resilience.FailoverClient` via its
    ``client_factory`` hook.  Each in-flight call keeps the serial
    client's adaptive retransmission discipline — its own backoff
    window, grown and jittered per silent interval — but all calls
    share one demux loop and one socket instead of a thread each.

    ``batch_window_s`` > 0 holds the first queued call back to gather
    a fuller batch; the default 0 flushes whatever has accumulated
    each time the loop wakes (concurrent submitters still coalesce).
    ``max_batch_bytes`` bounds a batch datagram (MTU discipline).
    """

    _transport = "udp"

    def __init__(self, host, port, prog, vers, max_inflight=64,
                 batch_window_s=0.0, max_batch_bytes=UDPMSGSIZE, **kwargs):
        super().__init__(host, port, prog, vers, **kwargs)
        self._init_engine(max_inflight, batch_window_s,
                          min(max_batch_bytes, self.bufsize))
        #: the demux loop's private receive buffer (single reader)
        self._mux_recv_buffer = bytearray(self.bufsize)

    # -- public surface ----------------------------------------------------

    def call_async(self, proc, args=None, xdr_args=None, xdr_res=None,
                   deadline=None):
        """Submit one call; returns a :class:`PendingCall`."""
        return self._submit(proc, args, xdr_args, xdr_res, deadline)

    def call(self, proc, args=None, xdr_args=None, xdr_res=None,
             deadline=None):
        return self.call_async(proc, args, xdr_args, xdr_res,
                               deadline).result()

    def close(self):
        self._stop_engine(
            lambda call: RpcConnectionError(
                f"mux client closed with call (proc={call.proc},"
                f" xid={call.xid}) in flight"
            )
        )
        self.sock.close()

    # -- engine hooks ------------------------------------------------------

    def _initial_window(self):
        return min(self.wait, self.max_wait)

    def _account_completion(self, call, outcome):
        # UdpClient._finish_call: lifetime counters + obs, exactly once.
        self._finish_call(call.stats, outcome)

    # -- the demux loop ----------------------------------------------------

    def _demux_loop(self):
        while True:
            if self._closed:
                return
            now = time.monotonic()
            timeout = self._next_wakeup_in(now)
            try:
                readable, _, _ = select.select(
                    [self.sock, self._wake_r], [], [], timeout
                )
            except OSError:
                return  # socket closed under us mid-shutdown
            if _obs.enabled:
                _obs.registry.counter("rpc.mux.wakeups", side="client",
                                      transport="udp").inc()
            if self._closed:
                return
            if self._wake_r in readable:
                self._drain_wakeups()
            self._flush_sends()
            if self.sock in readable:
                self._drain_socket()
            self._fire_timers()

    def _flush_sends(self):
        now = time.monotonic()
        calls = self._pop_flushable(now)
        if not calls:
            return
        for group in batch_groups(calls, self.max_batch_bytes,
                                  size=lambda call: len(call.request)):
            self._send_group(group, now)

    def _send_group(self, group, now):
        if len(group) == 1:
            payload = group[0].request
        else:
            payload = pack_batch([call.request for call in group])
        span = None
        if _obs.enabled:
            _obs.registry.histogram("rpc.mux.batch_size", side="client",
                                    transport="udp").observe(len(group))
            span = _obs.span("mux.flush", side="client", transport="udp",
                             messages=len(group), bytes=len(payload))
        try:
            self.sock.sendto(payload, self.address)
        except FaultInjected as exc:
            for call in group:
                self._complete(call, error=exc, outcome="FaultInjected")
            if span is not None:
                span.end(outcome="fault")
            return
        except OSError:
            pass  # unreachable peer: the retransmit timer recovers
        if span is not None:
            span.end()
        self.batches_sent += 1
        self.messages_batched += len(group)
        earliest = float("inf")
        for call in group:
            call.stats.attempts += 1
            call.stats.backoff_schedule.append(call.window)
            call.next_send_at = now + call.window
            if call.next_send_at < earliest:
                earliest = call.next_send_at
        if earliest < self._timer_floor:
            with self._mux_lock:
                if earliest < self._timer_floor:
                    self._timer_floor = earliest

    def _drain_socket(self):
        resolutions = []
        while True:
            try:
                nbytes = self.sock.recv_into(self._mux_recv_buffer)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                break
            data = memoryview(self._mux_recv_buffer)[:nbytes]
            try:
                messages = unpack_batch(data)
            except RpcProtocolError:
                self.garbage_datagrams += 1
                continue
            if messages is None:
                self._deliver(data, resolutions)
            else:
                for message in messages:
                    self._deliver(message, resolutions)
        self._complete_batch(resolutions)

    def _deliver(self, message, resolutions):
        """Parse one reply and append its resolution to
        ``resolutions`` (flushed in one batch by the drain loop)."""
        if len(message) < 4:
            self.garbage_datagrams += 1
            return
        xid = int.from_bytes(message[0:4], "big")
        # Lock-free probe: dict.get is atomic under the GIL, and
        # _complete_batch re-checks ownership with a locked pop, so
        # the worst a racing close() costs is one redundant parse.
        call = self._pending.get(xid)
        if call is None:
            # Late answer to a retransmitted-and-resolved call, or a
            # duplicate after completion: count and drop.
            self.unknown_xids += 1
            self.stale_replies += 1
            if _obs.enabled:
                _obs.registry.counter("rpc.mux.unknown_xids",
                                      transport="udp").inc()
            return
        try:
            matched, value = self.parse_reply(message, xid, call.proc,
                                              call.xdr_res)
        except (XdrError, RpcProtocolError):
            call.stats.garbage_datagrams += 1
            return
        except RpcError as exc:
            # A server verdict for *our* xid (denial, PROG_UNAVAIL,
            # SYSTEM_ERR shed, ...): the call resolves typed.
            resolutions.append((call, None, exc, type(exc).__name__))
            return
        if not matched:
            call.stats.stale_replies += 1
            return
        resolutions.append((call, value, None, "ok"))

    def _fire_timers(self):
        if not self._pending:
            return
        now = time.monotonic()
        if now < self._timer_floor:
            return  # no timer can be due yet; skip the scan
        due = []
        floor = float("inf")
        with self._mux_lock:
            for call in self._pending.values():
                when = min(call.hard_end, call.next_send_at)
                if when <= now:
                    due.append(call)
                elif when < floor:
                    floor = when
            self._timer_floor = floor
        refloor = floor
        for call in due:
            if call.done():
                continue
            if now >= call.hard_end:
                error, outcome = _timeout_error_for(call, self.prog)
                self._complete(call, error=error, outcome=outcome)
                continue
            if call.stats.attempts and now >= call.next_send_at:
                budget = self.retry_budget
                if budget is not None and not budget.try_retry():
                    self._complete(
                        call,
                        error=RpcRetryBudgetExhausted(
                            f"retry budget exhausted for mux call"
                            f" (prog={self.prog}, proc={call.proc})"
                            f" after {call.stats.attempts} attempt(s)"
                        ),
                        outcome="RpcRetryBudgetExhausted",
                    )
                    continue
                call.stats.retransmissions += 1
                call.stats.attempts += 1
                call.window = self._next_window(call.window)
                call.stats.backoff_schedule.append(call.window)
                call.next_send_at = now + call.window
                if call.deadline is not None:
                    # Honest budget on the wire for propagated calls
                    # (no-op when the request carries no deadline cred).
                    stamp_deadline(call.request, call.deadline)
                try:
                    # Retransmissions are always raw single messages —
                    # the batch a call first rode in is not replayed.
                    self.sock.sendto(call.request, self.address)
                except FaultInjected as exc:
                    self._complete(call, error=exc,
                                   outcome="FaultInjected")
                    continue
                except OSError:
                    pass
            # Still pending: its rearmed timers belong in the floor.
            refloor = min(refloor, call.hard_end, call.next_send_at)
        if refloor < floor:
            with self._mux_lock:
                if refloor < self._timer_floor:
                    self._timer_floor = refloor


class MuxTcpClient(_MuxEngine, TcpClient):
    """A TCP client pipelining up to ``max_inflight`` concurrent xids
    over one connection.

    Submissions are coalesced into one ``send`` of several record-
    marked messages (standard record marking, so any server that
    processes records as they arrive sees plain pipelining).  Replies
    may return in any order; the demux loop resolves them by xid.  On
    connection death every in-flight call resolves with a typed
    :class:`~repro.errors.RpcConnectionError` — never a hang — and
    :meth:`reconnect` revives the client in place.
    """

    _transport = "tcp"

    def __init__(self, host, port, prog, vers, max_inflight=64,
                 batch_window_s=0.0, max_batch_bytes=1 << 20, **kwargs):
        super().__init__(host, port, prog, vers, **kwargs)
        self._init_engine(max_inflight, batch_window_s, max_batch_bytes)
        self._assembler = RecordAssembler()
        self._outbuf = bytearray()
        self._broken = None

    # -- public surface ----------------------------------------------------

    def call_async(self, proc, args=None, xdr_args=None, xdr_res=None,
                   deadline=None):
        """Submit one call; returns a :class:`PendingCall`."""
        if self._broken is not None:
            raise RpcConnectionError(
                f"mux connection is down ({self._broken}); reconnect()"
                f" to revive"
            )
        return self._submit(proc, args, xdr_args, xdr_res, deadline)

    def call(self, proc, args=None, xdr_args=None, xdr_res=None,
             deadline=None):
        return self.call_async(proc, args, xdr_args, xdr_res,
                               deadline).result()

    def reconnect(self, deadline=None):
        """Re-establish the connection and restart the engine.

        Pending calls from the dead connection have already resolved
        with :class:`~repro.errors.RpcConnectionError`; the engine
        state (assembler, output buffer, demux loop) is reset so the
        revived client starts clean.
        """
        self._halt_loop()
        # A voluntary reconnect with calls still pending must not
        # strand them: they resolve typed like any connection death.
        self._fail_all_pending(
            lambda call: RpcConnectionError(
                f"reconnect with call (proc={call.proc},"
                f" xid={call.xid}) in flight"
            )
        )
        super().reconnect(deadline)
        with self._mux_lock:
            self._assembler = RecordAssembler()
            self._outbuf = bytearray()
            self._broken = None
            self._closed = False
        return self

    def close(self):
        self._stop_engine(
            lambda call: RpcConnectionError(
                f"mux client closed with call (proc={call.proc},"
                f" xid={call.xid}) in flight"
            )
        )
        super().close()

    def _halt_loop(self):
        """Stop the demux loop without failing pending calls (they are
        failed by the death path or by close())."""
        with self._cond:
            self._closed = True
            thread = self._loop_thread
            self._cond.notify_all()  # wake window-admission waiters
        self._wake()
        if thread is not None and thread.is_alive():
            thread.join(timeout=2.0)
        with self._mux_lock:
            self._loop_thread = None

    # -- engine hooks ------------------------------------------------------

    def _initial_window(self):
        return 0.0  # no retransmission on a stream

    def _account_completion(self, call, outcome):
        # TcpClient._finish_call: per-call counters + latency histogram.
        self._finish_call(call.started, outcome)

    # -- the demux loop ----------------------------------------------------

    def _demux_loop(self):
        try:
            self.sock.setblocking(False)
        except OSError:
            return
        while True:
            if self._closed:
                return
            now = time.monotonic()
            timeout = self._next_wakeup_in(now)
            writers = [self.sock] if self._outbuf else []
            try:
                readable, writable, _ = select.select(
                    [self.sock, self._wake_r], writers, [], timeout
                )
            except OSError:
                return
            if _obs.enabled:
                _obs.registry.counter("rpc.mux.wakeups", side="client",
                                      transport="tcp").inc()
            if self._closed:
                return
            if self._wake_r in readable:
                self._drain_wakeups()
            self._flush_sends()
            if writable:
                self._pump_outbuf()
            if self.sock in readable:
                if not self._drain_stream():
                    return
            self._fire_timers()

    def _flush_sends(self):
        now = time.monotonic()
        calls = self._pop_flushable(now)
        if not calls:
            self._pump_outbuf()
            return
        chunk = bytearray()
        for call in calls:
            chunk += mark_record(call.request)
            call.stats.attempts += 1
        self._outbuf += chunk
        if _obs.enabled:
            _obs.registry.histogram("rpc.mux.batch_size", side="client",
                                    transport="tcp").observe(len(calls))
            span = _obs.span("mux.flush", side="client", transport="tcp",
                             messages=len(calls), bytes=len(chunk))
            if span is not None:  # metrics on, no trace sink
                span.end()
        self.batches_sent += 1
        self.messages_batched += len(calls)
        self._pump_outbuf()

    def _pump_outbuf(self):
        """Write as much buffered output as the socket accepts."""
        while self._outbuf:
            try:
                sent = self.sock.send(self._outbuf)
            except (BlockingIOError, InterruptedError):
                return
            except (BrokenPipeError, ConnectionResetError,
                    ConnectionAbortedError, OSError) as exc:
                self._connection_died(exc)
                return
            if sent <= 0:
                return
            del self._outbuf[:sent]

    def _drain_stream(self):
        """Read and deliver; False ends the loop (connection death)."""
        resolutions = []

        def flush():
            # One locked batch per read burst (see _complete_batch).
            # Always before _connection_died: a reply fully received
            # ahead of the death must resolve with its real value, not
            # be swept into the connection-error sweep.
            self._complete_batch(resolutions)
            del resolutions[:]

        while True:
            try:
                chunk = self.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                flush()
                return True
            except (ConnectionResetError, ConnectionAbortedError,
                    OSError) as exc:
                flush()
                self._connection_died(exc)
                return False
            if not chunk:
                flush()
                self._connection_died("peer closed the connection")
                return False
            try:
                records = self._assembler.feed(chunk)
            except RpcProtocolError as exc:
                flush()
                self._connection_died(exc)
                return False
            for record in records:
                self._deliver(record, resolutions)
            if len(chunk) < (1 << 16):
                flush()
                return True

    def _connection_died(self, cause):
        self._broken = cause
        with self._mux_lock:
            self._closed = True
        self._fail_all_pending(
            lambda call: RpcConnectionError(
                f"connection lost with call (proc={call.proc},"
                f" xid={call.xid}) in flight: {cause}"
            )
        )

    def _deliver(self, record, resolutions):
        if len(record) < 4:
            return
        xid = int.from_bytes(record[0:4], "big")
        # Lock-free probe (see MuxUdpClient._deliver): the locked pop
        # in _complete_batch is the authoritative resolution point.
        call = self._pending.get(xid)
        if call is None:
            self.unknown_xids += 1
            self.stale_replies += 1
            if _obs.enabled:
                _obs.registry.counter("rpc.mux.unknown_xids",
                                      transport="tcp").inc()
                _obs.registry.counter("rpc.client.stale_replies",
                                      transport="tcp").inc()
            return
        try:
            matched, value = self.parse_reply(record, xid, call.proc,
                                              call.xdr_res)
        except (XdrError, RpcProtocolError):
            # A framed-but-undecodable reply cannot be retransmitted on
            # a stream: the call resolves typed rather than hanging.
            resolutions.append((
                call, None,
                RpcProtocolError(f"undecodable reply for xid {xid}"),
                "RpcProtocolError",
            ))
            return
        except RpcError as exc:
            resolutions.append((call, None, exc, type(exc).__name__))
            return
        if not matched:
            call.stats.stale_replies += 1
            return
        resolutions.append((call, value, None, "ok"))

    def _fire_timers(self):
        if not self._pending:
            return
        now = time.monotonic()
        if now < self._timer_floor:
            return  # no deadline can be due yet; skip the scan
        due = []
        floor = float("inf")
        with self._mux_lock:
            for call in self._pending.values():
                if call.hard_end <= now:
                    due.append(call)
                elif call.hard_end < floor:
                    floor = call.hard_end
            self._timer_floor = floor
        for call in due:
            if call.done():
                continue
            error, outcome = _timeout_error_for(call, self.prog)
            self._complete(call, error=error, outcome=outcome)
