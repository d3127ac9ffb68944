"""The one client engine (the client twin of :mod:`repro.rpc.svc_core`).

Everything a client transport is *not* lives here, once: xid
allocation, deadline coercion and the pre-flight check, request
building, window admission, the timer rule (hard end, adaptive
back-off with jitter and cap, retry-budget gate, re-stamped deadline
cred), reply classification, completion, :class:`CallStats` and the
single obs fold, ``close()`` and fail-all.  A transport
(:mod:`repro.rpc.clnt_udp`, :mod:`repro.rpc.clnt_tcp`) is a socket plus
framing: it transmits a group of requests, receives messages, says
whether silence means *retransmit*, and reports connection death.

**One step, one driver role: the waiter drives.**  The engine has one
step — flush queued sends, wait until the earliest timer, drain the
socket, fire timers — and one *driver role*, a lock, so the socket has
exactly one reader.  Whoever waits takes the role when it is free and
steps on its own thread until what it waits for happens — a
synchronous :meth:`CallEngine.call`, a :meth:`PendingCall.result`
(inside its own timeout), a submitter waiting for window room — with
no thread hand-off; giving the role back, it notifies the other
waiters and one takes over.  A synchronous call that finds the engine
idle is *lone*: it holds its window slot with no :class:`PendingCall`,
transmits once, blocks once in the receive under the socket's kernel
timeout (no ``select``) and settles on its reply — anything else hands
it to the engine as the call it would hold after that send.  Calls
nobody waits on (a :meth:`~CallEngine.call_async` handle only polled,
or dropped) are the *fallback thread*'s, which the first
``call_async`` starts: when no driver has given the role back for one
switch interval (``sys.getswitchinterval()``) and the role is free, it
makes one step that does not block; it exits once the table has stayed
empty for :data:`IDLE_TICK_S`, so late duplicates are still counted.
That is ``call_async``'s latency contract: a call nobody waits on is
sent, read and timed out at most one switch interval later than by a
driver asleep in ``select``, which is already how long a running
submitter may hold the interpreter lock against any other thread.  A
submit writes a wake-up byte only while another thread holds the role
(it may be asleep in ``select``).  The windowed path is
specialized to its common case the same way: a ``call_async`` with no
deadline is staged (its xid, its request, one :class:`PendingCall`,
one lock round that admits, queues and lowers the timer floor); a
flush whose queue fits the batch limit is one transmit, the timer rule
run once for it when every call is an untraced first send with no
deadline; and each read is one classification pass that calls the
installed codec directly.  Which path runs is decided by what the code
observes, never by an option.

**Timer rule.**  Each send of a call is granted its current back-off
window (clamped to the deadline).  When the remaining budget no
longer covers a full window the send is the *final* try and still
gets the whole window — one guaranteed full receive wait instead of a
sliver followed by a back-to-back retransmit; otherwise silence past
the window retransmits the same bytes under the same xid (the
server's duplicate-request cache keeps execution at-most-once), with
the window grown, jittered and capped.  A stream transport never
retransmits: only the hard end applies.

**Telemetry.**  During a call only its :class:`CallStats` are touched;
lifetime counters and the metrics registry are updated from them at
exactly one point (:meth:`CallEngine._finish_call`), so a call
contributes each number once however it ends.  The one exception is
the fold that point would make for a plain reply — obs off, untraced,
no retransmission, stale reply or garbage: the classification pass
folds it once per read, a datagram on UDP (:meth:`CallEngine._classify`:
the completed-call count and ``last_call_stats``), before any of the
calls it settled reads as done.  A synchronous call
emits a ``client.call`` span with ``client.encode`` / ``client.send``
/ ``client.wait`` / ``client.decode`` children; the ``rpc.mux.*``
series and the ``mux.flush`` span describe ``call_async``'s flushes
and every *windowed* step (a ``result()`` waiter's, a window-admission
waiter's, the fallback thread's), whichever thread makes it.
"""

import collections
import functools
import operator
import select
import socket
import struct
import sys
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
from repro.rpc.client import RpcClient
from repro.rpc.overload import stamp_deadline
from repro.rpc.record import batch_groups
from repro.rpc.resilience import Deadline

__all__ = ["CallEngine", "CallStats", "PendingCall"]

#: longest a driver sleeps in ``select`` or a blocking receive (what a
#: wake-up that raced the lazily created wake pair, or a ``close()``
#: from another thread, can cost); how long the fallback thread reads
#: on after the table empties
IDLE_TICK_S = 0.2

_NEVER = float("inf")
#: flags of a read that must not wait (every read but a lone driver's)
_DONTWAIT = socket.MSG_DONTWAIT
_XID = struct.Struct(">I").unpack_from
_XID_OF = operator.attrgetter("xid")
_REQUEST = operator.attrgetter("request")
#: what a first send with no deadline and no span reads (None, None,
#: 0, its window)
_FIRST_SEND = operator.attrgetter("deadline", "span", "stats.attempts",
                                  "window")
_HARD_END = operator.attrgetter("hard_end")


class CallStats:
    """Per-call retransmission telemetry.  The counters start as class
    defaults: a call pays for a field only when it moves."""

    #: messages sent for this call (1 == no retransmission)
    attempts = 0
    retransmissions = 0
    #: well-formed replies bearing another call's xid
    stale_replies = 0
    #: replies under this call's xid that failed to decode
    garbage_datagrams = 0
    elapsed_s = 0.0

    def __init__(self, proc):
        self.proc = proc
        #: the receive window (seconds) granted to each attempt
        self.backoff_schedule = []

    def as_dict(self):
        return {
            "proc": self.proc,
            "attempts": self.attempts,
            "retransmissions": self.retransmissions,
            "backoff_schedule": list(self.backoff_schedule),
            "stale_replies": self.stale_replies,
            "garbage_datagrams": self.garbage_datagrams,
            "elapsed_s": self.elapsed_s,
        }

    def __repr__(self):
        return (
            f"CallStats(proc={self.proc}, attempts={self.attempts},"
            f" stale={self.stale_replies}, garbage={self.garbage_datagrams})"
        )


class PendingCall:
    """A waitable handle for one in-flight call.

    :meth:`result` blocks until the engine completes the call — with
    the decoded value, or by re-raising the typed
    :class:`~repro.errors.RpcError` the call resolved to.  The engine
    resolves every pending call (reply, timeout, deadline, connection
    death, ``close()``), so :meth:`result` cannot hang past the call's
    budget.

    A waiter drives the engine when the driver role is free, else it
    sleeps on the client's one shared condition (no per-call ``Event``).
    ``_done`` is written after ``_value``/``_error``: :meth:`wait` reads
    it unlocked.
    """

    __slots__ = ("xid", "proc", "request", "xdr_res", "deadline", "stats",
                 "started", "hard_end", "window", "next_send_at", "span",
                 "wait_span", "_engine", "_done", "_value", "_error")

    def __init__(self, engine, xid, proc, request, xdr_res, deadline,
                 started, hard_end, window, span):
        self._engine = engine
        self.xid = xid
        self.proc = proc
        self.request = request
        self.xdr_res = xdr_res
        self.deadline = deadline
        self.stats = CallStats(proc)
        self.started = started
        #: when the call gives up (moved out to the end of the final
        #: try's window, never past the deadline)
        self.hard_end = hard_end
        #: current back-off window
        self.window = window
        #: monotonic time of the next retransmission
        self.next_send_at = _NEVER
        #: the ``client.call`` span of a traced synchronous call, and
        #: its open ``client.wait`` child
        self.span = span
        self.wait_span = None
        self._done = False
        self._value = None
        self._error = None

    def done(self):
        return self._done

    def wait(self, timeout=None):
        """Block until resolved, driving the engine when nobody else
        does; True when done (like Event.wait)."""
        return self._done or self._engine._await(self.done, (
            _NEVER if timeout is None else time.monotonic() + timeout))

    def result(self, timeout=None):
        """The call's value; re-raises its typed error.

        ``timeout`` is a safety net for callers that want to poll — the
        engine itself bounds every call by its deadline/timeout budget.
        """
        if not self._done:
            self._waited(timeout, "result")
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout=None):
        """The typed error the call resolved to, or None."""
        self._waited(timeout, "exception")
        return self._error

    def _waited(self, timeout, what):
        if not self.wait(timeout):
            raise RpcTimeoutError(f"call (proc={self.proc}, xid={self.xid})"
                                  f" still pending after a {timeout}s"
                                  f" {what}() wait")

    def __repr__(self):
        state = ("done" if self._done else "pending")
        return f"PendingCall(xid={self.xid}, proc={self.proc}, {state})"


def _end_call_span(span, error):
    if span is not None:
        if error is None:
            span.end(outcome="ok")
        else:
            span.end(outcome="error", error=type(error).__name__)


def _outcome(error):
    """The label a finished call is folded under."""
    if error is None:
        return "ok"
    kind = type(error)
    if kind is RpcTimeoutError:
        return "timeout"
    if kind is RpcDeadlineExceeded:
        return "deadline"
    return kind.__name__


@functools.lru_cache(maxsize=None)
def _series(transport):
    """One transport's static ``registry.cells`` keys (shared objects)."""
    label, side = ("transport", transport), ("side", "client")
    keys = {name: ("counter", "rpc.client." + name, label)
            for name in ("attempts", "retransmissions", "stale_replies",
                         "garbage_datagrams", "timeouts",
                         "deadline_exceeded")}
    keys.update(
        {tier: ("counter", "rpc.client.calls", ("tier", tier), label)
         for tier in ("generic", "fastpath", "specialized")},
        latency=("histogram", "rpc.client.call_latency_s", label),
        mux_calls=("counter", "rpc.mux.calls", label),
        inflight=("gauge", "rpc.mux.inflight", label),
        wakeups=("counter", "rpc.mux.wakeups", side, label),
        batch_size=("histogram", "rpc.mux.batch_size", side, label))
    return keys


class CallEngine(RpcClient):
    """Pending table, timers and the driver role over a transport.

    A transport subclass provides ``sock`` (under
    :func:`~repro.rpc.record.kernel_timeout` of :data:`IDLE_TICK_S`),
    the obs label ``_transport``, ``retransmits`` (does silence past a
    window mean *send again*?), ``_batch_limit`` (bytes one transmit
    may carry), and four methods: ``_transmit(requests)`` hands the
    request messages of a group to the socket as one transmit and
    returns the bytes it framed, ``_receive(flags)`` performs one read
    with ``flags`` (``MSG_DONTWAIT``, or 0: wait up to the kernel
    timeout) and returns the complete messages it yielded (``None``
    when nothing arrived; raises :class:`~repro.errors.RpcProtocolError`
    on connection death), ``_pump()`` writes what ``_outbuf`` still
    holds, and
    ``_close_socket()``.  The back-off schedule (``wait``,
    ``max_wait``, ``backoff``, ``jitter``, ``_jitter_rng``) and
    ``retry_budget`` are attributes a retransmitting transport's
    constructor sets.

    ``max_inflight`` is the window: how many xids may be pending at
    once (1 for the classic clients; further submissions wait for
    room, inside their budget).  Cumulative telemetry:
    :attr:`calls_completed`, :attr:`retransmissions`,
    :attr:`stale_replies`, :attr:`garbage_datagrams` (also
    :meth:`stats_summary`), folded once per finished call from its
    :class:`CallStats`, which :attr:`last_call_stats` keeps.
    """

    _transport = None
    retransmits = False
    wait = max_wait = 0.0
    retry_budget = None
    #: a stream transport's framed-but-unsent bytes; the driver
    #: watches writability while there are any
    _outbuf = ()

    def __init__(self, prog, vers, timeout, fastpath=False, **kwargs):
        super().__init__(prog, vers, **kwargs)
        self.timeout = timeout
        self.max_inflight = 1
        self._pending = {}
        self._sendq = collections.deque()
        self._lock = threading.Lock()
        #: completion + window-admission signaling, sharing _lock (one
        #: round trip resolves a call AND wakes whoever waits for room)
        self._cond = threading.Condition(self._lock)
        #: threads inside a ``_cond.wait`` (no waiter, no notify)
        self._waiters = 0
        #: the driver role: held (never across calls) by the one
        #: thread that may step the engine and read the socket
        self._driver = threading.Lock()
        self._demux_thread = None
        self._demux_alive = False
        #: when a driver last gave the role back, and how many steps
        #: the fallback thread made (waiters made the others)
        self._stepped = 0.0
        self._fallback_steps = 0
        #: interrupts a driver's select when a second party queues
        #: work; created with the fallback thread, not before
        self._wake_r = self._wake_w = None
        #: why no new call may start (closed, connection down) or None
        self._down = None
        #: earliest pending timer (hard end or retransmit), a
        #: conservative lower bound: the O(window) timer scan is
        #: skipped while ``now`` is before it.  Lowered (under the
        #: lock) wherever a timer is armed, reset by the first call
        #: into an empty table; recomputed exactly by each scan.  A
        #: stale-low value costs one redundant scan, never a missed
        #: timer.
        self._timer_floor = _NEVER
        self._series = _series(self._transport)
        #: calls finished (returned, timed out, or raised)
        self.calls_completed = 0
        self.retransmissions = 0
        #: well-formed replies discarded: another call's xid, or an
        #: xid with no pending call (:attr:`unknown_xids` of them)
        self.stale_replies = 0
        self.unknown_xids = 0
        #: undecodable payloads discarded
        self.garbage_datagrams = 0
        #: transmits performed / messages they carried — the ratio is
        #: the realized batch size
        self.batches_sent = 0
        self.messages_batched = 0
        #: :class:`CallStats` of the most recently finished call
        self.last_call_stats = None
        if fastpath:
            self.enable_fastpath()

    # -- public surface ---------------------------------------------------

    @property
    def inflight(self):
        with self._lock:
            return len(self._pending)

    def stats_summary(self):
        """Cumulative client statistics (the registry mirrors these)."""
        return {
            "calls_completed": self.calls_completed,
            "retransmissions": self.retransmissions,
            "stale_replies": self.stale_replies,
            "garbage_datagrams": self.garbage_datagrams,
        }

    def call(self, proc, args=None, xdr_args=None, xdr_res=None,
             deadline=None):
        """One RPC.  ``deadline`` (a
        :class:`~repro.rpc.resilience.Deadline` or a seconds budget)
        caps the whole call — admission, every retransmission window
        and the reply wait draw from it and exhaustion raises
        :class:`~repro.errors.RpcDeadlineExceeded` — on top of the
        client's own ``timeout``.

        With no deadline and no trace sink, a call that finds the
        engine idle — window 1, the driver role free, an empty table,
        no wake pair, no unsent bytes — is lone (see the module
        docstring; :meth:`_handover` says when it stops being)."""
        if not (deadline is None and self.max_inflight == 1
                and self._wake_r is None and not self._outbuf
                and not (_obs.enabled and _obs.tracer.sinks)
                and self._driver.acquire(False)):
            return self._call_engine(proc, args, xdr_args, xdr_res, deadline)
        with self._lock:
            if not self._pending and self._down is None:
                xid = next(self._xids) & 0xFFFFFFFF
                self._pending[xid] = None  # the lone call's window slot
            else:
                xid = None
        if xid is None:
            self._driver.release()
            return self._call_engine(proc, args, xdr_args, xdr_res, deadline)
        messages = error = None
        settled = False
        codec = self._codecs.get(proc)  # the residual, called directly
        try:
            try:
                request = (self.encode_call(xid, proc, args, xdr_args)
                           if codec is None else codec[0](xid, args))
            except BaseException as exc:
                self._finish_call(CallStats(proc), exc)  # never sent
                raise
            if self.retry_budget is not None:
                self.retry_budget.note_call()
            wait = self._lone_wait
            started = time.monotonic()
            try:
                self._transmit((request,))
                # (a failed stream send takes the connection down)
                if wait and self._down is None:
                    messages = self._receive(0)
            except (FaultInjected, RpcProtocolError) as exc:
                error = exc
            if (messages is not None and len(messages) == 1
                    and self._down is None):  # (not swept meanwhile)
                try:  # (another xid parses as not matched)
                    settled, value = (
                        self.decode_reply(messages[0], xid, xdr_res)
                        if codec is None else codec[1](messages[0], xid))
                except (XdrError, RpcError):
                    settled = False  # the engine classifies it again
            if settled:
                stats = CallStats(proc)
                stats.attempts = 1  # what _arm writes for one send
                if self.retransmits:
                    stats.backoff_schedule = [wait]
                stats.elapsed_s = time.monotonic() - started
                self._finish_call(stats, None)
        except BaseException:
            settled = True
            raise
        finally:
            if settled:  # free the slot and the role, wake a waiter
                del self._pending[xid]
                self._driver.release()
                if self._waiters:
                    with self._lock:
                        self._cond.notify_all()
        return (value if settled else self._handover(
            xid, proc, request, xdr_res, started, messages, error))

    @functools.cached_property
    def _lone_wait(self):
        """How long a lone call may wait in its receive: until its
        first timer (its window; a stream's timeout), when that is at
        least a tick away — else 0, and it hands over at once."""
        timer = (min(self.wait, self.max_wait) if self.retransmits
                 else self.timeout)
        return timer if timer >= IDLE_TICK_S else 0.0

    def _call_engine(self, proc, args, xdr_args, xdr_res, deadline):
        """A call that is not lone: into the table, then driven here
        or by whoever holds the driver role."""
        call, budget = self._start(proc, args, xdr_args, xdr_res, deadline,
                                   True)
        try:
            try:
                wake = self._admit(call, budget)
            except RpcError as exc:
                self._unsent(call, exc)
                raise
            if self._driver.acquire(False):
                self._drive(call.done)  # nobody else drives: step here
            else:
                self._kick(wake)
                call.wait()
        except BaseException as exc:
            _end_call_span(call.span, exc)
            raise
        _end_call_span(call.span, call._error)
        if call._error is not None:
            raise call._error
        return call._value

    def _await(self, ready, end):
        """Wait until ``ready()`` or ``end``; returns ``ready()``.  The
        waiter drives: with the role free it steps on this thread, else
        it sleeps until a completion or a driver leaving."""
        while True:
            if self._driver.acquire(False):
                self._drive(ready, end, True)
                if ready():
                    return True
            with self._lock:  # the lock _cond waits on
                # counted *before* the checks: a completion or a driver
                # leaving after them sees this waiter and notifies
                self._waiters += 1
                try:
                    remaining = end - time.monotonic()
                    if ready() or remaining <= 0:
                        return ready()
                    if self._driver.locked():
                        self._cond.wait(None if end is _NEVER else remaining)
                finally:
                    self._waiters -= 1

    def _drive(self, ready, end=_NEVER, windowed=False):
        """Driver role held: step until ``ready()`` or ``end``."""
        try:
            while not ready() and self._step(windowed, end) < end:
                pass
        finally:
            self._stepped = time.monotonic()
            self._release()

    def _release(self):
        """Give the driver role back and notify the waiters (one takes
        it over); calls nobody waits on are the fallback thread's."""
        self._driver.release()
        if self._waiters:
            with self._lock:  # the lock _cond notifies under
                self._cond.notify_all()
        if self._pending and not self._demux_alive:
            self._kick()

    def _handover(self, xid, proc, request, xdr_res, started, messages,
                  error):
        """A lone call its receive did not settle — a tick with no
        reply, another xid, garbage, a server verdict, a batch
        envelope, a send fault, connection death, ``close()`` — becomes
        the :class:`PendingCall` the engine would hold after its first
        send, and the engine puts ``error`` / ``messages`` where it
        would have."""
        call = PendingCall(self, xid, proc, request, xdr_res, None, started,
                           started + self.timeout,
                           min(self.wait, self.max_wait), None)
        if isinstance(error, FaultInjected):  # it never went out
            self._pending[xid] = call
            self._complete_batch([(call, None, error)])
        else:
            self._arm(call, started)
            with self._lock:
                swept = self._down is not None
                self._pending[xid] = call
                self._timer_floor = min(call.hard_end, call.next_send_at)
            if swept:  # the sweep passed the slot by: what it would say
                self._complete_batch([(call, None, RpcConnectionError(
                    self._sweep(call)))])
            if error is not None:
                self._connection_lost(error)
            elif messages is not None:
                self._drain(False, messages=messages)
        self._drive(call.done)
        if call._error is not None:
            raise call._error
        return call._value

    def call_async(self, proc, args=None, xdr_args=None, xdr_res=None,
                   deadline=None):
        """Submit one call; returns its :class:`PendingCall`.  A call
        the window cannot admit inside its budget raises instead.

        With no deadline the submit is staged: the xid, the request
        (the installed codec's, when there is one), one
        :class:`PendingCall`, and one lock round that admits it, queues
        it and lowers the timer floor.  A deadline, a full window or a
        down engine go through :meth:`_start` / :meth:`_launch`."""
        if deadline is not None:
            call, budget = self._start(proc, args, xdr_args, xdr_res,
                                       deadline, False)
        else:
            if self._down is not None:
                raise RpcConnectionError(self._down)
            xid = next(self._xids) & 0xFFFFFFFF
            codec = self._codecs.get(proc)
            try:
                request = (self.encode_call(xid, proc, args, xdr_args)
                           if codec is None else codec[0](xid, args))
            except BaseException as exc:
                self._finish_call(CallStats(proc), exc)  # never sent
                raise
            if self.retry_budget is not None:
                self.retry_budget.note_call()
            now = time.monotonic()
            budget, window = self.timeout, min(self.wait, self.max_wait)
            call = PendingCall(self, xid, proc, request, xdr_res, None, now,
                               now + budget, window, None)
            # its first timer: the end of its window, or its hard end
            when = now + (window if 0.0 < window < budget else budget)
            pending = self._pending
            with self._lock:
                if self._down is None and len(pending) < self.max_inflight:
                    if not pending or when < self._timer_floor:
                        self._timer_floor = when
                    pending[xid] = call
                    wake = not self._sendq
                    self._sendq.append(call)
                else:
                    wake = None  # a full window, or down: _launch waits
            if wake is not None:
                if _obs.enabled:
                    _obs.registry.cells[self._series["mux_calls"]].inc()
                    self._note_inflight()
                if wake and self._driver.locked() or not self._demux_alive:
                    self._kick(wake)
                return call
        error = self._launch((call,), budget)
        if error is not None:
            raise error
        return call

    def call_async_many(self, proc, args_list, xdr_args=None, xdr_res=None,
                        deadline=None):
        """Submit several calls to one procedure in a single admission
        pass; returns their :class:`PendingCall` handles in order.

        This is the explicit form of call batching: a burst that fits
        the window rides to the transport as one flush.  Calls the
        window cannot admit within the budget (or that a concurrent
        :meth:`close` interrupts) are *resolved* with the typed error
        rather than raised — the admitted prefix is already in flight
        and every returned handle settles individually.
        """
        deadline = Deadline.coerce(deadline)  # one budget for the burst
        calls = []
        for args in args_list:
            call, budget = self._start(proc, args, xdr_args, xdr_res,
                                       deadline, False)
            calls.append(call)
        if calls:
            self._launch(calls, budget)
        return calls

    def _launch(self, calls, budget):
        """Admit and queue ``calls`` for a driver; the tail the window
        refused is resolved with the error returned.  A call that finds
        the window full drives the engine itself (:meth:`_admit`),
        which sends the admitted head first."""
        admitted, wake, error = 0, False, None
        for call in calls:
            try:
                wake = self._admit(call, budget) or wake
            except RpcError as exc:
                error = exc
                break
            admitted += 1
        for call in calls[admitted:]:
            self._unsent(call, error)
        if admitted:
            if _obs.enabled:
                _obs.registry.cells[self._series["mux_calls"]].inc(admitted)
                self._note_inflight()
            self._kick(wake)
        return error

    def _unsent(self, call, error):
        """Resolve a call the window refused: one fold, like any other."""
        call.stats.elapsed_s = time.monotonic() - call.started
        self._finish_call(call.stats, error)
        call._error = error
        call._done = True

    def _note_inflight(self):
        """The window's level, written only when it moved."""
        level = _obs.registry.cells[self._series["inflight"]]
        if level.value != len(self._pending):
            level.set(len(self._pending))

    def close(self):
        """Resolve whatever is in flight with a typed
        :class:`~repro.errors.RpcConnectionError` and release the
        sockets; later calls raise the same."""
        self._halt(
            f"{type(self).__name__} is closed",
            lambda call: f"client closed with call (proc={call.proc},"
                         f" xid={call.xid}) in flight",
        )
        self._close_socket()
        for sock in (self._wake_r, self._wake_w):
            if sock is not None:
                sock.close()

    # -- entering the table -----------------------------------------------

    def _clamp(self, deadline, context):
        """The deadline clamp: ``(Deadline or None, seconds)`` — the
        client's ``timeout`` cut down to what the deadline has left
        (pre-flight: a spent one raises
        :class:`~repro.errors.RpcDeadlineExceeded` here)."""
        deadline = Deadline.coerce(deadline)
        if deadline is None:
            return None, self.timeout
        return deadline, min(self.timeout, deadline.check(context))

    def _start(self, proc, args, xdr_args, xdr_res, deadline, traced):
        """Pre-flight, xid, request bytes: ``(PendingCall, seconds it
        may wait for window room)``, not yet in the table."""
        if self._down is not None:
            raise RpcConnectionError(self._down)
        budget = timeout = self.timeout
        if deadline is not None:
            deadline, budget = self._clamp(deadline, f"proc={proc}")
        xid = next(self._xids) & 0xFFFFFFFF
        span = encode_span = None
        if _obs.enabled and traced and _obs.tracer.sinks:
            span = _obs.span("client.call", side="client",
                             transport=self._transport, xid=xid,
                             prog=self.prog, vers=self.vers, proc=proc,
                             tier=self._tier(proc))
            if span is not None:
                encode_span = span.child("client.encode")
        try:
            if (deadline is not None and self.propagate_deadline
                    and proc not in self._codecs):
                # Deadline propagation: a mutable request carrying the
                # remaining budget in the deadline cred, re-stamped on
                # every retransmission.
                request = self.build_call_deadline(xid, proc, args,
                                                   xdr_args, deadline)
            else:
                request = self.build_call(xid, proc, args, xdr_args)
        except BaseException as exc:
            _end_call_span(encode_span, exc)
            _end_call_span(span, exc)
            self._finish_call(CallStats(proc), exc)  # never sent
            raise
        if encode_span is not None:
            encode_span.end(bytes=len(request))
        if self.retry_budget is not None:
            self.retry_budget.note_call()
        now = time.monotonic()
        hard_end = now + timeout
        if deadline is not None and deadline.expires_at < hard_end:
            hard_end = deadline.expires_at
        return PendingCall(self, xid, proc, request, xdr_res, deadline,
                           now, hard_end, min(self.wait, self.max_wait),
                           span), budget

    def _admit(self, call, budget):
        """Window admission: enter ``call`` into the table and the send
        queue once there is room, waiting (and driving: only replies
        make room) until ``budget`` seconds after the call started;
        then, or if the client goes down, the typed error is raised.
        Returns whether the send queue went from empty to non-empty:
        a driver on another thread needs a wake-up then; a non-empty
        queue already has one coming."""
        pending = self._pending
        while True:
            with self._lock:
                if self._down is None and len(pending) < self.max_inflight:
                    # no timer of this call is due before this, nor one
                    # of an empty table (a stale floor would cost _lone)
                    when = call.hard_end
                    if call.window and call.started + call.window < when:
                        when = call.started + call.window
                    if not pending or when < self._timer_floor:
                        self._timer_floor = when
                    pending[call.xid] = call
                    self._sendq.append(call)
                    return len(self._sendq) == 1
            if self._down is not None:
                raise RpcConnectionError(self._down)
            if not self._await(lambda: self._down is not None or len(
                    pending) < self.max_inflight, call.started + budget):
                raise RpcTimeoutError(
                    f"window full: {self.max_inflight} call(s) already in"
                    f" flight and none completed within {budget:.3f}s")

    # -- the driver role --------------------------------------------------

    def _kick(self, wake=False):
        """Make sure the fallback thread lives and, with ``wake``,
        interrupt a driver on another thread (it may be in ``select``)."""
        if not self._demux_alive:
            with self._lock:
                if not self._demux_alive and self._down is None:
                    self._demux_alive = True
                    if self._wake_r is None:
                        self._wake_r, self._wake_w = socket.socketpair()
                        self._wake_r.setblocking(False)
                        self._wake_w.setblocking(False)
                    self._demux_thread = threading.Thread(
                        target=self._demux, daemon=True,
                        name=f"rpc-demux:{self._transport}")
                    # started under the lock: _halt() must never find
                    # a thread it cannot join yet
                    self._demux_thread.start()
        if wake and self._wake_w is not None and self._driver.locked():
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # full pipe: a wake-up is queued; closed: shutting down

    def _demux(self):
        """The fallback thread, for calls nobody waits on: when no
        driver has stepped for a switch interval and the role is free,
        one step that does not block, and the role back; it exits once
        the table has stayed empty for :data:`IDLE_TICK_S`."""
        tick = wait = sys.getswitchinterval()
        busy = time.monotonic()
        try:
            while True:
                time.sleep(wait)
                now = time.monotonic()
                wait = self._stepped + tick - now
                if wait <= 0.0:
                    wait = tick
                    if self._driver.acquire(False):
                        self._fallback_steps += 1
                        try:
                            self._step(True, 0.0)
                        finally:
                            self._release()
                with self._lock:
                    # Checked and cleared under the lock a submitter
                    # inserts under: it either sees this thread alive
                    # and its call is seen here, or starts a new one.
                    if self._pending and self._down is None:
                        busy = now
                    elif self._down is not None or now - busy >= IDLE_TICK_S:
                        self._demux_alive = False
                        return
        except BaseException:
            self._demux_alive = False
            raise

    def _lone(self, now, end):
        """May the driver wait in the receive itself?  Only with nothing
        else to watch: window 1 (nobody can queue a send meanwhile), no
        wake pair, no unsent bytes, a call pending, and no timer (nor
        ``end``) due within the kernel timeout's tick."""
        return (self.max_inflight == 1 and self._wake_r is None
                and not self._outbuf and self._pending
                and min(self._timer_floor, end) - now >= IDLE_TICK_S)

    def _step(self, windowed, end=_NEVER):
        """One turn of the engine, by whoever holds the driver role:
        flush queued sends, sleep until the earliest timer or ``end`` —
        in the receive when :meth:`_lone`, else in ``select`` — drain
        what arrived, fire what is due.  Returns when it started."""
        now = time.monotonic()
        if self._sendq:
            self._flush(now, windowed)
            if not self._pending:
                return now
        if self._lone(now, end):
            self._drain(windowed, 0)
        else:
            self._select(now, windowed, end)
        if self._pending:  # (connection death leaves nothing pending)
            self._fire_timers(windowed)
        return now

    def _select(self, now, windowed, end):
        """Sleep in ``select`` (a tick at most) until a timer, a reply, a
        wake-up, room for unsent bytes or ``end``; act on what is ready."""
        when = self._timer_floor if self._pending else _NEVER
        timeout = (when if when < end else end) - now
        if timeout > IDLE_TICK_S:
            timeout = IDLE_TICK_S
        elif timeout < 0.0:
            timeout = 0.0
        sock, wake_r = self.sock, self._wake_r
        try:
            readable, writable, _ = select.select(
                (sock,) if wake_r is None else (sock, wake_r),
                (sock,) if self._outbuf else (), (), timeout)
        except (OSError, ValueError) as exc:
            self._connection_lost(f"socket closed: {exc}")
            return
        if windowed and _obs.enabled:
            _obs.registry.cells[self._series["wakeups"]].inc()
        for ready in readable:
            if ready is sock:
                self._drain(windowed)
            else:
                try:
                    wake_r.recv(4096)
                except OSError:
                    pass
        if writable:
            self._pump()

    def _flush(self, now, windowed):
        """Transmit whatever is queued: one transmit when it all fits
        the transport's batch limit, else coalesced up to it."""
        with self._lock:
            calls = list(self._sendq)
            self._sendq.clear()
        requests = list(map(_REQUEST, calls))
        start = 0
        for group in batch_groups(requests, self._batch_limit):
            stop = start + len(group)
            self._send_group(calls[start:stop], group, now, windowed)
            start = stop

    def _send_group(self, group, requests, now, windowed):
        """One transmit of the ``requests`` of ``group`` — first sends
        and retransmissions alike — and the timer rule for every call
        it carried: once for the transmit when they are all untraced
        first sends with no deadline that are not final tries, else
        per call (:meth:`_arm`)."""
        send_spans = None  # flush_span is set with it, when traced
        if _obs.enabled:
            if windowed:
                _obs.registry.cells[self._series["batch_size"]].observe(
                    len(group))
            if _obs.tracer.sinks:
                flush_span = (_obs.span("mux.flush", side="client",
                                        transport=self._transport,
                                        messages=len(group))
                              if windowed else None)
                send_spans = [
                    call.span.child("client.send",
                                    attempt=call.stats.attempts + 1,
                                    bytes=len(call.request))
                    for call in group if call.span is not None]
        try:
            nbytes = self._transmit(requests)
        except FaultInjected as exc:
            if send_spans is not None:
                for span in send_spans:
                    span.end(outcome="error", error="FaultInjected")
                if flush_span is not None:
                    flush_span.end(outcome="fault")
            self._complete_batch([(call, None, exc) for call in group],
                                 windowed)
            return
        if send_spans is not None:
            for span in send_spans:
                span.end()
            if flush_span is not None:
                flush_span.end(bytes=nbytes)
        self.batches_sent += 1
        self.messages_batched += len(group)
        window = group[0].window
        # untraced first sends with no deadline and one window, none of
        # them a final try: what _arm does per call, decided once
        if (self.retransmits
                and set(map(_FIRST_SEND, group)) == {(None, None, 0, window)}
                and min(map(_HARD_END, group)) - now > window):
            when = now + window
            for call in group:
                call.next_send_at = when
                stats = call.stats
                stats.attempts = 1
                stats.backoff_schedule.append(window)
        else:
            when = min([self._arm(call, now) for call in group])
        if when < self._timer_floor:
            with self._lock:
                if when < self._timer_floor:
                    self._timer_floor = when

    def _arm(self, call, now):
        """The timer rule for one send of ``call`` at ``now``; returns
        when its next timer (retransmission or hard end) is due."""
        stats = call.stats
        stats.attempts += 1
        when = call.hard_end
        if self.retransmits:
            window = grant = call.window
            if call.deadline is not None:
                # A deadline is harder than the timeout budget: no
                # window stretches past it.
                grant = min(window, max(
                    call.deadline.expires_at - now, 0.0))
            stats.backoff_schedule.append(grant)
            when = now + grant
            if call.hard_end - now <= window:
                # The budget no longer covers a full window: this
                # is the final try, and it still listens for all
                # of it.
                call.hard_end = when
                call.next_send_at = _NEVER
            else:
                call.next_send_at = when
        if call.span is not None:
            call.wait_span = (
                call.span.child("client.wait", attempt=stats.attempts,
                                window_s=round(grant, 6))
                if self.retransmits else
                call.span.child("client.wait", attempt=stats.attempts))
        return when

    def _drain(self, windowed, flags=_DONTWAIT, messages=None):
        """Read and classify replies while a pending call could still
        be answered by what is queued: a lone call costs one receive,
        not one plus the ``EAGAIN`` that ends a read-until-dry loop.
        Only the first read takes ``flags`` (0 waits in it); a lone
        call handing over passes what its read yielded instead.  The
        resolutions are completed in one batch."""
        resolutions = []
        try:
            if messages is None:
                messages = self._receive(flags)
            while (messages is not None
                   and self._classify(messages, resolutions)):
                messages = self._receive(_DONTWAIT)
        except RpcProtocolError as exc:
            # Replies fully received ahead of the death resolve with
            # their real values, not in the connection-error sweep.
            self._complete_batch(resolutions, windowed)
            self._connection_lost(exc)
            return
        self._complete_batch(resolutions, windowed)

    def _garbage(self):
        """Count a payload that cannot be attributed to any call."""
        self.garbage_datagrams += 1
        if _obs.enabled:
            _obs.registry.counter("rpc.client.garbage_datagrams",
                                  transport=self._transport).inc()

    def _unknown_xid(self):
        """Count a late answer to a retransmitted-and-resolved call,
        or a duplicate after completion; it is dropped."""
        self.unknown_xids += 1
        self.stale_replies += 1
        if _obs.enabled:
            _obs.registry.counter("rpc.mux.unknown_xids",
                                  transport=self._transport).inc()
            _obs.registry.counter("rpc.client.stale_replies",
                                  transport=self._transport).inc()

    def _classify(self, messages, resolutions):
        """The reply classification, one pass per read: each message is
        garbage, an unknown xid, or parsed as a reply to its pending
        call — by the installed codec when there is one.  A reply that
        answers an untraced call whose stats hold nothing unusual
        completes here while obs is off, its counters folded once for
        the read; any other verdict that settles a call is appended to
        ``resolutions`` as ``(call, value, error)``.  Returns whether a
        pending call is still unanswered."""
        pending, codecs = self._pending, self._codecs
        plain = not _obs.enabled
        done = []
        for message in messages:
            try:
                xid = _XID(message)[0]
            except struct.error:  # too short to carry an xid
                self._garbage()
                continue
            # Lock-free probe: dict.get is atomic under the GIL, and
            # every completion re-checks ownership with a pop, so the
            # worst a racing close() costs is one redundant parse.
            call = pending.get(xid)
            if call is None:
                self._unknown_xid()
                continue
            span = call.span
            decode_span = (span.child("client.decode", bytes=len(message))
                           if span is not None else None)
            codec = codecs.get(call.proc)
            try:
                matched, value = (
                    self.decode_reply(message, xid, call.xdr_res)
                    if codec is None else codec[1](message, xid))
            except (XdrError, RpcProtocolError) as exc:
                # Undecodable under our xid (corruption, truncation):
                # retransmission recovers it from the server's DRC; on
                # a stream nothing will, so the call resolves typed.
                _end_call_span(decode_span, exc)
                call.stats.garbage_datagrams += 1
                if not self.retransmits:
                    resolutions.append((call, None, RpcProtocolError(
                        f"undecodable reply for xid {xid}")))
                continue
            except RpcError as exc:
                # A server verdict for *our* xid (denial, PROG_UNAVAIL,
                # SYSTEM_ERR shed, ...): the call resolves typed.
                _end_call_span(decode_span, exc)
                resolutions.append((call, None, exc))
                continue
            stats = call.stats
            if decode_span is not None:
                decode_span.end(matched=matched)
            if not matched:
                stats.stale_replies += 1
            elif (plain and span is None and not (
                    stats.retransmissions or stats.stale_replies
                    or stats.garbage_datagrams)):
                if pending.pop(xid, None) is not None:
                    call._value = value
                    done.append(call)
            else:
                resolutions.append((call, value, None))
        if done:  # what _finish_call folds for a plain call, once
            self.calls_completed += len(done)
            self.last_call_stats = done[-1].stats
            now = time.monotonic()
            for call in done:
                call.stats.elapsed_s = now - call.started
                call._done = True
            if self._waiters:
                with self._lock:  # the lock _cond notifies under
                    self._cond.notify_all()
        return len(resolutions) < len(pending)

    def _next_window(self, window):
        """The next back-off interval: grow, jitter, cap."""
        grown = window * self.backoff
        if self.jitter:
            grown *= 1.0 + self.jitter * (
                2.0 * self._jitter_rng.random() - 1.0
            )
        return min(grown, self.max_wait)

    def _fire_timers(self, windowed):
        now = time.monotonic()
        if now < self._timer_floor:
            return  # no timer can be due yet; skip the scan
        due = []
        floor = _NEVER
        with self._lock:
            # a snapshot: completions pop without the lock
            for call in list(self._pending.values()):
                when = min(call.hard_end, call.next_send_at)
                if when <= now:
                    due.append(call)
                elif when < floor:
                    floor = when
            self._timer_floor = floor
        resolutions = []
        for call in due:
            stats = call.stats
            if now >= call.hard_end:
                spent = (f"(prog={self.prog}, proc={call.proc}),"
                         f" {stats.attempts} attempts,"
                         f" {stats.retransmissions} retransmissions")
                if call.deadline is not None and call.deadline.expired:
                    error = RpcDeadlineExceeded(
                        f"RPC call exceeded its deadline of"
                        f" {call.deadline.budget_s}s {spent}")
                else:
                    error = RpcTimeoutError(
                        f"RPC call timed out after {self.timeout}s {spent}")
                resolutions.append((call, None, error))
                continue
            # A silent window: send the same bytes again, if allowed.
            budget = self.retry_budget
            if budget is not None and not budget.try_retry():
                resolutions.append((call, None, RpcRetryBudgetExhausted(
                    f"retry budget exhausted for RPC call"
                    f" (prog={self.prog}, proc={call.proc}) after"
                    f" {stats.attempts} attempt(s)")))
                continue
            stats.retransmissions += 1
            call.window = self._next_window(call.window)
            if call.deadline is not None:
                # Honest budget on the wire: the retransmission carries
                # what *remains* (no-op for non-propagated requests).
                stamp_deadline(call.request, call.deadline)
            if call.wait_span is not None:
                call.wait_span.end(outcome="silent")
            self._send_group((call,), (call.request,), now, windowed)
        self._complete_batch(resolutions, windowed)

    # -- completion -------------------------------------------------------

    def _complete_batch(self, resolutions, windowed=False):
        """Resolve ``[(call, value, error), ...]``.  The pop (atomic
        under the GIL) is the ownership check: entries another path
        already resolved are skipped.  Stats fold before ``_done``, so
        a waiter that returns from ``result()`` sees them.  ``_done``
        is written *then* the waiter count read, and a waiter counts
        itself *then* checks ``_done`` (or the window) under the lock:
        whichever order the two interleave in, a waiter that missed
        the write is seen here and notified — so a call nobody waits
        for costs no lock round and no ``notify_all``."""
        if not resolutions:
            return
        now = time.monotonic()
        pending = self._pending
        for call, value, error in resolutions:
            if pending.pop(call.xid, None) is None:
                continue
            stats = call.stats
            stats.elapsed_s = now - call.started
            if call.wait_span is not None:
                call.wait_span.end(outcome=(
                    "reply" if error is None
                    else "silent" if isinstance(error, RpcTimeoutError)
                    else "error"))
            self._finish_call(stats, error)
            call._value = value
            call._error = error
            call._done = True
        if windowed and _obs.enabled:
            self._note_inflight()
        if self._waiters:
            with self._lock:  # the lock _cond notifies under
                self._cond.notify_all()

    def _finish_call(self, stats, error):
        """The single aggregation point for per-call telemetry (the
        module's *Telemetry*): from the finished :class:`CallStats`, so
        a call contributes each number exactly once however it ends."""
        self.last_call_stats = stats
        self.calls_completed += 1
        if (stats.retransmissions or stats.stale_replies
                or stats.garbage_datagrams):
            self.retransmissions += stats.retransmissions
            self.stale_replies += stats.stale_replies
            self.garbage_datagrams += stats.garbage_datagrams
        if not _obs.enabled:
            return
        outcome = _outcome(error)
        keys = self._series
        registry = _obs.registry
        cells = registry.cells
        registry.lock.acquire()
        try:
            cells[keys[self._tier(stats.proc)]].value += 1
            if stats.attempts:
                cells[keys["attempts"]].value += stats.attempts
            if stats.retransmissions:
                cells[keys["retransmissions"]].value += stats.retransmissions
            if stats.stale_replies:
                cells[keys["stale_replies"]].value += stats.stale_replies
            if stats.garbage_datagrams:
                cells[keys["garbage_datagrams"]].value += (
                    stats.garbage_datagrams)
            if outcome == "timeout":
                cells[keys["timeouts"]].value += 1
            elif outcome == "deadline":
                cells[keys["deadline_exceeded"]].value += 1
            elif outcome != "ok":
                cells["counter", "rpc.client.errors", ("error", outcome),
                      ("transport", self._transport)].value += 1
            cells[keys["latency"]].fold(stats.elapsed_s)
        finally:
            registry.lock.release()

    def _tier(self, proc):
        return ("specialized" if proc in self._codecs
                else "fastpath" if self.fastpath_enabled else "generic")

    def _refuse(self, reason, describe):
        """Nothing new may start (``reason`` is why); every call in
        flight resolves ``RpcConnectionError(describe(call))``."""
        with self._lock:  # the lock _cond notifies under
            self._down = reason
            #: a lone call (slot None) is skipped: _handover raises this
            self._sweep = describe
            # a snapshot: completions pop without the lock
            calls = [call for call in list(self._pending.values())
                     if call is not None]
            self._cond.notify_all()  # window-admission waiters
        self._complete_batch([
            (call, None, RpcConnectionError(describe(call)))
            for call in calls])

    def _connection_lost(self, cause):
        """Driver only: the socket is gone, until the transport
        revives it."""
        self._refuse(
            self._down or f"connection is down ({cause}); reconnect() to"
                          f" revive",
            lambda call: f"connection lost with call (proc={call.proc},"
                         f" xid={call.xid}) in flight: {cause}")

    def _halt(self, reason, describe):
        """Stop driving: :meth:`_refuse`, then wait for whoever holds
        the driver role — the fallback thread or a waiter stepping
        — to leave it."""
        self._refuse(reason, describe)
        self._kick(True)
        thread = self._demux_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        if self._driver.acquire(timeout=2.0):
            self._driver.release()
