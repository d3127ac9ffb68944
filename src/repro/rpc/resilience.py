"""``repro.rpc.resilience`` — deadlines, circuit breaking, failover,
and server-side overload control.

The paper's claim is that the specialized fast path is *behaviorally
identical* to the generic micro-layer stack.  That equivalence only
matters if both survive the same failure envelope: the packet level
(loss, duplication, corruption) is covered by :mod:`repro.rpc.faults`
and the DRC; this module covers the *endpoint* level —

* **Deadlines** (:class:`Deadline`): one end-to-end budget per call
  that the retransmission loop, TCP connect/reconnect, and the reply
  wait all draw from.  Exhausting it raises the typed
  :class:`~repro.errors.RpcDeadlineExceeded` — a call can be slow or
  it can fail, but it can never hang past its budget.
* **Circuit breaking** (:class:`CircuitBreaker`): per-endpoint
  closed → open → half-open state machine with an injectable clock so
  tests drive the transitions deterministically.
* **Failover** (:class:`FailoverClient`): one client face over N
  replicated endpoints; rotates on connection failure, timeout, or an
  open breaker, and keeps DRC-safe xid discipline — every endpoint's
  underlying client draws xids from one shared counter, so an xid is
  never reused for two *different* calls, while a retransmission of
  the *same* call keeps its xid and stays coalescible by the server's
  duplicate-request cache.
* **Overload control** (:class:`WorkerPool`, :class:`InflightLimiter`):
  a bounded request queue with workers (UDP) and an in-flight cap
  (TCP); an overloaded server *answers* with a Sun RPC ``SYSTEM_ERR``
  reply instead of silently dropping, so clients fail over instead of
  burning their budget on retransmits.
* **Graceful drain**: the health program constants below plus
  ``SvcRegistry.begin_drain()`` — a draining server finishes in-flight
  calls, keeps serving DRC replays, answers health checks, and sheds
  everything else.

Everything here is threaded through *both* the generic and the
specialized dispatch paths, preserving the paper's equivalence under
failure as well as under load.
"""

import itertools
import os
import queue
import struct
import threading
import time
from collections import OrderedDict

from repro import obs as _obs
from repro.errors import (
    RpcCircuitOpenError,
    RpcConnectionError,
    RpcDeadlineExceeded,
    RpcDeniedError,
    RpcError,
    RpcRetryBudgetExhausted,
    RpcTimeoutError,
)
from repro.rpc.overload import CodelQueue, HedgeTrigger, RetryBudget

__all__ = [
    "Deadline",
    "CircuitBreaker",
    "CallerQuota",
    "FailoverClient",
    "TokenBucket",
    "WorkerPool",
    "InflightLimiter",
    "HEALTH_PROG",
    "HEALTH_VERS",
    "HEALTH_PROC_STATUS",
    "STATUS_SERVING",
    "STATUS_DRAINING",
]

#: the well-known health-check program (user-defined number space).
HEALTH_PROG = 0x20FFFFFF
HEALTH_VERS = 1
#: procedure 1 returns the serving status as an XDR u_long; procedure
#: 0 is the ordinary NULL ping (answered even while draining).
HEALTH_PROC_STATUS = 1
STATUS_SERVING = 1
STATUS_DRAINING = 2


class Deadline:
    """An absolute end-to-end budget for one call.

    Every stage of the call draws from the same budget: encode, each
    retransmission window, TCP connect/reconnect, the reply wait.  The
    clock is injectable (tests pass a fake); ``remaining()`` may go
    negative once expired.
    """

    __slots__ = ("budget_s", "expires_at", "_clock")

    def __init__(self, budget_s, clock=time.monotonic):
        self._clock = clock
        self.budget_s = float(budget_s)
        self.expires_at = clock() + self.budget_s

    @classmethod
    def coerce(cls, value, clock=time.monotonic):
        """None, a Deadline, or a seconds budget → Deadline (or None)."""
        if value is None or isinstance(value, Deadline):
            return value
        return cls(value, clock=clock)

    def remaining(self):
        return self.expires_at - self._clock()

    @property
    def expired(self):
        return self.remaining() <= 0.0

    def check(self, context=""):
        """Raise :class:`RpcDeadlineExceeded` if expired; else return
        the remaining seconds."""
        remaining = self.remaining()
        if remaining <= 0.0:
            where = f" ({context})" if context else ""
            raise RpcDeadlineExceeded(
                f"deadline of {self.budget_s}s exceeded{where}"
            )
        return remaining

    def __repr__(self):
        return (f"Deadline(budget={self.budget_s}s,"
                f" remaining={self.remaining():.3f}s)")


class CircuitBreaker:
    """Per-endpoint closed → open → half-open breaker.

    * **closed** — calls flow; ``failure_threshold`` consecutive
      failures trip it open.
    * **open** — calls are rejected locally (no network) until
      ``recovery_s`` elapses, then the breaker half-opens.
    * **half-open** — up to ``half_open_probes`` trial calls are let
      through; one success closes the breaker, one failure re-opens it
      (and restarts the recovery clock).

    The clock is injectable so tests step time explicitly; all methods
    are thread-safe.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold=5, recovery_s=1.0,
                 half_open_probes=1, clock=time.monotonic, name=None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self.half_open_probes = half_open_probes
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = None
        self._probes_left = 0
        #: (state, at) history of every transition, for tests/reports
        self.transitions = []
        self.rejections = 0

    @property
    def state(self):
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _transition(self, state):
        """Lock held by caller."""
        self._state = state
        self.transitions.append((state, self._clock()))
        if _obs.enabled:
            _obs.registry.counter("rpc.breaker.transitions",
                                  to=state).inc()

    def _maybe_half_open(self):
        """Lock held by caller: open → half-open once recovery_s passed."""
        if (self._state == self.OPEN
                and self._clock() - self._opened_at >= self.recovery_s):
            self._transition(self.HALF_OPEN)
            self._probes_left = self.half_open_probes

    def allow(self):
        """May a call proceed right now?  Half-open consumes a probe."""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN and self._probes_left > 0:
                self._probes_left -= 1
                return True
            self.rejections += 1
            if _obs.enabled:
                _obs.registry.counter("rpc.breaker.rejections").inc()
            return False

    def record_success(self):
        with self._lock:
            self._failures = 0
            if self._state != self.CLOSED:
                self._transition(self.CLOSED)

    def record_failure(self):
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN or (
                    self._state == self.CLOSED
                    and self._failures >= self.failure_threshold):
                self._opened_at = self._clock()
                self._transition(self.OPEN)

    def recovery_due_in(self):
        """Seconds until an open breaker half-opens (0 when not open)."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(
                0.0,
                self.recovery_s - (self._clock() - self._opened_at),
            )

    def summary(self):
        with self._lock:
            return {
                "state": self._state,
                "failures": self._failures,
                "rejections": self.rejections,
                "transitions": len(self.transitions),
            }

    def __repr__(self):
        return f"CircuitBreaker(state={self.state}, name={self.name!r})"


class InflightLimiter:
    """A non-blocking in-flight counter with an optional cap:
    ``try_acquire`` admits a request (False == over the cap: shed it),
    ``wait_idle`` is what graceful drain blocks on.  A request in
    flight is an entry of one list (``append`` / ``pop`` are atomic),
    so :meth:`release` and an uncapped ``enter(None)`` take no lock."""

    def __init__(self, limit=None):
        self.limit = limit
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._slots = []
        self.enter = self._slots.append  # uncapped admission
        #: threads inside ``wait_idle`` (no waiter, no ``notify_all``)
        self._waiters = 0
        self.rejected = 0

    @property
    def inflight(self):
        return len(self._slots)

    def try_acquire(self):
        with self._lock:
            if self.limit is not None and len(self._slots) >= self.limit:
                self.rejected += 1
                return False
            self.enter(None)
            return True

    def release(self):
        # popped *then* the waiter count read; a waiter counts itself
        # *then* checks the list: neither order loses a wake-up
        self._slots.pop()
        if self._waiters and not self._slots:
            with self._lock:
                self._idle.notify_all()

    def wait_idle(self, timeout=None):
        """Block until nothing is in flight; True when idle."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._waiters += 1
            try:
                while self._slots:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        return False
                    self._idle.wait(remaining)
                return True
            finally:
                self._waiters -= 1


class TokenBucket:
    """One caller's refillable call allowance.

    Classic token bucket: ``rate`` tokens/second accrue up to
    ``burst``; a call costs one token.  Not thread-safe on its own —
    :class:`CallerQuota` serializes access.
    """

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate, burst, now):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated_at = now

    def try_take(self, now):
        elapsed = max(0.0, now - self.updated_at)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class CallerQuota:
    """Per-caller token-bucket admission, layered under the queue-depth
    and in-flight overload controls.

    Those controls bound *total* load; this one bounds *each caller's
    share*, so one greedy client cannot starve the fleet for everyone
    behind the same replica set.  The caller identity is the transport
    peer's host (not the ephemeral port — a client that reconnects
    keeps drawing from the same budget).  Buckets live in a bounded
    LRU: a long tail of one-shot callers cannot grow memory without
    bound, at the cost that a caller idle long enough to be evicted
    returns to a full burst.

    A denied call is *answered* (``SYSTEM_ERR``, shed reason
    ``quota``), mirroring the overload path — the client fails over or
    backs off instead of burning its deadline on retransmits.
    """

    def __init__(self, rate, burst=None, max_callers=4096,
                 clock=time.monotonic, key=None):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate)
        if self.burst < 1.0:
            raise ValueError("burst must be >= 1")
        self.max_callers = max_callers
        self._clock = clock
        #: caller -> bucket identity; default groups by host.  Pass
        #: ``key=lambda caller: caller`` to budget each socket
        #: separately (e.g. loopback fleets, where every peer shares
        #: one host).
        self._key = key if key is not None else self.identity
        self._lock = threading.Lock()
        self._buckets = OrderedDict()
        self.admitted = 0
        self.shed = 0
        self.evicted = 0

    @staticmethod
    def identity(caller):
        """The quota identity of a transport caller: host for address
        tuples, the value itself otherwise."""
        if isinstance(caller, tuple) and caller:
            return caller[0]
        return caller

    def admit(self, caller):
        """Charge one call to ``caller``'s bucket; False means shed."""
        ident = self._key(caller)
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(ident)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, now)
                self._buckets[ident] = bucket
                while len(self._buckets) > self.max_callers:
                    self._buckets.popitem(last=False)
                    self.evicted += 1
            else:
                self._buckets.move_to_end(ident)
            admitted = bucket.try_take(now)
            if admitted:
                self.admitted += 1
            else:
                self.shed += 1
            callers = len(self._buckets)
        if _obs.enabled:
            cells = _obs.registry.cells
            cells[_QUOTA[admitted]].inc()
            cells[_QUOTA_CALLERS].set(callers)
        return admitted

    def summary(self):
        with self._lock:
            return {
                "rate": self.rate,
                "burst": self.burst,
                "callers": len(self._buckets),
                "admitted": self.admitted,
                "shed": self.shed,
                "evicted": self.evicted,
            }


_STOP = object()
#: static ``registry.cells`` keys of the per-request instruments
_QUOTA = (("counter", "rpc.quota.sheds"), ("counter", "rpc.quota.admitted"))
_QUOTA_CALLERS = ("gauge", "rpc.quota.callers")
_QUEUE_DEPTH = ("gauge", "rpc.server.queue_depth")


class WorkerPool:
    """A bounded request queue drained by daemon worker threads.

    ``submit`` never blocks: a full queue returns False and the caller
    sheds the request with a proper RPC error reply instead of letting
    it pile up.  The queue itself is a
    :class:`~repro.rpc.overload.CodelQueue`: under sustained sojourn
    above the CoDel target, dequeued items are *shed* (handed to
    ``shed_handler`` so the owner can answer them with a SYSTEM_ERR
    reply) instead of executed, and the ``codel-lifo`` policy serves
    newest-first while overloaded.  ``queue_policy="fifo"`` restores
    the legacy never-shed bounded queue.  Worker exceptions are
    contained (counted, never propagated), so a hostile request cannot
    kill a worker.  Graceful drain waits on ``wait_idle`` — queue
    empty *and* no handler mid-flight.
    """

    def __init__(self, workers, queue_depth, handler, name="rpc-worker",
                 queue_policy="codel", queue_target_s=0.005,
                 queue_interval_s=0.1, shed_handler=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.handler = handler
        #: called with a dequeued-but-shed item; the owner answers it
        self.shed_handler = shed_handler
        self._queue = CodelQueue(max(1, queue_depth),
                                 target_s=queue_target_s,
                                 interval_s=queue_interval_s,
                                 policy=queue_policy)
        self._limiter = InflightLimiter()
        self._stopped = threading.Event()
        self.worker_errors = 0
        self.submitted = 0
        self.shed = 0
        self.sojourn_shed = 0
        self._threads = [
            threading.Thread(target=self._run, name=f"{name}-{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, item):
        """Enqueue one request; False means the queue is full (shed)."""
        try:
            # Counted in flight *before* a worker can see it: wait_idle
            # never observes a queued-but-uncounted request.
            self._limiter.enter(None)
            self._queue.put_nowait(item)
        except queue.Full:
            self._limiter.release()
            self.shed += 1
            return False
        self.submitted += 1
        if _obs.enabled:
            _obs.registry.cells[_QUEUE_DEPTH].set(self._queue.qsize())
        return True

    def _run(self):
        while True:
            try:
                item, _sojourn, shed = self._queue.pop(timeout=0.2)
            except queue.Empty:
                if self._stopped.is_set():
                    return
                continue
            if item is _STOP:
                return
            try:
                if shed:
                    # The CoDel controller says this item sat too long:
                    # answer it (shed_handler sends SYSTEM_ERR) rather
                    # than execute work whose caller has likely moved
                    # on — executing it would only prolong the queue.
                    self.sojourn_shed += 1
                    if self.shed_handler is not None:
                        self.shed_handler(item)
                else:
                    self.handler(item)
            # repro: disable=overbroad-except -- last-line worker containment: a pool thread must survive any request
            except Exception:
                # Contain everything: a worker must survive any
                # request.  (The dispatcher already answers malformed
                # input with typed RPC errors; this is the last line.)
                self.worker_errors += 1
            finally:
                self._limiter.release()

    @property
    def inflight(self):
        return self._limiter.inflight

    def wait_idle(self, timeout=None):
        """True once the queue is empty and no handler is running."""
        return self._limiter.wait_idle(timeout)

    def stop(self, timeout=2.0):
        self._stopped.set()
        for _ in self._threads:
            try:
                self._queue.put_nowait(_STOP)
            except queue.Full:
                break
        for thread in self._threads:
            thread.join(timeout=timeout)


#: ``FailoverClient(transport=)`` -> the :mod:`repro.rpc` client name
_CLIENT_NAMES = {"udp": "UdpClient", "tcp": "TcpClient",
                 "mux-udp": "MuxUdpClient", "mux-tcp": "MuxTcpClient"}


class _Replica:
    """One endpoint of a :class:`FailoverClient`: its address, its
    lazily-created client, its breaker and its retry budget.  An
    attempt carries its record, so its outcome lands on this endpoint
    even when the replica set is re-published under it."""

    __slots__ = ("endpoint", "client", "breaker", "retry_budget")

    def __init__(self, endpoint, breaker, retry_budget):
        self.endpoint = endpoint
        self.client = None
        self.breaker = breaker
        self.retry_budget = retry_budget


class FailoverClient:
    """One client face over N replicated endpoints.

    ``endpoints`` is a list of ``(host, port)``; ``transport`` picks
    UDP or TCP.  Each endpoint is one record: a lazily-created
    underlying client, its own :class:`CircuitBreaker` and its retry
    budget.  A call tries the current endpoint first and rotates on
    connection failure, timeout, server error, or an open breaker;
    with a deadline it keeps cycling the replica set until the budget
    is spent, then raises :class:`~repro.errors.RpcDeadlineExceeded`.

    **Xid discipline:** all underlying clients share one xid counter.
    A retransmission of the same call (inside one endpoint's
    retransmission loop) keeps its xid — the server's DRC coalesces
    it; a *failover* attempt is a new call with a fresh xid — the new
    endpoint has no reply cached for it, so at-least-once execution
    across endpoints is explicit, never accidental xid collision.

    ``call_budget_s`` is the default per-call deadline (None = no
    deadline: one rotation through the replica set, then the last
    error propagates).

    **Retry budget:** ``retry_budget_ratio`` > 0 installs a
    :class:`~repro.rpc.overload.RetryBudget` shared by the rotation
    loop — after the first failed attempt, every further attempt
    (rotation or re-cycle) must withdraw a token, and exhaustion
    raises the typed
    :class:`~repro.errors.RpcRetryBudgetExhausted` instead of feeding
    a retry storm.  UDP transports also get a per-endpoint budget
    gating their in-call retransmissions.

    **Hedging:** ``hedge_trigger=`` (a
    :class:`~repro.rpc.overload.HedgeTrigger`; ``HedgeTrigger()`` is
    the adaptive p95 default) arms hedged requests (every transport
    has ``call_async``): once the trigger has a latency profile, a
    call that outlives its delay issues a second request to another
    replica; the first reply wins.  The hedge is a *new call with a
    fresh xid* from the shared counter, so the xid discipline above
    plus the server DRC guarantee the loser coalesces or executes
    at-most-once — never a duplicate execution of the same xid.
    """

    def __init__(self, endpoints, prog, vers, transport="udp",
                 call_budget_s=None, breaker_threshold=3,
                 breaker_recovery_s=1.0, retry_pause_s=0.02,
                 clock=time.monotonic, client_factory=None,
                 retry_budget_ratio=0.0, retry_budget_burst=10.0,
                 retry_budget_min_rate=1.0, hedge_trigger=None,
                 **client_kwargs):
        if transport not in _CLIENT_NAMES:
            raise ValueError(f"unknown transport {transport!r}")
        self.prog = prog
        self.vers = vers
        self.transport = transport
        self.call_budget_s = call_budget_s
        self.retry_pause_s = retry_pause_s
        self._clock = clock
        self._client_factory = client_factory
        self._client_kwargs = dict(client_kwargs)
        self._breaker_threshold = breaker_threshold
        self._breaker_recovery_s = breaker_recovery_s
        self._retry_budget_ratio = retry_budget_ratio
        self._retry_budget_burst = retry_budget_burst
        self._retry_budget_min_rate = retry_budget_min_rate
        #: gates rotation/re-cycle attempts after the first failure
        self._rotation_budget = self._make_retry_budget()
        self._hedge_trigger = hedge_trigger
        self._lock = threading.Lock()
        #: the replica set: a tuple of records, replaced whole
        self._replicas = ()
        self.set_endpoints(endpoints)
        #: the record of the last successful call; rotations start there
        self._current = self._replicas[0]
        start = struct.unpack(">I", os.urandom(4))[0]
        #: one xid sequence shared by every underlying client
        self._xids = itertools.count(start)
        self.failovers = 0
        self.calls_completed = 0
        self.deadline_exceeded = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.retry_budget_exhausted = 0

    # -- the replica set ----------------------------------------------------

    @property
    def endpoints(self):
        """The replica set's ``(host, port)`` pairs, in configured order."""
        return [replica.endpoint for replica in self._replicas]

    @property
    def breakers(self):
        return [replica.breaker for replica in self._replicas]

    def _replica(self, endpoint):
        host, port = endpoint
        breaker = CircuitBreaker(failure_threshold=self._breaker_threshold,
                                 recovery_s=self._breaker_recovery_s,
                                 clock=self._clock, name=f"{host}:{port}")
        return _Replica(endpoint, breaker, self._make_retry_budget())

    def _make_retry_budget(self):
        if self._retry_budget_ratio <= 0:
            return None
        return RetryBudget(self._retry_budget_ratio,
                           burst=self._retry_budget_burst,
                           min_rate=self._retry_budget_min_rate,
                           clock=self._clock)

    def _rotation(self, first):
        """One snapshot of the replica set, rotated to start at the
        record ``first`` (at the head once ``first`` has departed)."""
        replicas = self._replicas
        start = replicas.index(first) if first in replicas else 0
        return replicas[start:] + replicas[:start]

    def _make_client(self, replica, deadline, prog, vers):
        host, port = replica.endpoint
        if self._client_factory is not None:
            return self._client_factory(host, port, prog, vers,
                                        **self._client_kwargs)
        from repro import rpc

        cls = getattr(rpc, _CLIENT_NAMES[self.transport])
        kwargs = dict(self._client_kwargs)
        if cls.retransmits:
            # Hand a retransmitting transport this endpoint's retry
            # budget, so in-call retransmissions draw from the same
            # accounting as rotation attempts.
            if replica.retry_budget is not None:
                kwargs.setdefault("retry_budget", replica.retry_budget)
        elif deadline is not None:
            # A stream connects in its constructor: inside the budget.
            kwargs["timeout"] = min(
                kwargs.get("timeout", 25.0), max(deadline.check("connect"),
                                                 1e-3)
            )
        return cls(host, port, prog, vers, **kwargs)

    def _client(self, replica, deadline):
        client = replica.client
        if client is None:
            client = self._make_client(replica, deadline, self.prog,
                                       self.vers)
            # Shared xid discipline: every endpoint draws from the one
            # counter, so no two distinct calls ever share an xid.
            client._xids = self._xids
            replica.client = client
        return client

    @staticmethod
    def _drop(replica):
        """Forget a replica's broken client so the next use reconnects."""
        client, replica.client = replica.client, None
        if client is not None:
            try:
                client.close()
            except OSError:
                pass

    def set_endpoints(self, endpoints):
        """Replace the replica set (the fleet watcher's hook).

        Endpoints present in both the old and new sets keep their
        record — underlying client, breaker state, retry budget;
        departed endpoints' clients are closed; new endpoints start
        cold.  The set is published as one new tuple, copy-on-write
        like ``SvcRegistry``'s route table: a call or probe works on
        the snapshot it took, and an attempt's outcome lands on the
        record it ran on, never on a position.  Rotations keep
        starting from the current endpoint while it survives, and
        from the head once it departs.  Returns True when the set actually changed; an empty list is
        rejected — a failover client with zero endpoints could never
        recover.
        """
        fresh = list(dict.fromkeys(tuple(endpoint) for endpoint in endpoints))
        if not fresh:
            raise ValueError("need at least one endpoint")
        with self._lock:
            if fresh == self.endpoints:
                return False
            known = {replica.endpoint: replica for replica in self._replicas}
            self._replicas = tuple(known.pop(endpoint, None)
                                   or self._replica(endpoint)
                                   for endpoint in fresh)
        for departed in known.values():
            self._drop(departed)
        return True

    # -- the call loop ----------------------------------------------------

    def call(self, proc, args=None, xdr_args=None, xdr_res=None,
             deadline=None):
        budget = deadline if deadline is not None else self.call_budget_s
        deadline = Deadline.coerce(budget, clock=self._clock)
        last_error = None
        rotation_budget = self._rotation_budget
        if rotation_budget is not None:
            rotation_budget.note_call()
        tried = 0
        while True:
            if deadline is not None:
                try:
                    deadline.check(f"proc={proc}")
                except RpcDeadlineExceeded:
                    self.deadline_exceeded += 1
                    if last_error is not None:
                        raise RpcDeadlineExceeded(
                            f"deadline exceeded calling proc={proc}; last"
                            f" endpoint error: {last_error}"
                        ) from last_error
                    raise
            # One snapshot per rotation: set_endpoints() may publish a
            # new replica set between (or during) rotations.
            ring = self._rotation(self._current)
            hedge = self._hedge_trigger is not None and len(ring) > 1
            attempted = False
            for replica in ring:
                if not replica.breaker.allow():
                    continue
                if deadline is not None and deadline.expired:
                    break
                if (tried and rotation_budget is not None
                        and not rotation_budget.try_retry()):
                    # Every attempt after the first is a retry in the
                    # budget's eyes: a dry bucket fails the call typed
                    # instead of feeding the storm.
                    self.retry_budget_exhausted += 1
                    raise RpcRetryBudgetExhausted(
                        f"retry budget exhausted calling"
                        f" proc={proc} after {tried} attempt(s);"
                        f" last endpoint error: {last_error!r}"
                    ) from last_error
                attempted = True
                tried += 1
                value, error = self._attempt(replica, hedge, proc, args,
                                             xdr_args, xdr_res, deadline)
                if error is None:
                    with self._lock:
                        if self._current is not replica:
                            self.failovers += 1
                            if _obs.enabled:
                                _obs.registry.counter(
                                    "rpc.client.failovers").inc()
                        self._current = replica
                        self.calls_completed += 1
                    return value
                if isinstance(error, RpcDeadlineExceeded):
                    # The budget is global, not per-endpoint.
                    self.deadline_exceeded += 1
                    raise error
                last_error = error
            if deadline is None:
                # No budget to keep cycling: one full rotation only.
                break
            # Budget remains: pause briefly (bounded by the budget and
            # by the earliest breaker recovery) and cycle again.
            pause = self.retry_pause_s
            if not attempted:
                due = min(replica.breaker.recovery_due_in()
                          for replica in ring)
                pause = max(pause, min(due, 0.25))
            remaining = deadline.remaining()
            if remaining <= 0:
                continue  # the top-of-loop check raises
            time.sleep(min(pause, max(remaining, 0.0)))
        if last_error is not None:
            raise last_error
        raise RpcCircuitOpenError(
            f"all {len(ring)} endpoints have open circuit breakers"
        )

    def _attempt(self, replica, hedge, proc, args, xdr_args, xdr_res,
                 deadline):
        """One attempt on ``replica``: ``(value, None)`` or ``(None,
        error)``, every outcome mapped by :meth:`_settle`.  An unhedged
        attempt keeps the synchronous ``call`` (a lone call's inline
        receive); a hedged one launches with ``call_async``."""
        trigger = self._hedge_trigger
        started = self._clock() if trigger is not None else None

        def send(target, launch=False):
            client = self._client(target, deadline)
            method = client.call_async if launch else client.call
            return method(proc, args, xdr_args=xdr_args, xdr_res=xdr_res,
                          deadline=deadline)

        if hedge:
            value, error = self._call_hedged(replica, send)
        else:
            value, error = self._settle(replica, lambda: send(replica))
        if error is None and trigger is not None:
            trigger.observe(self._clock() - started)
        return value, error

    def _settle(self, replica, attempt, launch=False):
        """Run ``attempt`` against ``replica`` and map its outcome: the
        breaker rule, written once.

        Returns ``(value, None)``, or ``(None, error)`` for a failure
        the call loop rotates on — or, for a spent deadline, counts
        and raises (the budget is global, not per-endpoint).  Only
        evidence that the *endpoint* is unhealthy charges its breaker:
        connection death (which also drops this record's client),
        silence, a deadline burn.  An *answered* denial — a SYSTEM_ERR
        overload shed, a quota shed, an auth refusal — proves the
        endpoint alive and deliberately refusing, and a retry-budget
        denial is local policy: both rotate uncharged, or load
        shedding would cascade into spurious circuit opens.
        ``launch=True`` marks a ``call_async`` launch: a pending call
        is not a reply yet, so its success leaves the breaker alone.
        """
        try:
            value = attempt()
        except (RpcRetryBudgetExhausted, RpcDeniedError) as exc:
            return None, exc
        except (RpcTimeoutError, RpcConnectionError, OSError) as exc:
            error = self._as_rpc_error(exc)
            replica.breaker.record_failure()
            if isinstance(error, RpcConnectionError):
                self._drop(replica)
            return None, error
        if not launch:
            replica.breaker.record_success()
        return value, None

    # -- hedged requests ---------------------------------------------------

    def _call_hedged(self, replica, send):
        """One attempt on ``replica`` with a hedge race.

        The primary goes out immediately; if it outlives the adaptive
        trigger delay, a *second, fresh-xid* call goes to another
        replica and the first successful reply wins.  The loser is
        left to resolve in the background — the mux engine guarantees
        every pending call a typed outcome, and the server DRC
        coalesces any late retransmission, so no xid ever executes
        twice.
        """
        primary, error = self._settle(replica, lambda: send(replica, True),
                                      launch=True)
        if error is not None:
            return None, error
        delay = self._hedge_trigger.delay()
        target = secondary = None
        if delay is not None and not primary.wait(delay):
            target = self._hedge_target(replica)
        if target is not None:
            # A fresh xid from the shared counter — this is a new
            # call, not a retransmission, so the two replicas can
            # never confuse their DRC entries.
            secondary, _ = self._settle(target, lambda: send(target, True),
                                        launch=True)
        if secondary is None:
            # No latency profile yet, an answer inside the hedge
            # window, no other admitted replica or a failed hedge
            # launch: the primary settles alone.
            return self._settle(replica, primary.result)
        self.hedges += 1
        if _obs.enabled:
            _obs.registry.counter("rpc.hedge.attempts").inc()
        racers = ((replica, primary), (target, secondary))
        while True:
            done = [(racer, call) for racer, call in racers if call.done()]
            for racer, call in done:
                if call.exception(0) is None:
                    if racer is target:
                        self.hedge_wins += 1
                    if _obs.enabled:
                        _obs.registry.counter(
                            "rpc.hedge.wins",
                            winner="hedge" if racer is target else "primary",
                        ).inc()
                    return self._settle(racer, call.result)
            if len(done) == len(racers):
                # Both lost: each racer is charged by the one rule, and
                # the primary's error is the attempt's.
                outcome = self._settle(replica, primary.result)
                self._settle(target, secondary.result)
                return outcome
            # Block briefly on a racer still pending; a completion on
            # either side wakes the next loop turn.
            (secondary if primary.done() else primary).wait(0.002)

    def _hedge_target(self, primary):
        """The next breaker-admitted replica after ``primary`` in one
        snapshot of the set, or None when every other breaker
        refuses."""
        for replica in self._rotation(primary):
            if replica is not primary and replica.breaker.allow():
                return replica
        return None

    @staticmethod
    def _as_rpc_error(exc):
        if isinstance(exc, RpcError):
            return exc
        return RpcConnectionError(f"endpoint unreachable: {exc}")

    # -- convenience -------------------------------------------------------

    def null_call(self, deadline=None):
        return self.call(0, deadline=deadline)

    def health(self, deadline=None):
        """The health program's status (``STATUS_SERVING`` /
        ``STATUS_DRAINING``) from whichever replica answers.

        One rotation from the current endpoint, each probed through a
        throwaway client of its own (health rides its own program
        number; the cached clients are per-(prog, vers)).  A probe
        reads one snapshot of the replica set and draws xids and
        nothing else: calls on other threads, the breakers and the
        rotation position never see it.
        """
        from repro.xdr import xdr_u_long

        budget = deadline if deadline is not None else self.call_budget_s
        deadline = Deadline.coerce(budget, clock=self._clock)
        last_error = None
        for replica in self._rotation(self._current):
            try:
                client = self._make_client(replica, deadline, HEALTH_PROG,
                                           HEALTH_VERS)
            except (RpcError, OSError) as exc:
                last_error = self._as_rpc_error(exc)
                continue
            try:
                client._xids = self._xids
                return client.call(HEALTH_PROC_STATUS, xdr_res=xdr_u_long,
                                   deadline=deadline)
            except RpcError as exc:
                last_error = exc
            finally:
                client.close()
        raise last_error

    def stats_summary(self):
        summary = {
            "calls_completed": self.calls_completed,
            "failovers": self.failovers,
            "deadline_exceeded": self.deadline_exceeded,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "retry_budget_exhausted": self.retry_budget_exhausted,
            "breakers": [breaker.summary() for breaker in self.breakers],
        }
        if self._rotation_budget is not None:
            summary["retry_budget"] = self._rotation_budget.summary()
        return summary

    def close(self):
        for replica in self._replicas:
            self._drop(replica)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
