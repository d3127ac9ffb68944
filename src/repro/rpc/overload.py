"""Overload-control plane: the pieces that keep the stack stable at
saturation (DESIGN.md §13).

Four cooperating mechanisms, all opt-in at the call sites that use
them:

* **Deadline propagation** — :func:`make_deadline_cred` packs the
  client's remaining :class:`~repro.rpc.resilience.Deadline` budget
  into an opaque credential (flavor ``DEADLINE_FLAVOR``) that rides
  the standard Sun RPC cred area, wire-compatible with any RFC 1057
  peer (an unknown flavor is at worst rejected, and the generic
  decoder on our side parses it for free).  Servers use
  :func:`remaining_from_cred` to drop already-expired "doomed" work
  before dispatch.  Off by default (``REPRO_DEADLINE_PROPAGATION``);
  when off the cred area stays ``NULL_AUTH`` and the wire is
  byte-identical to the unpropagated stack.

* **Retry budgets** — :class:`RetryBudget` is a token bucket fed by
  *calls* (``ratio`` tokens each) and drained by *retries* (one token
  each), so sustained retransmission is capped at ``ratio`` of the
  recent call rate, with a small time-based floor (``min_rate``) so
  an idle client can still probe.  Denials surface as
  :class:`~repro.errors.RpcRetryBudgetExhausted`.

* **Hedging trigger** — :class:`HedgeTrigger` tracks a latency
  quantile over a sliding window and answers "how long should I wait
  before issuing a hedge to another replica?".

* **Adaptive queueing** — :class:`CodelQueue` replaces the plain
  bounded FIFO inside the worker pools: it tracks per-item *sojourn*
  (time spent queued) and, CoDel-style, sheds items once sojourn has
  exceeded ``target_s`` continuously for ``interval_s``; the
  ``codel-lifo`` policy additionally serves newest-first while
  overloaded so fresh requests — the ones that can still meet their
  deadlines — win.
"""

import collections
import math
import os
import queue
import struct
import threading
import time

from repro import obs as _obs
from repro.rpc.auth import OpaqueAuth

__all__ = [
    "DEADLINE_FLAVOR",
    "CodelQueue",
    "HedgeTrigger",
    "RetryBudget",
    "make_deadline_cred",
    "propagation_enabled",
    "remaining_from_cred",
    "stamp_deadline",
    "QUEUE_POLICIES",
]

#: user-defined auth flavor carrying the remaining deadline budget
#: (``b"DEAD"`` big-endian — far outside the RFC 1057 assigned range)
DEADLINE_FLAVOR = 0x44454144
#: cred body: one XDR-aligned unsigned hyper of remaining microseconds
_BODY = struct.Struct(">Q")
#: static ``registry.cells`` keys of :meth:`CodelQueue.pop`
_SOJOURN = ("histogram", "rpc.queue.sojourn_s")
_SOJOURN_SHEDS = ("counter", "rpc.queue.sojourn_sheds")
#: fixed offsets inside an encoded call header (RFC 1057 layout):
#: xid(4) mtype(4) rpcvers(4) prog(4) vers(4) proc(4) = 24 bytes,
#: then cred flavor(4) + cred length(4) + cred body.
_CRED_FLAVOR_OFF = 24
_CRED_BODY_OFF = 32
_CRED_PREFIX = struct.pack(">II", DEADLINE_FLAVOR, _BODY.size)

_TRUTHY = ("1", "true", "yes", "on")


def propagation_enabled(flag=None):
    """Resolve the deadline-propagation knob: an explicit ``flag``
    wins; ``None`` falls back to ``REPRO_DEADLINE_PROPAGATION``
    (default off)."""
    if flag is not None:
        return bool(flag)
    return os.environ.get(
        "REPRO_DEADLINE_PROPAGATION", ""
    ).strip().lower() in _TRUTHY


def make_deadline_cred(deadline):
    """Pack ``deadline.remaining()`` into the opaque cred extension."""
    remaining_us = max(0, int(deadline.remaining() * 1e6))
    return OpaqueAuth(DEADLINE_FLAVOR, _BODY.pack(remaining_us))


def remaining_from_cred(cred):
    """Remaining budget (seconds) carried by ``cred``, or ``None`` if
    the cred is not a well-formed deadline carrier."""
    if cred is None or cred.flavor != DEADLINE_FLAVOR:
        return None
    if len(cred.body) != _BODY.size:
        return None
    return _BODY.unpack(cred.body)[0] / 1e6


def stamp_deadline(request, deadline):
    """Re-stamp the remaining budget into an already-encoded request
    (in place), so retransmissions carry an honest, *shrunken* budget
    rather than the value frozen at build time.  Returns True if the
    request carried the deadline cred and was updated."""
    if not isinstance(request, bytearray):
        return False
    end = _CRED_FLAVOR_OFF + len(_CRED_PREFIX)
    if request[_CRED_FLAVOR_OFF:end] != _CRED_PREFIX:
        return False
    remaining_us = max(0, int(deadline.remaining() * 1e6))
    _BODY.pack_into(request, _CRED_BODY_OFF, remaining_us)
    return True


class RetryBudget:
    """Token bucket capping retries to a fraction of recent calls.

    Every completed-or-started call deposits ``ratio`` tokens
    (:meth:`note_call`); every retry withdraws one (:meth:`try_retry`).
    The bucket is bounded by ``burst`` and floored at zero, and a
    time-based drip of ``min_rate`` tokens/second keeps a quiet
    client able to probe occasionally.  Thread-safe.
    """

    def __init__(self, ratio=0.2, burst=10.0, min_rate=1.0,
                 clock=time.monotonic):
        if ratio < 0 or burst <= 0 or min_rate < 0:
            raise ValueError("ratio/min_rate must be >= 0, burst > 0")
        self.ratio = float(ratio)
        self.burst = float(burst)
        self.min_rate = float(min_rate)
        self._clock = clock
        self._lock = threading.Lock()
        self.tokens = self.burst
        self.updated_at = clock()
        self.calls = 0
        self.granted = 0
        self.denied = 0

    def _drip(self, now):
        elapsed = max(0.0, now - self.updated_at)
        self.updated_at = now
        self.tokens = min(self.burst,
                          self.tokens + elapsed * self.min_rate)

    def note_call(self):
        """A fresh call happened: deposit ``ratio`` tokens."""
        with self._lock:
            self.calls += 1
            self.tokens = min(self.burst, self.tokens + self.ratio)

    def try_retry(self):
        """Withdraw one token for a retry; False when the budget is
        dry (the caller must fail typed, not retransmit)."""
        with self._lock:
            self._drip(self._clock())
            if self.tokens >= 1.0:
                self.tokens -= 1.0
                self.granted += 1
                allowed = True
            else:
                self.denied += 1
                allowed = False
        if _obs.enabled:
            name = ("rpc.retry_budget.granted" if allowed
                    else "rpc.retry_budget.denied")
            _obs.registry.counter(name).inc()
        return allowed

    def summary(self):
        with self._lock:
            return {
                "ratio": self.ratio,
                "burst": self.burst,
                "tokens": self.tokens,
                "calls": self.calls,
                "granted": self.granted,
                "denied": self.denied,
            }


class HedgeTrigger:
    """Adaptive hedge-delay trigger: track a latency quantile over a
    sliding window; :meth:`delay` answers how long to wait for the
    primary before issuing a hedged request (None until the window
    holds ``min_samples`` observations).  Thread-safe."""

    def __init__(self, quantile=0.95, window=64, min_samples=16,
                 min_delay_s=0.001, max_delay_s=None):
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        self.quantile = quantile
        self.min_samples = max(1, int(min_samples))
        self.min_delay_s = min_delay_s
        self.max_delay_s = max_delay_s
        self._samples = collections.deque(maxlen=max(window,
                                                     self.min_samples))
        self._lock = threading.Lock()

    def observe(self, latency_s):
        with self._lock:
            self._samples.append(latency_s)

    def delay(self):
        with self._lock:
            if len(self._samples) < self.min_samples:
                return None
            ordered = sorted(self._samples)
        index = min(int(self.quantile * len(ordered)), len(ordered) - 1)
        delay = max(self.min_delay_s, ordered[index])
        if self.max_delay_s is not None:
            delay = min(delay, self.max_delay_s)
        return delay


#: queue policies accepted by :class:`CodelQueue`
QUEUE_POLICIES = ("fifo", "codel", "codel-lifo")


class CodelQueue:
    """Bounded request queue with CoDel-style sojourn control.

    Drop law (simplified CoDel): while the *sojourn* of dequeued items
    stays below ``target_s``, nothing is shed.  Once sojourn first
    exceeds the target, a grace of ``interval_s`` starts; if sojourn
    is still above target when it lapses, dequeues start shedding, at
    intervals shrinking with ``interval_s / sqrt(drop_count)`` until
    sojourn falls back under target.  A shed item is returned to the
    caller flagged ``shed=True`` so the owner can *answer* it (a
    SYSTEM_ERR shed) rather than drop it silently.

    Policies: ``fifo`` (no shedding — the legacy bounded queue),
    ``codel`` (shedding, FIFO order), ``codel-lifo`` (shedding,
    newest-first only while the controller is in its above-target
    state).

    ``put_nowait`` raises :class:`queue.Full` at ``maxsize`` exactly
    like the stdlib queue it replaces.
    """

    def __init__(self, maxsize, target_s=0.005, interval_s=0.1,
                 policy="codel", clock=time.monotonic):
        if policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue policy {policy!r}; choose from"
                f" {QUEUE_POLICIES}"
            )
        self.maxsize = maxsize
        self.target_s = target_s
        self.interval_s = interval_s
        self.policy = policy
        self._clock = clock
        self._items = collections.deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        #: CoDel state: when sojourn first went above target (+grace)
        self._next_shed_at = None
        self._shed_streak = 0
        self.sojourn_sheds = 0

    def qsize(self):
        with self._lock:
            return len(self._items)

    def empty(self):
        return self.qsize() == 0

    def put_nowait(self, item):
        with self._not_empty:
            if self.maxsize and len(self._items) >= self.maxsize:
                raise queue.Full
            self._items.append((item, self._clock()))
            self._not_empty.notify()

    def pop(self, timeout=None):
        """Dequeue one item -> ``(item, sojourn_s, shed)``; raises
        :class:`queue.Empty` if nothing arrives within ``timeout``."""
        with self._not_empty:
            if not self._not_empty.wait_for(lambda: self._items,
                                            timeout):
                raise queue.Empty
            now = self._clock()
            # newest first only while the controller is above target
            lifo = (self.policy == "codel-lifo"
                    and self._next_shed_at is not None)
            item, enqueued_at = (self._items.pop() if lifo
                                 else self._items.popleft())
            sojourn = max(0.0, now - enqueued_at)
            shed = (self.policy != "fifo"
                    and self._control(sojourn, now))
        if _obs.enabled:
            cells = _obs.registry.cells
            cells[_SOJOURN].observe(sojourn)
            if shed:
                cells[_SOJOURN_SHEDS].inc()
        return item, sojourn, shed

    def _control(self, sojourn, now):
        """The CoDel decision for one dequeue (holding the lock)."""
        if sojourn < self.target_s:
            self._next_shed_at = None
            self._shed_streak = 0
            return False
        if self._next_shed_at is None:
            self._next_shed_at = now + self.interval_s
            return False
        if now < self._next_shed_at:
            return False
        self._shed_streak += 1
        self.sojourn_sheds += 1
        self._next_shed_at = now + (self.interval_s
                                    / math.sqrt(self._shed_streak))
        return True
