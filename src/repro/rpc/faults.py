"""Deterministic fault injection for the RPC transports.

The paper argues the specialized fast path is *behavior-preserving
under the Sun RPC failure model* — at-least-once UDP semantics with
client retransmission.  Exercising that claim needs a hostile network
on demand: this module injects datagram faults deterministically so
the same seeded plan drives unit tests, loopback integration tests
and the fault bench (``python -m repro.bench faults``).

* :class:`FaultPlan` is a seeded schedule: each :meth:`FaultPlan.decide`
  call draws one fixed-length tuple of uniforms from a private
  ``random.Random(seed)`` and turns the configured rates into a set of
  fault actions for the next datagram.  Same seed + same rates → same
  fault sequence, independent of wall clock or interleaving order of
  *other* plans.

* :class:`FaultySocket` wraps a real socket and applies a plan's
  decisions per send/receive.  It duck-types the socket surface the
  transports use (``sendto``/``send``/``sendall``/``recvfrom``/
  ``recv_into``/``recvfrom_into``/``recv``/``fileno``/…; a connected
  datagram socket's ``send`` is faulted as ``sendto``), so it drops into
  :class:`~repro.rpc.clnt_udp.UdpClient`,
  :class:`~repro.rpc.svc_udp.UdpServer`, and the TCP transports
  unchanged.

Datagram (UDP) semantics per action:

``drop``       the payload is discarded (send) or delivered as a
               zero-length datagram (receive — both peers' dispatchers
               treat an empty datagram as undecodable and drop it, so
               the effect is a loss without blocking the reader).
``duplicate``  the payload is sent twice back to back.
``reorder``    the payload is held back and sent *after* the next one.
``delay``      ``delay_s`` seconds of sleep before delivery.
``corrupt``    one byte is XOR-flipped at a seeded offset.
``truncate``   the payload is cut to a seeded fraction of its length.

Stream (TCP) semantics differ because TCP hides loss below the record
layer: ``drop`` aborts the connection (the local sender gets
:class:`~repro.errors.FaultInjected`, the peer a
:class:`~repro.errors.RpcConnectionError`), ``truncate`` sends a
partial record then closes (the peer sees an EOF mid-record), and
``duplicate``/``reorder`` are no-ops (counted as ``skipped``).

On top of the probabilistic schedule a plan supports two *timed
phases* driven by the overload bench (``python -m repro.bench
overload``): a **latency spike** (:meth:`FaultPlan.begin_spike` —
every faulted datagram sleeps an extra fixed delay) and a **one-way
partition** (:meth:`FaultPlan.begin_partition` — the faulted
direction(s) drop every payload; wrap only the server socket to drop
replies while requests still arrive).  Both phases consume *no* RNG
draws and don't count against ``max_faults``, so the seeded fault
sequence stays byte-for-byte identical with or without them.
"""

import socket
import threading
import time

from repro import obs as _obs
from repro.errors import FaultInjected

#: every fault kind a plan can inject, in application order: ``drop``
#: wins outright; payload mutations (corrupt, truncate) apply before
#: scheduling faults (delay, reorder, duplicate).
FAULT_KINDS = ("drop", "duplicate", "reorder", "delay", "corrupt",
               "truncate")

#: stat keys that never count against the ``max_faults`` budget:
#: ``skipped`` records a no-op, ``spike``/``partition`` record timed
#: phases (explicitly begun, not drawn from the seeded schedule).
_UNBUDGETED = frozenset(("skipped", "spike", "partition"))


class _DeterministicRandom:
    """Thin lock around ``random.Random`` so one plan may be shared by
    a client and a server thread without perturbing determinism of the
    *sequence* (each decide() consumes a fixed number of draws)."""

    def __init__(self, seed):
        import random

        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def draws(self, n):
        with self._lock:
            return [self._rng.random() for _ in range(n)]


class FaultPlan:
    """A seeded, deterministic per-datagram fault schedule.

    ``drop``/``duplicate``/``reorder``/``delay``/``corrupt``/
    ``truncate`` are independent probabilities in ``[0, 1]``;
    ``delay_s`` is the injected latency; ``max_faults`` stops injecting
    (the plan turns into a clean wire) once that many datagrams have
    been faulted — handy for "break the first k messages" tests.

    Every :meth:`decide` consumes exactly ``len(FAULT_KINDS) + 2``
    uniform draws whatever the rates are, so two plans built from the
    same seed make identical decisions even with different rate
    configurations (the extra two draws pre-commit the corrupt offset
    and truncate fraction).
    """

    def __init__(self, seed=0, drop=0.0, duplicate=0.0, reorder=0.0,
                 delay=0.0, corrupt=0.0, truncate=0.0, delay_s=0.002,
                 max_faults=None):
        self.seed = seed
        self.rates = {
            "drop": drop,
            "duplicate": duplicate,
            "reorder": reorder,
            "delay": delay,
            "corrupt": corrupt,
            "truncate": truncate,
        }
        for kind, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate {rate} outside [0, 1]")
        self.delay_s = delay_s
        self.max_faults = max_faults
        self._rng = _DeterministicRandom(seed)
        #: datagrams seen (decide() calls)
        self.decisions = 0
        #: faults actually applied, per kind (skips included)
        self.injected = {kind: 0 for kind in FAULT_KINDS}
        self.injected["skipped"] = 0
        self.injected["spike"] = 0
        self.injected["partition"] = 0
        #: timed-phase state (see begin_spike / begin_partition)
        self._spike_delay_s = None
        self._spike_until = None
        self._partitioned = False
        self._partition_until = None

    # -- decisions --------------------------------------------------------

    @property
    def total_injected(self):
        return sum(count for kind, count in self.injected.items()
                   if kind not in _UNBUDGETED)

    def decide(self):
        """The fault actions for the next datagram.

        Returns a :class:`FaultDecision`; empty when the datagram
        passes clean.  ``drop`` excludes every other action.
        """
        draws = self._rng.draws(len(FAULT_KINDS) + 2)
        self.decisions += 1
        exhausted = (self.max_faults is not None
                     and self.total_injected >= self.max_faults)
        actions = set()
        if not exhausted:
            for kind, draw in zip(FAULT_KINDS, draws):
                if draw < self.rates[kind]:
                    actions.add(kind)
            if "drop" in actions:
                actions = {"drop"}
        return FaultDecision(self, actions, corrupt_at=draws[-2],
                             truncate_to=draws[-1])

    def note(self, kind):
        """Record one applied (or skipped) fault for the stats."""
        self.injected[kind] += 1
        if _obs.enabled:
            _obs.registry.counter("faults.injected", kind=kind).inc()

    # -- timed phases ------------------------------------------------------

    def begin_spike(self, delay_s, duration_s=None):
        """Enter a latency-spike phase: every faulted datagram sleeps
        ``delay_s`` on top of the probabilistic faults.  The phase ends
        after ``duration_s`` seconds, or at :meth:`end_spike` when no
        duration is given.  Consumes no RNG draws — the seeded fault
        sequence is unchanged."""
        self._spike_delay_s = float(delay_s)
        self._spike_until = (None if duration_s is None
                             else time.monotonic() + duration_s)

    def end_spike(self):
        self._spike_delay_s = None
        self._spike_until = None

    def spike_delay(self):
        """The spike phase's injected latency, or None outside it."""
        if self._spike_delay_s is None:
            return None
        if (self._spike_until is not None
                and time.monotonic() >= self._spike_until):
            self.end_spike()
            return None
        return self._spike_delay_s

    def begin_partition(self, duration_s=None):
        """Enter a one-way partition: the faulted direction(s) drop
        *every* payload.  Wrap only the server socket (the default
        ``on_send``) to drop replies while requests still arrive —
        the shape that makes clients retransmit into a black hole."""
        self._partitioned = True
        self._partition_until = (None if duration_s is None
                                 else time.monotonic() + duration_s)

    def end_partition(self):
        self._partitioned = False
        self._partition_until = None

    def partition_active(self):
        if not self._partitioned:
            return False
        if (self._partition_until is not None
                and time.monotonic() >= self._partition_until):
            self.end_partition()
            return False
        return True

    def summary(self):
        """Counts for reports: decisions, per-kind injections."""
        return {"seed": self.seed, "decisions": self.decisions,
                **self.injected}

    def __repr__(self):
        rates = ", ".join(f"{kind}={rate}" for kind, rate
                          in self.rates.items() if rate)
        return f"FaultPlan(seed={self.seed}, {rates or 'clean'})"


class FaultDecision:
    """The actions chosen for one datagram, plus the pre-committed
    randomness for the payload mutations."""

    __slots__ = ("plan", "actions", "_corrupt_at", "_truncate_to")

    def __init__(self, plan, actions, corrupt_at, truncate_to):
        self.plan = plan
        self.actions = actions
        self._corrupt_at = corrupt_at
        self._truncate_to = truncate_to

    def __contains__(self, kind):
        return kind in self.actions

    def __bool__(self):
        return bool(self.actions)

    def mutate(self, payload):
        """Apply corrupt/truncate to ``payload``; returns new bytes (a
        copy — the caller's buffer is never written)."""
        data = bytes(payload)
        if "truncate" in self.actions and data:
            keep = max(1, int(len(data) * self._truncate_to))
            if keep < len(data):
                data = data[:keep]
                self.plan.note("truncate")
            else:
                self.plan.note("skipped")
        if "corrupt" in self.actions and data:
            index = min(int(self._corrupt_at * len(data)), len(data) - 1)
            flipped = data[index] ^ 0xFF
            data = data[:index] + bytes((flipped,)) + data[index + 1:]
            self.plan.note("corrupt")
        return data


class FaultySocket:
    """A socket wrapper that injects a :class:`FaultPlan`'s faults.

    ``on_send``/``on_recv`` choose the direction(s) faulted; the
    default faults sends only, which is how the loopback tests model a
    lossy wire (wrap the client socket to lose requests, the server
    socket to lose replies).  Everything not overridden — ``fileno``
    (so ``select`` works), ``settimeout``, ``close``, … — delegates to
    the wrapped socket, so the transports accept a ``FaultySocket``
    anywhere they accept a socket.

    Stream sockets (``SOCK_STREAM``) get the stream semantics described
    in the module docstring; pass ``stream=`` to override autodetection
    for socket-like test doubles.
    """

    def __init__(self, sock, plan, on_send=True, on_recv=False,
                 stream=None):
        self._sock = sock
        self.plan = plan
        self.on_send = on_send
        self.on_recv = on_recv
        if stream is None:
            stream = getattr(sock, "type", None) == socket.SOCK_STREAM
        self.stream = stream
        #: the held-back datagram for ``reorder``: (payload, addr|None)
        self._held = None
        self._lock = threading.Lock()
        self.datagrams_sent = 0
        self.datagrams_received = 0

    def __getattr__(self, name):
        return getattr(self._sock, name)

    # -- datagram send side ----------------------------------------------

    def sendto(self, data, addr):
        """Send one datagram through the fault plan; ``addr=None`` is a
        connected socket's ``send``."""
        if not self.on_send:
            return self._put(data, addr)
        # decide() runs unconditionally — timed phases must not shift
        # the seeded draw sequence.
        decision = self.plan.decide()
        size = len(data)
        if self.plan.partition_active():
            self.plan.note("partition")
            self._flush_held()
            return size
        spike = self.plan.spike_delay()
        if spike is not None:
            self.plan.note("spike")
            time.sleep(spike)
        if "drop" in decision:
            self.plan.note("drop")
            self._flush_held()
            return size
        payload = decision.mutate(data) if decision else bytes(data)
        if "delay" in decision:
            self.plan.note("delay")
            time.sleep(self.plan.delay_s)
        with self._lock:
            if "reorder" in decision and self._held is None:
                # Hold this one back; it goes out after the next send.
                self.plan.note("reorder")
                self._held = (payload, addr)
                self.datagrams_sent += 1
                return size
        self._put(payload, addr)
        self.datagrams_sent += 1
        if "duplicate" in decision:
            self.plan.note("duplicate")
            self._put(payload, addr)
            self.datagrams_sent += 1
        self._flush_held()
        return size

    def _put(self, payload, addr):
        """The real send of one datagram (``addr=None``: connected)."""
        if addr is None:
            return self._sock.send(payload)
        return self._sock.sendto(payload, addr)

    def _flush_held(self):
        with self._lock:
            held, self._held = self._held, None
        if held is not None:
            self._put(*held)

    # -- datagram receive side -------------------------------------------

    def recvfrom(self, bufsize, *flags):
        data, addr = self._sock.recvfrom(bufsize, *flags)
        if not self.on_recv:
            return data, addr
        decision = self.plan.decide()
        if self.plan.partition_active():
            self.plan.note("partition")
            return b"", addr
        spike = self.plan.spike_delay()
        if spike is not None:
            self.plan.note("spike")
            time.sleep(spike)
        if "drop" in decision:
            # Deliver an empty datagram: both the client loop and the
            # server dispatcher discard undecodable payloads, so this
            # reads as a loss without blocking the (possibly
            # non-blocking) reader.
            self.plan.note("drop")
            return b"", addr
        if "delay" in decision:
            self.plan.note("delay")
            time.sleep(self.plan.delay_s)
        for kind in ("duplicate", "reorder"):
            if kind in decision:
                self.plan.note("skipped")
        data = decision.mutate(data) if decision else data
        return data, addr

    def recvfrom_into(self, buffer, nbytes=0, *flags):
        data, addr = self.recvfrom(nbytes or len(buffer), *flags)
        buffer[:len(data)] = data
        return len(data), addr

    def recv_into(self, buffer, nbytes=0, *flags):
        if self.stream:
            return self._sock.recv_into(buffer, nbytes, *flags)
        nreceived, _addr = self.recvfrom_into(buffer, nbytes, *flags)
        self.datagrams_received += 1
        return nreceived

    # -- stream side ------------------------------------------------------

    def sendall(self, data):
        if not (self.on_send and self.stream):
            return self._sock.sendall(data)
        decision = self.plan.decide()
        if self.plan.partition_active():
            # One-way partition on a stream: the bytes silently vanish
            # but the connection stays up — the peer just never hears
            # back, exactly the black-hole shape the overload bench
            # needs.
            self.plan.note("partition")
            return None
        spike = self.plan.spike_delay()
        if spike is not None:
            self.plan.note("spike")
            time.sleep(spike)
        if "drop" in decision:
            # TCP hides datagram loss; an application-visible "drop"
            # is a dead connection.
            self.plan.note("drop")
            self._abort("injected stream drop")
        if "delay" in decision:
            self.plan.note("delay")
            time.sleep(self.plan.delay_s)
        for kind in ("duplicate", "reorder"):
            if kind in decision:
                self.plan.note("skipped")
        if "truncate" in decision and len(data) > 1:
            self.plan.note("truncate")
            keep = max(1, len(data) // 2)
            self._sock.sendall(bytes(data)[:keep])
            self._abort("injected stream truncation")
        if "corrupt" in decision:
            # Reuse mutate() but keep the length: corrupt only.
            decision.actions.discard("truncate")
            data = decision.mutate(data)
        return self._sock.sendall(data)

    def send(self, data, *flags):
        if not self.on_send:
            return self._sock.send(data, *flags)
        if not self.stream:
            # a connected datagram socket: the same decision path as
            # sendto (and the same draw sequence)
            return self.sendto(data, None)
        self.sendall(data)
        return len(data)

    def recv(self, bufsize, *flags):
        data = self._sock.recv(bufsize, *flags)
        if not (self.on_recv and self.stream) or not data:
            return data
        decision = self.plan.decide()
        if "delay" in decision:
            self.plan.note("delay")
            time.sleep(self.plan.delay_s)
        if "corrupt" in decision:
            decision.actions.discard("truncate")
            data = decision.mutate(data)
        for kind in ("drop", "duplicate", "reorder", "truncate"):
            if kind in decision:
                self.plan.note("skipped")
        return data

    def _abort(self, reason):
        try:
            self._sock.close()
        except OSError:
            pass
        raise FaultInjected(reason)

    def close(self):
        try:
            self._flush_held()
        except OSError:
            pass
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
