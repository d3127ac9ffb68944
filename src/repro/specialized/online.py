"""Profile-guided online specialization — the closed loop.

Everything below ties three previously separate mechanisms together:
the live traffic profile (``repro.obs``-style dispatch sampling), the
:class:`~repro.specialized.pipeline.SpecializationPipeline` (Tempo),
and the hot dispatch paths (``SvcRegistry.dispatch_bytes`` on every
server tier, ``RpcClient.install_codec`` on the client):

1. a :class:`DispatchProfiler` samples (prog, vers, proc) call counts
   and observed request/reply size pairs at dispatch;
2. an :class:`OnlinePolicy` decides which procedures are hot *and
   stable* enough to specialize (min call count/rate, a dominant size
   share over a recent window, and the paper's unroll-cap cost bound);
3. an :class:`OnlineSpecializer` background thread runs the pipeline
   for the decided invariants and atomically hot-swaps the residual
   codec into dispatch — an :class:`OnlineServerRoute` on the server
   (one copy-on-write dict publish covers ``svc_udp``/``svc_tcp`` and
   both mux tiers, which all dispatch through the same registry), an
   :class:`OnlineClientCodec` on the client.

Every specialized route carries an **invariant guard**: a message
outside the specialized length set falls back to the generic codec on
that call and records a violation; past a threshold the specializer
*respecializes* with widened bounds (adds the newly dominant length to
the route, up to ``max_sizes``) or — when the size distribution has
shifted with no new dominant length, or the route is already at its
width cap — *demotes* the procedure back to generic and cools down.

The loop is off by default: nothing engages unless an
``OnlineSpecializer`` is constructed and attached (the servers take an
``online_spec=`` argument).  ``REPRO_ONLINE_SPEC=0`` is a global kill
switch that wins over code.
"""

import logging
import os
import struct
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass

from repro import obs as _obs
from repro.errors import VerificationError, XdrError
from repro.rpc.fastpath import ReplyHeaderTemplate
from repro.rpc.message import (
    CallHeader,
    decode_reply_header,
    encode_call_header,
    raise_for_reply,
)
from repro.specialized.sizes import reply_size, request_size
from repro.xdr import XdrMemStream, XdrOp

logger = logging.getLogger(__name__)

#: the static words of a v2 call header (msg_type CALL=0, rpcvers=2).
_CALL_V2 = struct.pack(">II", 0, 2)

#: the accepted-SUCCESS reply shape (used to sample only success-reply
#: sizes — error replies say nothing about the result invariants).
_SUCCESS_REPLY = ReplyHeaderTemplate()

#: bound on the distinct sizes a profile/violation tally tracks; sizes
#: beyond it still count toward totals but are not enumerated (a wild
#: distribution never grows unbounded state).
_MAX_TRACKED_SIZES = 32


def env_enabled(default=True):
    """The ``REPRO_ONLINE_SPEC`` kill switch.

    Unset: ``default``.  Set: any falsy spelling (``0``, ``no``,
    ``off``, ``false``, empty) disables the loop globally, anything
    else enables it.  The environment wins over code so an operator
    can switch the loop off without a deploy.
    """
    raw = os.environ.get("REPRO_ONLINE_SPEC")
    if raw is None:
        return default
    return raw.strip().lower() not in ("", "0", "no", "off", "false")


@dataclass
class OnlinePolicy:
    """When to specialize, how wide a route may grow, when to give up.

    The defaults are conservative: a procedure must show a sustained,
    size-stable load before the (seconds-long) Tempo build is spent on
    it, and ``unroll_cap`` refuses element counts past the paper's
    cost-model bound — beyond ~250 elements the unrolled residual
    loses to the generic loop, so specializing there is a pessimization
    (source paper §6, Table 4).
    """

    #: observed calls before a procedure is considered hot.
    min_calls: int = 200
    #: sustained call rate floor in calls/s (0 disables the rate test).
    min_rate_hz: float = 0.0
    #: share of the recent window one size pair must hold to count as
    #: a stable invariant (promotion and respecialization both).
    stable_fraction: float = 0.9
    #: recent-sample window for the stability test.
    window: int = 64
    #: refuse to specialize bounded arrays longer than this (the
    #: paper's partial-unroll cost bound).
    unroll_cap: int = 250
    #: guard misses between reviews of an installed route.
    violation_threshold: int = 32
    #: distinct specialized lengths one route may carry before a new
    #: stable length demotes instead of widening.
    max_sizes: int = 4
    #: back-off after a demotion or a refused build before the same
    #: procedure is reconsidered.
    cooldown_s: float = 5.0


class ProcProfile:
    """Per-(prog, vers, proc) traffic sample."""

    __slots__ = ("calls", "first_ts", "last_ts", "recent", "pairs")

    def __init__(self, window, now):
        self.calls = 0
        self.first_ts = now
        self.last_ts = now
        #: recent (request_bytes, success_reply_bytes|None) pairs.
        self.recent = deque(maxlen=window)
        #: all-time tally of the same pairs (bounded).
        self.pairs = {}

    def rate(self):
        """Observed calls/s (inf while the window spans no time)."""
        elapsed = self.last_ts - self.first_ts
        if elapsed <= 0.0:
            return float("inf")
        return self.calls / elapsed


class DispatchProfiler:
    """Samples registry dispatch: call counts and message-size pairs.

    Installed via ``SvcRegistry.install_profiler``; the registry calls
    :meth:`record` with the raw request and the raw reply after every
    message its default body answered, so the sample covers exactly
    the traffic that is *not* yet specialized.  Parsing is three slice
    compares and one ``struct.unpack_from`` — cheap enough to leave on.
    """

    def __init__(self, window=64, clock=time.monotonic):
        self.window = window
        self.clock = clock
        self._profiles = {}

    def record(self, data, reply):
        if len(data) < 24 or data[4:12] != _CALL_V2:
            return
        prog, vers, proc = struct.unpack_from(">3I", data, 12)
        key = (prog, vers, proc)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._profiles.setdefault(
                key, ProcProfile(self.window, self.clock())
            )
        profile.calls += 1
        profile.last_ts = self.clock()
        reply_bytes = (len(reply) if reply is not None
                       and _SUCCESS_REPLY.matches(reply) else None)
        pair = (len(data), reply_bytes)
        profile.recent.append(pair)
        pairs = profile.pairs
        if pair in pairs or len(pairs) < _MAX_TRACKED_SIZES:
            pairs[pair] = pairs.get(pair, 0) + 1
        if _obs.enabled:
            _obs.registry.counter("rpc.spec.online.observed",
                                  side="server").inc()

    def snapshot(self):
        """The live profiles, keyed by (prog, vers, proc)."""
        return dict(self._profiles)

    def reset(self, key):
        """Forget one procedure's sample (after a demotion, so a
        repromotion needs fresh evidence of stability)."""
        self._profiles.pop(key, None)


def _dominant(samples):
    """``(value, share)`` of the most common element, or (None, 0.0)."""
    if not samples:
        return None, 0.0
    counts = Counter(samples)
    value, count = counts.most_common(1)[0]
    return value, count / sum(counts.values())


def _dominant_of_counts(counts):
    """Like :func:`_dominant` for an already-tallied {value: count}."""
    if not counts:
        return None, 0.0
    value = max(counts, key=counts.get)
    return value, counts[value] / sum(counts.values())


class OnlineServerRoute:
    """One hot procedure's residual route body, with the invariant guard.

    Holds a map of *exact request sizes* to compiled
    :class:`~repro.specialized.pipeline.ServerSpecialization` residuals
    (one per specialized length — "widened bounds" means more entries).
    A request whose size is not in the map is an invariant violation:
    it is counted and declined, so the registry's default body answers
    it correctly on that call (the guard never guesses).

    Installed with ``SvcRegistry.install_route(..., tier="online")``:
    the registry's dispatch spine runs the at-most-once protocol,
    drain and quota around this body exactly as around every other, so
    at-most-once holds across a mid-traffic hot swap.
    """

    def __init__(self, registry, prog, vers, proc):
        self.registry = registry
        self.prog = prog
        self.vers = vers
        self.proc = proc
        #: expected request bytes -> ServerSpecialization (copy-on-write)
        self._specs = {}
        self.hits = 0
        self.violations = 0
        self._violation_sizes = {}

    @property
    def sizes(self):
        """The specialized request sizes, ascending."""
        return sorted(self._specs)

    def add_size(self, request_bytes, spec):
        """Widen the guard: publish a new size -> residual binding."""
        specs = dict(self._specs)
        specs[request_bytes] = spec
        self._specs = specs

    def take_violation_sizes(self):
        """Drain the per-size violation tally (review time)."""
        sizes, self._violation_sizes = self._violation_sizes, {}
        return sizes

    def _violation(self, nbytes):
        self.violations += 1
        sizes = self._violation_sizes
        if nbytes in sizes or len(sizes) < _MAX_TRACKED_SIZES:
            sizes[nbytes] = sizes.get(nbytes, 0) + 1
        if _obs.enabled:
            _obs.registry.counter("rpc.spec.online.violations",
                                  side="server").inc()

    def __call__(self, data):
        spec = self._specs.get(len(data))
        # None from the residual (bytes that crash it) declines too
        reply = spec.residual_reply(data) if spec is not None else None
        if reply is None:
            self._violation(len(data))
            return None
        self.registry.handlers_invoked += 1
        self.hits += 1
        if _obs.enabled:
            _obs.registry.counter("rpc.spec.online.hits",
                                  side="server").inc()
        return reply


class OnlineClientCodec:
    """Whole-message client codec that profiles, then hot-swaps.

    Installed by :meth:`OnlineSpecializer.attach_client` via
    ``RpcClient.install_codec``.  Until a specialization is built it is
    a byte-identical generic encoder/decoder that samples argument
    lengths and success-reply sizes; after promotion it routes calls
    whose argument length is specialized through the residual codecs
    and everything else through the generic path (one violation each).
    """

    def __init__(self, specializer, client, proc_name):
        pipeline = specializer.pipeline
        self.client = client
        self.proc_name = proc_name
        self.proc = pipeline.find_proc(proc_name)
        self.arg_struct = pipeline._struct_for(self.proc.arg, proc_name)
        self.ret_struct = pipeline._struct_for(self.proc.ret, proc_name)
        self._arg_fields = pipeline._gen.var_fields(self.arg_struct)
        self._arg_filter = getattr(pipeline.stubs,
                                   f"xdr_{self.arg_struct.name}")
        self._ret_filter = getattr(pipeline.stubs,
                                   f"xdr_{self.ret_struct.name}")
        self._clock = specializer.clock
        self.calls = 0
        self.hits = 0
        self.violations = 0
        self._violation_lens = {}
        self.first_ts = None
        self.last_ts = None
        window = specializer.policy.window
        #: recent argument element counts (None = unprofilable args).
        self.recent = deque(maxlen=window)
        #: recent success-reply byte sizes.
        self.reply_recent = deque(maxlen=window)
        #: arg element count -> ClientSpecialization (copy-on-write).
        self._specs = {}
        #: expected reply bytes -> the same specs, for parse routing.
        self._by_reply = {}

    @property
    def lens(self):
        """The specialized argument element counts, ascending."""
        return sorted(self._specs)

    def arg_count(self, args):
        """The bounded-array element count of ``args`` (0 when the
        struct has no bounded arrays, None when unprofilable)."""
        if not self._arg_fields:
            return 0
        if len(self._arg_fields) > 1:
            return None
        value = getattr(args, self._arg_fields[0], None)
        try:
            return len(value)
        except TypeError:
            return None

    def add_spec(self, n, spec):
        specs = dict(self._specs)
        specs[n] = spec
        self._specs = specs
        by_reply = dict(self._by_reply)
        by_reply[spec.expected_reply] = spec
        self._by_reply = by_reply

    def clear_specs(self):
        self._specs = {}
        self._by_reply = {}

    def reset_profile(self):
        self.calls = 0
        self.first_ts = None
        self.last_ts = None
        self.recent.clear()
        self.reply_recent.clear()

    def take_violation_lens(self):
        lens, self._violation_lens = self._violation_lens, {}
        return lens

    def _violation(self, n):
        self.violations += 1
        lens = self._violation_lens
        if n in lens or len(lens) < _MAX_TRACKED_SIZES:
            lens[n] = lens.get(n, 0) + 1
        if _obs.enabled:
            _obs.registry.counter("rpc.spec.online.violations",
                                  side="client").inc()

    # -- the codec entry points -----------------------------------------

    def build_request(self, xid, args):
        now = self._clock()
        if self.first_ts is None:
            self.first_ts = now
        self.last_ts = now
        self.calls += 1
        n = self.arg_count(args)
        if n is not None:
            self.recent.append(n)
        if _obs.enabled:
            _obs.registry.counter("rpc.spec.online.observed",
                                  side="client").inc()
        specs = self._specs
        if specs:
            spec = specs.get(n)
            if spec is not None:
                try:
                    out = spec.build_request(xid, args)
                except XdrError:
                    out = None
                if out is not None:
                    self.hits += 1
                    if _obs.enabled:
                        _obs.registry.counter("rpc.spec.online.hits",
                                              side="client").inc()
                    return out
            self._violation(n)
        return self._generic_request(xid, args)

    def _generic_request(self, xid, args):
        """The byte-identical generic encoding (never recurses into
        ``build_call`` — this codec *is* the installed codec)."""
        client = self.client
        stream = XdrMemStream(bytearray(client.bufsize), XdrOp.ENCODE)
        header = CallHeader(xid, client.prog, client.vers,
                            self.proc.number, client.cred, client.verf)
        encode_call_header(stream, header)
        self._arg_filter(stream, args)
        return stream.data()

    def parse_reply(self, data, xid):
        if _SUCCESS_REPLY.matches(data):
            self.reply_recent.append(len(data))
        spec = self._by_reply.get(len(data))
        if spec is not None:
            # ClientSpecialization.parse_reply falls back generically
            # itself on any shape mismatch, so this never wrong-decodes.
            return spec.parse_reply(data, xid)
        stream = XdrMemStream(data, XdrOp.DECODE)
        reply = decode_reply_header(stream)
        if reply.xid != (xid & 0xFFFFFFFF):
            return False, None
        raise_for_reply(reply)
        return True, self._ret_filter(stream, None)


@dataclass
class _RouteState:
    """Specializer-side bookkeeping for one attachment target."""

    route: object = None
    cooldown_until: float = 0.0
    reviewed_violations: int = 0


class OnlineSpecializer:
    """The background loop: watch profiles, build, hot-swap, guard.

    Construct one per :class:`SpecializationPipeline` (one interface),
    attach any number of server registries and clients, then either
    :meth:`start` the background thread or drive :meth:`poll_once`
    yourself (tests and the bench do, for determinism).  The servers'
    ``online_spec=`` argument calls ``attach_server`` +
    ``ensure_started`` for you; the specializer's lifetime belongs to
    whoever constructed it (``stop()`` or use it as a context manager).

    Builds go through the pipeline's :class:`SpecializationCache`, so
    with a disk tier configured (``cache_dir=``/``REPRO_SPEC_CACHE_DIR``)
    an auto-specialization survives restarts: the next process's
    promotion revives the residual code from disk instead of re-running
    Tempo.
    """

    def __init__(self, pipeline, policy=None, interval_s=0.05,
                 bufsize=8800, clock=time.monotonic, enabled=None):
        self.pipeline = pipeline
        self.policy = policy or OnlinePolicy()
        self.interval_s = interval_s
        self.bufsize = bufsize
        self.clock = clock
        if os.environ.get("REPRO_ONLINE_SPEC") is not None:
            self.enabled = env_enabled()
        else:
            self.enabled = True if enabled is None else bool(enabled)
        self._servers = []   # (registry, profiler)
        self._clients = []   # OnlineClientCodec
        self._states = {}
        self._lock = threading.RLock()
        self._stop_event = threading.Event()
        self._thread = None
        self.promotions = 0
        self.respecializations = 0
        self.demotions = 0
        self.skips = 0
        self.builds = 0
        self.last_build_s = 0.0
        self._active = {"server": 0, "client": 0}

    # -- attachment ------------------------------------------------------

    def attach_server(self, registry):
        """Profile ``registry`` and manage online routes on it.  The
        registry is shared by whatever transports serve it, so one
        attach covers UDP, TCP, and both mux tiers at once.  Returns
        the installed profiler (None when disabled)."""
        if not self.enabled:
            return None
        profiler = DispatchProfiler(window=self.policy.window,
                                    clock=self.clock)
        registry.install_profiler(profiler)
        with self._lock:
            self._servers.append((registry, profiler))
        return profiler

    def attach_client(self, client, proc_name):
        """Install a profiling/hot-swapping codec for one procedure on
        ``client``.  Returns the codec (None when disabled)."""
        if not self.enabled:
            return None
        codec = OnlineClientCodec(self, client, proc_name)
        client.install_codec(codec.proc.number, codec.build_request,
                             codec.parse_reply)
        with self._lock:
            self._clients.append(codec)
        return codec

    # -- lifecycle -------------------------------------------------------

    def start(self):
        """Run the decide/build/swap loop in a daemon thread."""
        if not self.enabled or self._thread is not None:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="online-spec", daemon=True)
        self._thread.start()
        return self

    #: servers call this from ``online_spec=`` so several servers can
    #: share one specializer without racing start().
    ensure_started = start

    @property
    def running(self):
        return self._thread is not None

    def stop(self):
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False

    def _loop(self):
        while not self._stop_event.wait(self.interval_s):
            try:
                self.poll_once()
            # repro: disable=overbroad-except -- the background poller must outlive any single failed pass
            except Exception:
                logger.exception("online specialization pass failed")

    # -- the decision pass ----------------------------------------------

    def poll_once(self):
        """One decide/build/swap pass over every attachment.  The
        background loop calls this on ``interval_s``; tests and the
        bench call it directly for deterministic convergence."""
        if not self.enabled:
            return
        with self._lock:
            for registry, profiler in self._servers:
                for key, profile in profiler.snapshot().items():
                    self._consider_server(registry, profiler, key, profile)
            for codec in self._clients:
                self._consider_client(codec)

    def _match_proc(self, prog, vers, proc_number):
        pipeline = self.pipeline
        if (prog != pipeline.prog_number
                or vers != pipeline.vers_number):
            return None
        for proc in pipeline.idl_version.procs:
            if proc.number == proc_number:
                return proc
        return None

    def _lens_for(self, struct, nbytes, message_size):
        """Invert an observed message size to the bounded-array element
        count it implies, or None when no single binding covers it
        (several bounded arrays split one size ambiguously)."""
        fields = self.pipeline._gen.var_fields(struct)
        floor = message_size(self.pipeline.interface, struct,
                             {f: 0 for f in fields})
        if not fields:
            return {} if nbytes == floor else None
        if len(fields) > 1:
            return None
        extra = nbytes - floor
        if extra < 0 or extra % 4:
            return None
        return {fields[0]: extra // 4}

    def _state(self, kind, ident):
        state = self._states.get((kind, ident))
        if state is None:
            state = _RouteState()
            self._states[(kind, ident)] = state
        return state

    def _counted(self, what, side):
        setattr(self, what, getattr(self, what) + 1)
        if _obs.enabled:
            _obs.registry.counter(f"rpc.spec.online.{what}",
                                  side=side).inc()

    def _swap_count(self, side, delta):
        self._active[side] += delta
        if _obs.enabled:
            _obs.registry.gauge("rpc.spec.online.active",
                                side=side).set(self._active[side])

    def _skip(self, reason, state):
        self.skips += 1
        state.cooldown_until = self.clock() + self.policy.cooldown_s
        if _obs.enabled:
            _obs.registry.counter("rpc.spec.online.skips",
                                  reason=reason).inc()

    def _build(self, state, builder, lens_list):
        cap = self.policy.unroll_cap
        if any(n > cap for lens in lens_list for n in lens.values()):
            self._skip("unroll_cap", state)
            return None
        started = self.clock()
        try:
            spec = builder()
        except VerificationError as exc:
            # The equivalence verifier rejected the residual codec:
            # never promote it; the generic path keeps serving.
            logger.warning("online specialization rejected by the"
                           " residual verifier: %s", exc)
            self._skip("verify_failed", state)
            return None
        # repro: disable=overbroad-except -- a failed build is skipped and counted; the generic path keeps serving
        except Exception:
            logger.exception("online specialization build failed")
            self._skip("build_error", state)
            return None
        self.builds += 1
        self.last_build_s = self.clock() - started
        if _obs.enabled:
            _obs.registry.histogram("rpc.spec.online.build_s").observe(
                self.last_build_s)
        return spec

    # -- server side -----------------------------------------------------

    def _build_server(self, state, proc, req_bytes, rep_bytes):
        pipeline = self.pipeline
        arg_struct = pipeline._struct_for(proc.arg, proc.name)
        ret_struct = pipeline._struct_for(proc.ret, proc.name)
        arg_lens = self._lens_for(arg_struct, req_bytes, request_size)
        res_lens = self._lens_for(ret_struct, rep_bytes, reply_size)
        if arg_lens is None or res_lens is None:
            self._skip("unsupported", state)
            return None
        return self._build(
            state,
            lambda: pipeline.specialize_server(
                proc.name, arg_lens=arg_lens, res_lens=res_lens,
                bufsize=self.bufsize,
            ),
            (arg_lens, res_lens),
        )

    def _reply_bytes_for(self, profile, req_bytes):
        """The dominant success-reply size seen with ``req_bytes``
        requests, or None."""
        best, best_count = None, 0
        for (req, rep), count in profile.pairs.items():
            if req == req_bytes and rep is not None and count > best_count:
                best, best_count = rep, count
        return best

    def _consider_server(self, registry, profiler, key, profile):
        prog, vers, proc_number = key
        policy = self.policy
        state = self._state("server", (id(registry), key))
        now = self.clock()
        if now < state.cooldown_until:
            return
        if state.route is None:
            proc = self._match_proc(prog, vers, proc_number)
            if proc is None:
                return  # another program (health, portmap, ...)
            if profile.calls < policy.min_calls:
                return
            if policy.min_rate_hz and profile.rate() < policy.min_rate_hz:
                return
            pair, share = _dominant(profile.recent)
            if pair is None or share < policy.stable_fraction:
                return
            req_bytes, rep_bytes = pair
            if rep_bytes is None:
                return  # the dominant shape is not a success reply
            spec = self._build_server(state, proc, req_bytes, rep_bytes)
            if spec is None:
                return
            route = OnlineServerRoute(registry, prog, vers, proc_number)
            route.add_size(req_bytes, spec)
            registry.install_route(prog, vers, proc_number, route,
                                   tier="online")
            state.route = route
            state.reviewed_violations = 0
            self._counted("promotions", "server")
            self._swap_count("server", +1)
            return
        route = state.route
        fresh = route.violations - state.reviewed_violations
        if fresh < policy.violation_threshold:
            return
        state.reviewed_violations = route.violations
        sizes = route.take_violation_sizes()
        size, share = _dominant_of_counts(sizes)
        if (size is not None and share >= policy.stable_fraction
                and len(route.sizes) < policy.max_sizes):
            proc = self._match_proc(prog, vers, proc_number)
            rep_bytes = self._reply_bytes_for(profile, size)
            if proc is not None and rep_bytes is not None:
                spec = self._build_server(state, proc, size, rep_bytes)
                if spec is not None:
                    # Widen the guard in place: the new length joins
                    # the route's accepted set atomically.
                    route.add_size(size, spec)
                    self._counted("respecializations", "server")
                    return
            if now < state.cooldown_until:
                return  # the build was refused; keep the route as-is
        # No stable new length (the distribution shifted), or the
        # route is as wide as policy allows: demote to generic.
        registry.remove_route(prog, vers, proc_number)
        profiler.reset(key)
        state.route = None
        state.reviewed_violations = 0
        state.cooldown_until = now + policy.cooldown_s
        self._counted("demotions", "server")
        self._swap_count("server", -1)

    # -- client side -----------------------------------------------------

    def _build_client(self, state, codec, n, rep_bytes):
        pipeline = self.pipeline
        if codec._arg_fields and len(codec._arg_fields) == 1:
            arg_lens = {codec._arg_fields[0]: n}
        elif not codec._arg_fields:
            arg_lens = {}
        else:
            self._skip("unsupported", state)
            return None
        res_lens = self._lens_for(codec.ret_struct, rep_bytes, reply_size)
        if res_lens is None:
            self._skip("unsupported", state)
            return None
        return self._build(
            state,
            lambda: pipeline.specialize_client(
                codec.proc_name, arg_lens=arg_lens, res_lens=res_lens,
                bufsize=self.bufsize,
            ),
            (arg_lens, res_lens),
        )

    def _consider_client(self, codec):
        policy = self.policy
        state = self._state("client", id(codec))
        now = self.clock()
        if now < state.cooldown_until:
            return
        if not codec._specs:
            if codec.calls < policy.min_calls:
                return
            if policy.min_rate_hz:
                elapsed = (codec.last_ts or 0) - (codec.first_ts or 0)
                if elapsed <= 0 or codec.calls / elapsed < policy.min_rate_hz:
                    return
            n, share = _dominant(codec.recent)
            if n is None or share < policy.stable_fraction:
                return
            rep_bytes, rep_share = _dominant(codec.reply_recent)
            if rep_bytes is None or rep_share < policy.stable_fraction:
                return
            spec = self._build_client(state, codec, n, rep_bytes)
            if spec is None:
                return
            codec.add_spec(n, spec)
            state.reviewed_violations = 0
            self._counted("promotions", "client")
            self._swap_count("client", +1)
            return
        fresh = codec.violations - state.reviewed_violations
        if fresh < policy.violation_threshold:
            return
        state.reviewed_violations = codec.violations
        lens = codec.take_violation_lens()
        n, share = _dominant_of_counts(lens)
        if (n is not None and share >= policy.stable_fraction
                and len(codec.lens) < policy.max_sizes):
            rep_bytes, rep_share = _dominant(codec.reply_recent)
            if rep_bytes is not None and rep_share >= policy.stable_fraction:
                spec = self._build_client(state, codec, n, rep_bytes)
                if spec is not None:
                    codec.add_spec(n, spec)
                    self._counted("respecializations", "client")
                    return
            if now < state.cooldown_until:
                return
        codec.clear_specs()
        codec.reset_profile()
        state.reviewed_violations = 0
        state.cooldown_until = now + policy.cooldown_s
        self._counted("demotions", "client")
        self._swap_count("client", -1)
