"""Profile-guided online specialization — the closed loop.

Everything below ties three previously separate mechanisms together:
the live traffic profile (``repro.obs``-style dispatch sampling), the
:class:`~repro.specialized.pipeline.SpecializationPipeline` (Tempo),
and the hot dispatch paths (``SvcRegistry.dispatch_bytes`` on every
server tier, ``RpcClient.install_codec`` on the client):

1. a :class:`ProcProfile` per procedure samples the calls the
   *generic* codec served — on the server through the registry's
   :class:`DispatchProfiler` tap, on the client inside the
   :class:`OnlineClientCodec` — so a call a residual answered costs no
   profiling at all;
2. a :class:`VariantTable` per procedure (a :class:`ResidualRoute`
   on the server, an :class:`OnlineClientCodec` on the client) maps
   exact message sizes to verified residual codecs, at most
   ``max_sizes`` of them, published copy-on-write, with a hit counter
   per variant (the server's is its registry's one residual route,
   which an offline ``specialize_server`` may *pin* a size into);
3. an :class:`OnlineSpecializer` background thread reviews every table
   under one **coverage rule** (:meth:`OnlineSpecializer._review`) and
   builds what the rule asks for through the pipeline, its cache and
   its verifier.

Every table is its own **invariant guard**: a message whose size is not
in it falls back to the generic codec on that call and counts one
violation — a reason to answer that call generically, never a reason to
throw the specialization away.  The rule, over the hits and misses
since the last review: a table covering ``stable_fraction`` of its
guarded calls is healthy and left alone; otherwise the most frequent
missed size holding more than ``1 - stable_fraction`` of them is built
and added (evicting the least-hit variant of a full table only if it
had fewer hits than the newcomer had misses), and when no missed size
qualifies the variants that do not hold that share themselves are
dropped.  A pinned variant is never displaced or dropped.  Promotion
is the rule on an empty table, demotion is its last variant going.

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
from collections import Counter, deque, namedtuple
from dataclasses import dataclass

from repro import obs as _obs
from repro.errors import IdlError, VerificationError
from repro.rpc.fastpath import ReplyHeaderTemplate
from repro.specialized.pipeline import generic_reply, generic_request

logger = logging.getLogger(__name__)

#: the static words of a v2 call header (msg_type CALL=0, rpcvers=2).
_CALL_V2 = struct.pack(">II", 0, 2)

#: the accepted-SUCCESS reply shape (used to sample only success-reply
#: sizes — error replies say nothing about the result invariants).
_SUCCESS_REPLY = ReplyHeaderTemplate()

#: static ``registry.cells`` keys of the per-call updates, by side
_OBSERVED = {side: ("counter", "rpc.spec.online.observed", ("side", side))
             for side in ("server", "client")}
_HITS = ("counter", "rpc.spec.online.hits", ("side", "client"))
_VIOLATIONS = ("counter", "rpc.spec.online.violations", ("side", "client"))
#: the (declined, served) counters of a residual route, whoever filled
#: its table
_ROUTE_COUNTS = (("counter", "rpc.server.specialized_fallbacks"),
                 ("counter", "rpc.server.specialized_hits"))


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
    """When to specialize, how many variants a table may hold, when a
    variant goes.

    The defaults are conservative: a procedure must show a sustained
    load before a build is spent on it.  There is no bound on the
    array length: live residuals roll their element loops, so neither
    code size nor build time has the cliff of the paper's Table 4.
    """

    #: generic-served calls since the last decision before an empty
    #: table is reviewed (the procedure is hot).
    min_calls: int = 200
    #: share of its guarded calls a table must answer to be left
    #: alone; a size must hold more than the rest, ``1 -
    #: stable_fraction``, to earn a variant or keep an idle one.
    stable_fraction: float = 0.9
    #: generic-served calls sampled per procedure, and the fewest
    #: guarded calls between two reviews of one table (so at most one
    #: build per ``window`` calls).
    window: int = 64
    #: guard misses between reviews of a table that holds variants.
    violation_threshold: int = 32
    #: variants one table may hold; past it a newcomer must displace
    #: the least-hit resident.
    max_sizes: int = 4
    #: back-off after a refused or failed build before the same table
    #: is reviewed again.
    cooldown_s: float = 5.0


class ProcProfile:
    """One procedure's sample of the calls the generic codec served."""

    __slots__ = ("calls", "recent")

    def __init__(self, window):
        self.calls = 0
        #: recent (size key, success_reply_bytes|None) pairs.
        self.recent = deque(maxlen=window)

    def record(self, key, reply_bytes):
        self.calls += 1
        self.recent.append((key, reply_bytes))


class DispatchProfiler:
    """Samples registry dispatch: call counts and message-size pairs.

    Installed via ``SvcRegistry.install_profiler``; the registry calls
    :meth:`record` with the raw request and the raw reply after every
    message its default body answered, so the sample covers exactly
    the traffic no residual served.  Parsing is three slice compares
    and one ``struct.unpack_from`` — cheap enough to leave on.
    """

    def __init__(self, window=64):
        self.window = window
        self._profiles = {}

    def record(self, data, reply):
        if len(data) < 24 or data[4:12] != _CALL_V2:
            return
        key = struct.unpack_from(">3I", data, 12)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._profiles.setdefault(
                key, ProcProfile(self.window))
        profile.record(
            len(data),
            len(reply) if reply is not None
            and _SUCCESS_REPLY.matches(reply) else None)
        if _obs.enabled:
            _obs.registry.cells[_OBSERVED["server"]].inc()

    def snapshot(self):
        """The live profiles, keyed by (prog, vers, proc)."""
        return dict(self._profiles)


class _Variant:
    """One resident residual: its entry point and its hit counter."""

    __slots__ = ("spec", "run", "hits", "reviewed")

    def __init__(self, spec, run):
        self.spec = spec
        self.run = run
        self.hits = 0
        #: ``hits`` as of the table's last review.
        self.reviewed = 0


class VariantTable:
    """Size key -> verified residual, for one procedure on one side.

    The table is the invariant guard (a key outside it is a violation,
    answered generically on that call) and the evidence the coverage
    rule reads: a hit counter per variant, a violation counter, and
    ``profile`` — the recent generic-served calls, which while the
    table holds variants are exactly its misses.  ``variants`` is
    published copy-on-write, so the hit path is one lock-free dict
    lookup; everything else here is the specializer's bookkeeping,
    touched only under its lock.
    """

    side = None
    #: pipeline method that builds a variant / spec method that runs it
    builder = None
    entry = None
    #: size keys the coverage rule never evicts (an offline pin)
    pinned = frozenset()

    def __init__(self, proc, profile):
        #: the procedure's stub contract: its shapes, and a message
        #: size inverted to the array lengths it implies
        self.proc = proc
        self.profile = profile
        self.variants = {}
        #: guarded calls whose size is not in the table.
        self.violations = 0
        #: in-table sizes the residual refused (malformed bytes): the
        #: generic codec answers those too, but they say nothing about
        #: which sizes are hot.
        self.declines = 0
        self.cooldown_until = 0.0
        self.last_decision = None
        self._retired_hits = 0
        self._reviewed = (0, 0)

    @property
    def sizes(self):
        """The resident size keys, ascending."""
        return sorted(self.variants)

    @property
    def hits(self):
        return self._retired_hits + sum(
            variant.hits for variant in self.variants.values())

    def swap(self, add=None, drop=()):
        """Publish a new table: ``drop`` keys out, ``add=(key, spec)``
        in, atomically."""
        variants = dict(self.variants)
        for key in drop:
            self._retired_hits += variants.pop(key).hits
        if add is not None:
            key, spec = add
            variants[key] = _Variant(spec, getattr(spec, self.entry))
        self._publish(variants)

    def period(self):
        """``(hits per resident variant, violations, generic-served
        calls)`` since the last review."""
        violations, calls = self._reviewed
        return ({key: variant.hits - variant.reviewed
                 for key, variant in self.variants.items()},
                self.violations - violations,
                self.profile.calls - calls)

    def close_period(self):
        for variant in self.variants.values():
            variant.reviewed = variant.hits
        self._reviewed = (self.violations, self.profile.calls)


class ResidualRoute(VariantTable):
    """One procedure's residual route body on one registry, with the
    invariant guard.

    Keys are *exact request sizes*, values compiled
    :class:`~repro.specialized.pipeline.ServerSpecialization` residuals.
    A request whose size is not in the table is an invariant violation:
    it is counted and declined, so the registry's default body answers
    it correctly on that call (the guard never guesses).

    A registry holds one per procedure: ``specialize_server(...,
    fallback=registry)`` pins its size (:meth:`pin`), an attached
    :class:`OnlineSpecializer` adopts it and adds and drops the rest.
    Installed as tier ``specialized`` while it holds a variant, under
    the registry's dispatch spine like every route body, so
    at-most-once holds across a mid-traffic hot swap.
    """

    side = "server"
    builder = "specialize_server"
    entry = "residual_reply"

    def __init__(self, proc, profile, registry, key):
        super().__init__(proc, profile)
        self.registry = registry
        self.key = key

    @classmethod
    def of(cls, registry, pipeline, proc, default=None):
        """The route installed for ``proc`` on ``registry``, else
        ``default``, else a new empty one (no profile, not installed)."""
        key = (pipeline.prog_number, pipeline.vers_number, proc.number)
        route = registry.route_for(*key)
        if route is not None and isinstance(route.body, cls):
            return route.body
        return default or cls(proc, None, registry, key)

    def pin(self, size, spec):
        """Serve ``size`` by ``spec`` for good: the coverage rule never
        evicts a pinned variant, so the table is never demoted.  Takes
        no lock: pin at set-up, not under a running specializer."""
        self.pinned = self.pinned | {size}
        self.swap(add=(size, spec), drop=self.variants.keys() & {size})

    def arg_lens(self, request_bytes):
        return self.proc.arg_lens_of(request_bytes)

    def _publish(self, variants):
        was, self.variants = self.variants, variants
        if variants and not was:
            self.registry.install_route(*self.key, self, tier="specialized",
                                        counts=_ROUTE_COUNTS)
        elif was and not variants:
            self.registry.remove_route(*self.key)

    def __call__(self, data):
        variant = self.variants.get(len(data))
        if variant is None:
            self.violations += 1
            return None
        reply = variant.run(data)
        if reply is None:
            # bytes that crash the residual: the default body answers
            self.declines += 1
            return None
        variant.hits += 1
        return reply


class OnlineClientCodec(VariantTable):
    """Whole-message client codec that profiles, then hot-swaps.

    Installed by :meth:`OnlineSpecializer.attach_client` via
    ``RpcClient.install_codec``.  Keys are argument element counts.
    A call whose count is in the table goes through the residual
    codecs and touches nothing else; every other call is encoded and
    decoded by the byte-identical generic path, which also samples its
    (count, success-reply size) pair — one violation each while the
    table holds variants.
    """

    side = "client"
    builder = "specialize_client"
    entry = "build_request"

    def __init__(self, specializer, client, proc_name):
        pipeline = specializer.pipeline
        super().__init__(pipeline.find_proc(proc_name),
                         ProcProfile(specializer.policy.window))
        if self.proc.refusal is not None:
            raise IdlError(self.proc.refusal)
        self.client = client
        shape = self.proc.arg
        #: the bounded array whose element count is the table key, and
        #: the key of an argument that has none: 0 for a fixed-size
        #: struct, None (unprofilable) for one with several
        self._count_field = shape.count_field
        self._fixed_key = None if shape.bounds else 0
        self._arg_filter = getattr(pipeline.stubs, f"xdr_{shape.name}")
        self._ret_filter = getattr(pipeline.stubs,
                                   f"xdr_{self.proc.ret.name}")
        #: xid -> element count of generic calls awaiting their reply
        #: (bounded by ``window``: lost replies never accumulate).
        self._pending = {}
        #: expected reply bytes -> resident spec, for parse routing.
        self._by_reply = {}

    #: the resident argument element counts, ascending.
    lens = VariantTable.sizes

    def arg_lens(self, n):
        return self.proc.arg.lens_of_count(n)

    def arg_count(self, args):
        """The bounded-array element count of ``args`` (0 when the
        struct has no bounded arrays, None when unprofilable)."""
        if self._count_field is None:
            return self._fixed_key
        value = getattr(args, self._count_field, None)
        try:
            return len(value)
        except TypeError:
            return None

    def _publish(self, variants):
        self.variants = variants
        self._by_reply = {variant.spec.expected_reply: variant.spec
                          for variant in variants.values()}

    # -- the codec entry points -----------------------------------------

    def build_request(self, xid, args):
        n = self.arg_count(args)
        variant = self.variants.get(n)
        if variant is not None:
            out = variant.run(xid, args)
            if out is not None:
                variant.hits += 1
                if _obs.enabled:
                    _obs.registry.cells[_HITS].inc()
                return out
            self.declines += 1
        else:
            if self.variants:
                self.violations += 1
                if _obs.enabled:
                    _obs.registry.cells[_VIOLATIONS].inc()
            if n is not None:
                pending = self._pending
                if len(pending) >= self.profile.recent.maxlen:
                    pending.clear()
                pending[xid] = n
        return generic_request(self.client, self.proc.number,
                               self._arg_filter, xid, args)

    def parse_reply(self, data, xid):
        if self._pending:
            self._sample(data, xid)
        spec = self._by_reply.get(len(data))
        if spec is not None:
            # ClientSpecialization.parse_reply falls back generically
            # itself on any shape mismatch, so this never wrong-decodes.
            return spec.parse_reply(data, xid)
        return generic_reply(self._ret_filter, data, xid)

    def _sample(self, data, xid):
        """Profile the reply of a call the generic path encoded."""
        if int.from_bytes(data[:4], "big") != xid & 0xFFFFFFFF:
            return  # a stale datagram, not this call's reply
        n = self._pending.pop(xid, None)
        if n is None:
            return
        self.profile.record(
            n, len(data) if _SUCCESS_REPLY.matches(data) else None)
        if _obs.enabled:
            _obs.registry.cells[_OBSERVED["client"]].inc()


#: One entry of :attr:`OnlineSpecializer.decisions`.  ``action`` is
#: promote | widen | evict | demote | skip, on size key ``size`` (None
#: for a demotion); ``calls`` and ``hit_share`` are the guarded calls of
#: the period the decision was taken on and the share of them the table
#: answered; ``sizes`` is that period's ``(size, calls)`` pairs, most
#: frequent first: every resident variant's hits and the top missed
#: sizes' misses.
Decision = namedtuple("Decision", "clock side procedure action size reason"
                                  " calls hit_share sizes")


#: decision action -> the counter it moves
_COUNTERS = {"promote": "promotions", "widen": "respecializations",
             "evict": "evictions", "demote": "demotions", "skip": "skips"}


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

    Every decision is appended to :attr:`decisions` (the last 64) with
    the evidence it was taken on; :meth:`explain` shows each table.
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
        self._servers = []   # (registry, profiler, {key: route|None})
        self._clients = []   # OnlineClientCodec
        self._lock = threading.RLock()
        self._stop_event = threading.Event()
        self._thread = None
        self.promotions = 0
        self.respecializations = 0
        self.evictions = 0
        self.demotions = 0
        self.skips = 0
        self.builds = 0
        self.decisions = deque(maxlen=64)
        self._active = {"server": 0, "client": 0}

    # -- attachment ------------------------------------------------------

    def attach_server(self, registry):
        """Profile ``registry`` and manage online routes on it.  The
        registry is shared by whatever transports serve it, so one
        attach covers UDP, TCP, and both mux tiers at once.  Returns
        the installed profiler (None when disabled)."""
        if not self.enabled:
            return None
        profiler = DispatchProfiler(window=self.policy.window)
        registry.install_profiler(profiler)
        with self._lock:
            self._servers.append((registry, profiler, {}))
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
        """One decide/build/swap pass over every table.  The
        background loop calls this on ``interval_s``; tests and the
        bench call it directly for deterministic convergence."""
        if not self.enabled:
            return
        with self._lock:
            for table in self._tables():
                self._review(table)

    def _tables(self):
        """Every table under management; a server route is created
        (empty, not installed) when its procedure is first profiled."""
        tables = []
        for registry, profiler, routes in self._servers:
            for key, profile in profiler.snapshot().items():
                if key not in routes:
                    proc = self._match_proc(*key)
                    # None: another program (health, portmap, ...) or a
                    # procedure outside the stub subset
                    routes[key] = proc and ResidualRoute(
                        proc, profile, registry, key)
                table = routes[key]
                if table is not None:
                    # the registry's own table, if it holds one (an
                    # offline pin, even a later one): never a second
                    table = routes[key] = ResidualRoute.of(
                        registry, self.pipeline, table.proc, table)
                    table.profile = profile
                    tables.append(table)
        return tables + self._clients

    def _match_proc(self, prog, vers, proc_number):
        pipeline = self.pipeline
        if (prog != pipeline.prog_number
                or vers != pipeline.vers_number):
            return None
        for proc in pipeline.procs:
            if proc.number == proc_number:
                if proc.refusal is None:
                    return proc
                # asked once per registry: the route table remembers
                self._record("server", proc.name, "skip", None,
                             f"unsupported: {proc.refusal}", (0, 0.0, ()))
        return None

    def explain(self):
        """Per table: side, procedure, the resident variants with their
        hit counts, the guard tallies and the last decision."""
        with self._lock:
            return [{
                "side": table.side,
                "procedure": table.proc.name,
                "variants": {key: variant.hits for key, variant
                             in sorted(table.variants.items())},
                "pinned": sorted(table.pinned),
                "hits": table.hits,
                "violations": table.violations,
                "declines": table.declines,
                "last_decision": table.last_decision,
            } for table in self._tables()]

    def _decide(self, table, action, size, reason, evidence):
        table.last_decision = self._record(
            table.side, table.proc.name, action, size, reason, evidence)

    def _record(self, side, procedure, action, size, reason, evidence):
        decision = Decision(self.clock(), side, procedure, action, size,
                            reason, *evidence)
        self.decisions.append(decision)
        what = _COUNTERS[action]
        setattr(self, what, getattr(self, what) + 1)
        if action in ("promote", "demote"):
            self._active[side] += 1 if action == "promote" else -1
        if _obs.enabled:
            # a skip's label is the refusal class, not its detail
            labels = ({"reason": reason.partition(":")[0]}
                      if action == "skip" else {"side": side})
            _obs.registry.counter(f"rpc.spec.online.{what}",
                                  **labels).inc()
            _obs.registry.gauge("rpc.spec.online.active", side=side
                                ).set(self._active[side])
        return decision

    def _review(self, table):
        """The coverage rule, on one table, over the period since its
        last review.  At most one build per call."""
        policy = self.policy
        if self.clock() < table.cooldown_until:
            return
        held, misses, served = table.period()
        if held:
            hits = sum(held.values())
            if (misses < policy.violation_threshold
                    or hits + misses < policy.window):
                return
        else:
            # nothing is guarded yet: every generic-served call counts
            hits, misses = 0, served
            if misses < policy.min_calls:
                return
        calls = hits + misses
        if not calls:
            return
        if hits >= policy.stable_fraction * calls:
            table.close_period()   # healthy
            return
        # the period's misses are the newest generic-served calls of
        # an off-table size
        recent = [pair for pair in list(table.profile.recent)
                  if pair[0] not in held][-misses:]
        if not recent:
            return   # misses whose replies never came back: no sample
        replies = {}   # missed size -> Counter of its success-reply sizes
        for key, reply_bytes in recent:
            if reply_bytes is not None:
                replies.setdefault(key, Counter())[reply_bytes] += 1
        ranked = sorted(((key, sum(counts.values()) * misses / len(recent))
                         for key, counts in replies.items()),
                        key=lambda kv: -kv[1])
        evidence = (calls, hits / calls, tuple(sorted(
            [*held.items(), *ranked[:4]], key=lambda kv: -kv[1])))
        bar = (1.0 - policy.stable_fraction) * calls
        size, count = ranked[0] if ranked else (None, 0)
        if count > bar:
            victim = None
            if len(held) >= policy.max_sizes:
                victim = min((key for key in held
                              if key not in table.pinned),
                             key=held.get, default=None)
                if victim is None or held[victim] >= count:
                    table.close_period()   # it holds the best it can
                    return
            spec, refusal = self._build(
                table, size, replies[size].most_common(1)[0][0])
            if spec is None:
                table.cooldown_until = self.clock() + policy.cooldown_s
                self._decide(table, "skip", size, refusal, evidence)
            else:
                share = f"size {size}: {count / calls:.0%} of calls missed"
                if victim is not None:
                    self._decide(table, "evict", victim,
                                 f"{held[victim]} hits, displaced by "
                                 + share, evidence)
                table.swap(add=(size, spec),
                           drop=() if victim is None else (victim,))
                self._decide(table, "widen" if held else "promote", size,
                             share, evidence)
        elif held:
            idle = [key for key, n in held.items()
                    if n <= bar and key not in table.pinned]
            if idle:
                table.swap(drop=idle)
            for key in idle:
                self._decide(table, "evict", key,
                             f"{held[key]} hits, no missed size to widen"
                             " to", evidence)
            if not table.variants:
                self._decide(table, "demote", None, "last variant evicted",
                             evidence)
        else:
            return  # cold and spread: keep watching the same period
        table.close_period()

    def _build(self, table, size, reply_bytes):
        """``(spec, None)`` for ``size`` through the pipeline, cache
        and verifier, or ``(None, refusal)``."""
        arg_lens = table.arg_lens(size)
        res_lens = table.proc.res_lens_of(reply_bytes)
        if arg_lens is None or res_lens is None:
            return None, "unsupported"
        started = self.clock()
        try:
            spec = getattr(self.pipeline, table.builder)(
                table.proc.name, arg_lens=arg_lens, res_lens=res_lens,
                bufsize=self.bufsize)
        except VerificationError as exc:
            # The equivalence verifier rejected the residual codec:
            # never install it; the generic path keeps serving.
            logger.warning("online specialization rejected by the"
                           " residual verifier: %s", exc)
            return None, "verify_failed"
        # repro: disable=overbroad-except -- a failed build is skipped and counted; the generic path keeps serving
        except Exception:
            logger.exception("online specialization build failed")
            return None, "build_error"
        self.builds += 1
        if _obs.enabled:
            _obs.registry.histogram("rpc.spec.online.build_s").observe(
                self.clock() - started)
        return spec, None
