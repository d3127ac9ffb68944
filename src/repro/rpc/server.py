"""RPC service dispatch — the transport-independent server half.

A :class:`SvcRegistry` maps (program, version, procedure) to handlers
with their XDR filters, and turns a raw call message into a raw reply
message, covering every accept/deny path of RFC 1057 (PROG_UNAVAIL,
PROG_MISMATCH, PROC_UNAVAIL, GARBAGE_ARGS, SYSTEM_ERR, RPC_MISMATCH).

Dispatch is one *spine* (:meth:`SvcRegistry._spine`) that owns the
at-most-once protocol — DRC claim, doomed-deadline drop, drain and
quota shedding, accounting, execution count — and a table of *route
bodies* that only do the work of a call.  The generic XDR decode/
handler/encode is the default body; staged code and the residual route
(offline-pinned and online-promoted residuals) are entries of the same
table (:meth:`SvcRegistry.install_route`), so every specialization tier
runs under the identical protocol.

Telemetry (``repro.obs``): when observability is enabled, each
dispatch emits a ``server.dispatch`` span labelled with the tier that
served it, with ``server.drc_lookup`` / ``server.decode_args`` /
``server.handler`` / ``server.encode_reply`` children, every outcome
increments the ``rpc.server.replies{outcome=...}`` counter, and the
fast-path header recognizer reports hit/fallback counts — written by
the spine and the DRC into one :class:`_Dispatch` record that
``dispatch_bytes`` folds once.  Turning it on never changes which body
serves a request.
"""

import logging
import struct
import time
from collections import namedtuple
from dataclasses import dataclass

from repro import obs as _obs
from repro.errors import RpcProtocolError, XdrError
from repro.rpc.auth import NULL_AUTH
from repro.rpc.drc import DuplicateRequestCache
from repro.rpc.fastpath import ReplyHeaderTemplate
from repro.rpc.message import (
    AcceptStat,
    RejectStat,
    decode_call_header,
    encode_accepted_reply,
    encode_denied_reply,
)
from repro.rpc.overload import remaining_from_cred
from repro.rpc.resilience import (
    HEALTH_PROG,
    HEALTH_PROC_STATUS,
    HEALTH_VERS,
    STATUS_DRAINING,
    STATUS_SERVING,
    CallerQuota,
)
from repro.xdr import XdrMemStream, XdrOp, xdr_u_long

logger = logging.getLogger(__name__)

#: procedure 0 of every program/version is the NULL ping.
NULLPROC = 0

#: the static words of a v2 call header (msg_type CALL=0, rpcvers=2)
#: and the 16 zero bytes of two NULL auth areas — the common header
#: shape the fast path recognizes with slice compares instead of the
#: micro-layer decode.
_CALL_V2 = struct.pack(">II", 0, 2)
_NULL_AUTHS = bytes(16)
_FAST_HEADER_SIZE = 10 * 4
_XID = struct.Struct(">I")
_HEADER_WORDS = struct.Struct(">6I").unpack_from

#: everything after the xid of an accepted SUCCESS / SYSTEM_ERR reply
#: with a NULL verifier — what route bodies and sheds answer with
#: instead of running the reply encoder.
_OK_TAIL = ReplyHeaderTemplate(stat=AcceptStat.SUCCESS).prefix[4:]
_ERR_TAIL = ReplyHeaderTemplate(stat=AcceptStat.SYSTEM_ERR).prefix[4:]

#: one entry of the route table: the ``tier`` label observability
#: reports, the ``body(data) -> reply | None`` that serves, the cell
#: keys of the counters a request it (declined, served) moves, and the
#: outcome of every reply it returns when there is only one (else None).
Route = namedtuple("Route", "tier body counts answers",
                   defaults=(None,))


def _signature(prog, vers, proc):
    """The constant header words (bytes 4..24 of a v2 call) that key
    the route table."""
    return struct.pack(">5I", 0, 2, prog, vers, proc)


#: the outcome an answered dispatch is counted under, by the five
#: words after the xid (REPLY, accepted, NULL verifier, accept_stat —
#: or the one denial sent); any other reply counts as ``system_err``.
_OUTCOMES = {struct.pack(">5I", 1, 0, 0, 0, stat): stat.name.lower()
             for stat in AcceptStat}
_OUTCOMES[struct.pack(">5I", 1, 1, RejectStat.RPC_MISMATCH, 2, 2)] = (
    "rpc_mismatch")

_monotonic = time.monotonic

#: static ``registry.cells`` keys of the per-dispatch fold
_REQUESTS = ("counter", "rpc.server.requests")
_LATENCY = ("histogram", "rpc.server.dispatch_latency_s")
_DOOMED = ("counter", "rpc.deadline.doomed")
_HANDLER_ERRORS = ("counter", "rpc.server.handler_errors")
_HEADER = {True: ("counter", "rpc.server.fastpath_header_hits"),
           False: ("counter", "rpc.server.fastpath_fallbacks")}
_DRC_HITS = ("counter", "rpc.drc.hits")
_DRC_MISSES = ("counter", "rpc.drc.misses")
_DRC_STORES = ("counter", "rpc.drc.stores")
_DRC_EVICTIONS = ("counter", "rpc.drc.evictions")
_DRC_ENTRIES = ("gauge", "rpc.drc.entries")
_REPLIES = {outcome: ("counter", "rpc.server.replies", ("outcome", outcome))
            for outcome in (*_OUTCOMES.values(), "drc_replay", "shed",
                            "dropped")}


class _Dispatch:
    """What one dispatch did, as plain fields (observability on only).
    The defaults are the class's, so a record costs no initializer: a
    dispatch sets only what happened."""

    #: cell keys: :data:`_HEADER`'s and :attr:`Route.counts`'s
    header = route_count = None
    #: ``drc_replay`` / ``shed``, or the outcome a route body declares
    #: for every reply it returns: what the fold need not read from the
    #: reply bytes
    outcome = None
    #: the DRC's part: ``begin``'s verdict; ``put``'s evictions and
    #: level (never 0 after a store)
    drc_hit = None
    evicted = entries = 0


@dataclass
class Procedure:
    """One registered procedure."""

    handler: object
    xdr_args: object
    xdr_res: object


class SvcRegistry:
    """Dispatch table for any number of programs/versions."""

    def __init__(self, bufsize=8800, fastpath=False, drc=False):
        #: (prog, vers) -> {proc: Procedure}
        self._programs = {}
        self.bufsize = bufsize
        #: fast-path state: the pre-built SUCCESS reply header (see
        #: :mod:`repro.rpc.fastpath`).
        self._reply_template = None
        #: the route table (see :meth:`install_route`): constant
        #: header signature -> :class:`Route`; None while empty.
        self._routes = None
        #: optional :class:`~repro.specialized.online.DispatchProfiler`
        #: sampling (prog, vers, proc) call counts and message sizes.
        self.profiler = None
        #: duplicate-request reply cache (see :mod:`repro.rpc.drc`);
        #: active only for dispatches that identify their caller.
        self.drc = None
        #: handler executions, one per reply the spine records (DRC
        #: replays do not count) — lets tests assert "invocations ==
        #: unique requests" under retransmission.
        self.handlers_invoked = 0
        #: optional per-caller token-bucket admission (see
        #: :meth:`install_quota`); DRC replays and drain-exempt
        #: programs are never charged.
        self.quota = None
        #: graceful-drain mode: DRC replays and health checks are still
        #: answered; everything else is shed with SYSTEM_ERR.
        self.draining = False
        #: (prog, vers) pairs still served while draining (health).
        self._drain_exempt = set()
        #: requests answered with a shed (overload/drain) reply.
        self.sheds = 0
        #: requests dropped because their propagated deadline budget
        #: (see :mod:`repro.rpc.overload`) had already expired — the
        #: caller is gone, so executing them would be pure waste.
        self.doomed_dropped = 0
        #: non-RpcError exceptions the defensive decode converted into
        #: drops instead of letting them crash dispatch.
        self.decode_defended = 0
        if fastpath:
            self.enable_fastpath()
        if drc:
            self.enable_drc()

    def enable_fastpath(self):
        """Pre-build the SUCCESS reply header.

        The dispatcher then answers the hot path (accepted, SUCCESS,
        null verifier) by copying the template and patching the xid
        instead of re-encoding six XDR units per reply.
        """
        self._reply_template = ReplyHeaderTemplate()
        return self

    def enable_drc(self, capacity=256):
        """Turn on the duplicate-request reply cache.

        Retransmitted requests — same (xid, caller, prog, vers, proc)
        — are answered by replaying the recorded reply bytes instead of
        re-executing the handler, upgrading UDP's at-least-once
        semantics toward at-most-once.  Takes effect only for
        dispatches that pass a ``caller`` identity (the transports do).
        """
        self.drc = DuplicateRequestCache(capacity)
        return self

    # -- resilience: drain, health, shedding ------------------------------

    def begin_drain(self):
        """Enter graceful-drain mode.

        In-flight handlers finish normally; retransmissions of already
        answered calls keep replaying from the DRC; health-check
        programs (:meth:`install_health`) keep answering; every other
        request is *shed* — answered with a ``SYSTEM_ERR`` reply (not
        silently dropped) so clients fail over promptly instead of
        burning their deadline on retransmits.
        """
        self.draining = True
        if _obs.enabled:
            _obs.registry.counter("rpc.server.drains").inc()
            _obs.registry.gauge("rpc.server.draining").set(1)
        return self

    def end_drain(self):
        """Leave drain mode (a drained server can resume serving)."""
        self.draining = False
        if _obs.enabled:
            _obs.registry.gauge("rpc.server.draining").set(0)
        return self

    def install_health(self, prog=HEALTH_PROG, vers=HEALTH_VERS):
        """Register the health-check program.

        Procedure 0 is the ordinary NULL ping; procedure
        ``HEALTH_PROC_STATUS`` returns the serving status as a u_long
        (``STATUS_SERVING`` / ``STATUS_DRAINING``).  Health stays
        answerable *during* drain so orchestrators can watch the drain
        complete.
        """
        self.register(
            prog, vers, HEALTH_PROC_STATUS,
            lambda _args: (STATUS_DRAINING if self.draining
                           else STATUS_SERVING),
            xdr_args=None, xdr_res=xdr_u_long,
        )
        self._drain_exempt.add((prog, vers))
        return self

    def install_quota(self, rate, burst=None, max_callers=4096,
                      clock=time.time, key=None):
        """Layer per-caller token-bucket admission onto dispatch.

        Each caller (transport peer host) accrues ``rate`` calls/second
        up to a ``burst`` allowance; a caller over budget is answered
        with a shed reply (``SYSTEM_ERR``, reason ``quota``) exactly
        like the overload paths.  DRC replays are never charged — a
        retransmission of an answered call costs the server a cache
        probe, not handler work, and charging it would punish the
        retry behavior the DRC exists to absorb.  Drain-exempt
        programs (health, replication) are exempt here too.

        ``clock=time.time`` by default so buckets refill in wall time;
        tests inject a fake clock.
        """
        self.quota = CallerQuota(rate, burst=burst,
                                 max_callers=max_callers, clock=clock,
                                 key=key)
        return self

    def shed_reply_bytes(self, data, reason="queue_full"):
        """A ``SYSTEM_ERR`` reply for a request refused before dispatch
        (bounded queue full), or None when ``data`` is not a
        recognizable v2 call.

        Shed replies are *never* recorded in the DRC — a retransmission
        after load subsides must reach the handler.
        """
        if len(data) < _FAST_HEADER_SIZE or bytes(data[4:12]) != _CALL_V2:
            return None
        if _obs.enabled:  # no dispatch, so no fold to count the reply
            _obs.registry.cells[_REPLIES["shed"]].inc()
        return self._shed(data, reason)

    def _shed(self, data, reason):
        """The shed reply (SYSTEM_ERR) for one request, counted."""
        self.sheds += 1
        if _obs.enabled:
            _obs.registry.counter("rpc.server.sheds", reason=reason).inc()
        return bytes(data[0:4]) + _ERR_TAIL

    def register(self, prog, vers, proc, handler, xdr_args=None,
                 xdr_res=None):
        """Register ``handler(args) -> result`` for one procedure."""
        table = self._programs.setdefault((prog, vers), {})
        table[proc] = Procedure(handler, xdr_args, xdr_res)

    # -- the route table ----------------------------------------------------

    def install_route(self, prog, vers, proc, body, tier,
                      counts=(None, None), answers=None):
        """Atomically hot-swap a route body into dispatch.

        ``body(data) -> reply bytes | None`` answers a request whose
        call header matches the constant signature of (prog, vers,
        proc) with two NULL auth areas.  A body does the *work* of a
        call and nothing else — decode, run the handler, encode — and
        returns None to *decline*, which hands the request to the
        default body under the same DRC claim.  The at-most-once
        protocol, drain, quota, accounting and the execution count stay
        in :meth:`_spine`; a body never touches them (``counts``: the
        counters of a request it declined / served; ``answers``: the
        outcome of every reply it returns, when it has only one).

        One table holds every tier (``staged``, ``specialized``); it is
        published copy-on-write, so concurrent dispatchers see either
        the old or the new table, never a mid-mutation one.  Installing
        over an existing entry replaces it.
        """
        routes = dict(self._routes or {})
        routes[_signature(prog, vers, proc)] = Route(tier, body, counts,
                                                     answers)
        self._routes = routes
        return self

    def remove_route(self, prog, vers, proc):
        """Demote (prog, vers, proc) back to the default body; returns
        the removed :class:`Route`, or None."""
        routes = dict(self._routes or {})
        removed = routes.pop(_signature(prog, vers, proc), None)
        self._routes = routes or None
        return removed

    def route_for(self, prog, vers, proc):
        """The installed :class:`Route` for (prog, vers, proc), or None."""
        return (self._routes or {}).get(_signature(prog, vers, proc))

    def stage_route(self, prog, vers, proc, unpack_args=None,
                    pack_res=None):
        """Stage one procedure's body into a residual route.

        The server-side dual of ``RpcClient.install_codec``: for the
        registered procedure, the call header is recognized with one
        slice compare against its constant signature words, the
        arguments are unmarshaled straight off the datagram, the
        handler runs, and the reply is assembled as ``xid + constant
        accepted-SUCCESS header + results`` — no header decode, no XDR
        streams.  This is the dispatch specialization
        of the paper applied to the live stack: everything that is
        invariant for a (prog, vers, proc) binding is computed here,
        once, and the residual per-call work is a dict probe and the
        handler.

        ``unpack_args(data, offset) -> args`` and
        ``pack_res(result) -> bytes`` are the residual body marshalers
        (e.g. one ``struct`` call each); either may be omitted to fall
        back to the procedure's registered XDR filters run over a
        stream, which still skips the header layers.

        Only the body is built here (see :meth:`install_route`): a
        handler failure answers ``SYSTEM_ERR`` (cached, like the
        default body's), and undecodable arguments decline, so the
        default body answers ``GARBAGE_ARGS`` byte-identically.
        """
        procedure = self._programs[(prog, vers)][proc]
        handler = procedure.handler
        if unpack_args is None:
            xdr_args = procedure.xdr_args

            def unpack_args(data, offset):
                if xdr_args is None:
                    return None
                return xdr_args(
                    XdrMemStream(data, XdrOp.DECODE, offset=offset), None)
        if pack_res is None:
            xdr_res = procedure.xdr_res
            bufsize = self.bufsize

            def pack_res(result):
                stream = XdrMemStream(bytearray(bufsize), XdrOp.ENCODE)
                if xdr_res is not None:
                    xdr_res(stream, result)
                return stream.data()

        def body(data):
            try:
                args = unpack_args(data, _FAST_HEADER_SIZE)
            # repro: disable=overbroad-except -- hostile bytes may raise anything; decline to the default body's GARBAGE_ARGS
            except Exception:
                return None
            try:
                return bytes(data[0:4]) + _OK_TAIL + pack_res(handler(args))
            # repro: disable=overbroad-except -- any servant crash must become a SYSTEM_ERR reply, not kill dispatch
            except Exception:
                logger.exception(
                    "staged route for prog=%d proc=%d failed", prog, proc
                )
                if _obs.enabled:
                    _obs.registry.cells[_HANDLER_ERRORS].inc()
                return bytes(data[0:4]) + _ERR_TAIL

        return self.install_route(prog, vers, proc, body, tier="staged")

    def install_profiler(self, profiler):
        """Tap dispatch with a traffic profiler (``profiler.record(data,
        reply)`` after every request the default body answered, so the
        sample covers exactly the traffic no route serves yet).
        Installed by
        :meth:`repro.specialized.online.OnlineSpecializer.attach_server`.
        """
        self.profiler = profiler
        return self

    def versions_of(self, prog):
        return sorted(vers for p, vers in self._programs if p == prog)

    # -- the dispatcher ---------------------------------------------------

    def dispatch_bytes(self, data, caller=None, received_at=None):
        """Process one call message; returns the reply message bytes, or
        None when the request is unparseable garbage (dropped, like the
        C svc code drops undecodable datagrams).

        ``data`` may be ``bytes``, ``bytearray``, or a ``memoryview``
        over the transport's receive buffer — it is decoded in place,
        never copied.

        ``caller`` is the transport-level peer identity (UDP source
        address, TCP peer name); when given and the DRC is enabled,
        retransmitted requests are answered from the reply cache
        without re-invoking the handler.

        ``received_at`` is the ``time.monotonic()`` instant the
        transport *received* the message (before any queueing); with
        deadline propagation it anchors the doomed-work check, so a
        request whose budget expired while it sat in the worker queue
        is dropped instead of executed.

        With observability on, the same :meth:`_spine` runs inside one
        ``server.dispatch`` span (labelled with the tier that served)
        and writes what it did into one :class:`_Dispatch`, folded
        here, once, however the dispatch ends.
        """
        if not _obs.enabled:
            return self._spine(data, caller, received_at, None)
        rec = _Dispatch()
        span = outcome = None
        started = _monotonic()
        if _obs.tracer.sinks:
            span = _obs.span(
                "server.dispatch", side="server", bytes=len(data),
                caller=str(caller) if caller is not None else None)
        try:
            reply = self._spine(data, caller, received_at, span, rec)
            outcome = ("dropped" if reply is None else rec.outcome
                       or _OUTCOMES.get(bytes(reply[4:24]), "system_err"))
        except BaseException as exc:
            if span is not None:
                span.end(outcome="error", error=type(exc).__name__)
            raise
        finally:  # the fold: all of the dispatch's updates, one lock round
            elapsed = _monotonic() - started
            cells = _obs.registry.cells
            with _obs.registry.lock:
                cells[_REQUESTS].value += 1
                cells[_LATENCY].fold(elapsed)
                if rec.header is not None:
                    cells[rec.header].value += 1
                if rec.route_count is not None:
                    cells[rec.route_count].value += 1
                if rec.drc_hit is not None:  # the DRC's part
                    cells[_DRC_HITS if rec.drc_hit else _DRC_MISSES].value += 1
                    if rec.entries:
                        cells[_DRC_STORES].value += 1
                        if rec.evicted:
                            cells[_DRC_EVICTIONS].value += rec.evicted
                        cells[_DRC_ENTRIES].value = rec.entries
                if outcome is not None:
                    cells[_REPLIES[outcome]].value += 1
        if span is not None:
            if reply is None:
                span.end(outcome="dropped")
            else:
                span.end(reply_bytes=len(reply))
        return reply

    def _spine(self, data, caller, received_at, span, rec=None):
        """The one at-most-once protocol every tier runs under:
        match-or-parse → doomed-deadline drop → ``drc.begin`` →
        drain/quota shed → route body (default: :meth:`_default_body`)
        → execution count + ``drc.put`` / ``abandon`` → reply."""
        route = stream = xid = None
        routes = self._routes
        fast = self._reply_template is not None
        if ((fast or routes is not None)
                and data[24:40] == _NULL_AUTHS):  # (a full header)
            # The common shape — RPC v2 with two NULL auth areas — is
            # recognized without the field-by-field decode; everything
            # else (and every malformed/mismatch path, so those replies
            # stay byte-identical) goes to the generic decoder.
            if routes is not None:
                route = routes.get(bytes(data[4:24]))
            if route is not None or (fast and data[4:12] == _CALL_V2):
                xid, _, _, prog, vers, proc = _HEADER_WORDS(data)
        if fast and rec is not None:
            rec.header = _HEADER[xid is not None]
        if xid is None:
            fast = False
            stream = XdrMemStream(data, XdrOp.DECODE)
            header, answer = self._decode_header(data, stream, span)
            if header is None:
                return answer
            xid, prog, vers, proc = (header.xid, header.prog, header.vers,
                                     header.proc)
            remaining = remaining_from_cred(header.cred)
            if remaining is not None:
                # Deadline propagation: the cred carries the budget that
                # remained when the client *built* this message.
                # Anchored at the transport's receive instant, an
                # expired budget means the caller has already timed out
                # — doomed work is dropped (not answered: there is
                # nobody left to read the reply), before the DRC spends
                # a probe on it.
                now = time.monotonic()
                arrived = received_at if received_at is not None else now
                if arrived + remaining <= now:
                    self.doomed_dropped += 1
                    if rec is not None:  # rare: off the one fold
                        with _obs.registry.lock:
                            _obs.registry.cells[_DOOMED].value += 1
                    if span is not None:
                        span.add(xid=xid, outcome="doomed")
                    return None
        if span is not None:
            span.add(xid=xid, prog=prog, vers=vers, proc=proc)
        drc = self.drc if caller is not None else None
        if drc is not None:
            # One atomic begin claims the key before anything executes:
            # with a worker pool, the original and a retransmission of
            # the same xid can sit in the queue together; only the
            # claim owner runs a body.
            key = (xid, caller, prog, vers, proc)
            lookup = (span.child("server.drc_lookup")
                      if span is not None else None)
            verdict = drc.begin(key, rec)
            if lookup is not None:
                lookup.end(hit=verdict is not True and verdict is not False)
            if verdict is not True:
                if verdict is False:
                    # Another worker is executing this request right
                    # now; drop — the client's next retransmit replays
                    # the cached reply.
                    return None
                if rec is not None:
                    rec.outcome = "drc_replay"
                    self._verdict(span, "drc_replay")
                return verdict
        # Whatever happens below, the claim is resolved exactly once:
        # a reply a handler run produced is recorded; a shed, an error
        # reply no handler produced, or an escaping BaseException
        # releases it, so a retransmission is never blocked and never
        # replays a reply that load or a typo caused.
        record = None
        try:
            if self.draining or self.quota is not None:
                reason = self._refusal(caller, prog, vers)
                if reason is not None:
                    # Draining: replays (above) and health (exempt)
                    # still answer; new work, or a caller over its
                    # token budget, is refused with a typed error reply.
                    if rec is not None:
                        rec.outcome = "shed"
                        self._verdict(span, "shed")
                    return self._shed(data, reason)
            if route is not None:
                record = route.body(data)
                if rec is not None:
                    rec.route_count = route.counts[record is not None]
                    if record is not None:
                        rec.outcome = route.answers
                if record is not None:
                    if span is not None:
                        span.add(tier=route.tier, outcome=_OUTCOMES.get(
                            bytes(record[4:24]), "system_err"))
                    return record
            if span is not None:
                span.add(tier="fastpath" if fast else "generic")
            reply, executed = self._default_body(xid, prog, vers, proc,
                                                 data, stream, span)
            if executed:
                record = reply
            if self.profiler is not None:
                self.profiler.record(data, reply)
            return reply
        finally:
            if record is not None:
                # one execution per reply recorded, whichever body ran
                self.handlers_invoked += 1
                if drc is not None:
                    drc.put(key, record, rec)
            elif drc is not None:
                drc.abandon(key)

    def _refusal(self, caller, prog, vers):
        """Why this request must be shed — ``draining``, or ``quota``
        (charging the caller's bucket) — or None to serve it."""
        if (prog, vers) in self._drain_exempt:
            return None
        if self.draining:
            return "draining"
        if (self.quota is not None and caller is not None
                and not self.quota.admit(caller)):
            return "quota"
        return None

    def _decode_header(self, data, stream, span):
        """The generic header decode: ``(header, None)``, or ``(None,
        answer)`` where ``answer`` is the RPC_MISMATCH reply, or None to
        drop an undecodable message."""
        try:
            return decode_call_header(stream), None
        except RpcProtocolError as exc:
            if "bad RPC version" in str(exc):
                # We can still answer an RPC_MISMATCH if the xid parsed.
                try:
                    xid = int.from_bytes(data[0:4], "big")
                except (TypeError, ValueError):
                    return None, None
                out = XdrMemStream(bytearray(64), XdrOp.ENCODE)
                encode_denied_reply(out, xid, RejectStat.RPC_MISMATCH, (2, 2))
                if span is not None:
                    span.add(xid=xid)
                self._verdict(span, "rpc_mismatch")
                return None, out.data()
            logger.debug("dropping undecodable call: %s", exc)
        except XdrError as exc:
            logger.debug("dropping truncated call: %s", exc)
        # repro: disable=overbroad-except -- defensive decode: arbitrary bytes must never crash dispatch
        except Exception as exc:
            # Defensive decode: arbitrary bytes must never crash
            # dispatch.  Anything the grammar-level decoders did not
            # already map to a typed error (struct.error, ValueError,
            # IndexError, ...) is counted and dropped like undecodable
            # garbage.
            self.decode_defended += 1
            if _obs.enabled:
                _obs.registry.counter("rpc.server.decode_defended").inc()
            logger.debug("defended undecodable call: %r", exc)
        return None, None

    def _verdict(self, span, outcome):
        """Record a dispatch outcome on the span (the outcome counter
        is folded by :meth:`dispatch_bytes`)."""
        if span is not None:
            span.add(outcome=outcome)

    def _default_body(self, xid, prog, vers, proc, data, stream, span):
        """The default route body — generic XDR decode, registered
        handler, generic encode — for every request no installed route
        serves (``stream``: the arguments' decoder, None after a fast
        header match).  Returns ``(reply, executed)``: ``executed`` is
        True when a handler ran (so the reply is recorded in the DRC),
        False for the error replies no handler produced."""
        table = self._programs.get((prog, vers))
        if proc == NULLPROC and table is not None and proc not in table:
            # the ping: an accepted SUCCESS with no results, no encoder
            self._verdict(span, "success")
            return _XID.pack(xid) + _OK_TAIL, False
        out = XdrMemStream(bytearray(self.bufsize), XdrOp.ENCODE)
        if table is None:
            versions = self.versions_of(prog)
            if versions:
                return self._answer(
                    out, xid, AcceptStat.PROG_MISMATCH, span,
                    mismatch=(versions[0], versions[-1]))
            return self._answer(out, xid, AcceptStat.PROG_UNAVAIL, span)
        entry = table.get(proc)
        if entry is None:
            return self._answer(out, xid, AcceptStat.PROC_UNAVAIL, span)
        decode_span = (span.child("server.decode_args")
                       if span is not None else None)
        if stream is None:
            stream = XdrMemStream(data, XdrOp.DECODE,
                                  offset=_FAST_HEADER_SIZE)
        try:
            args = (entry.xdr_args(stream, None)
                    if entry.xdr_args is not None else None)
        # repro: disable=overbroad-except -- fuzzed bytes raise beyond XdrError; all map to GARBAGE_ARGS
        except Exception as exc:
            # XdrError is the designed signal, but fuzzed bytes can
            # make body filters raise UnicodeDecodeError, ValueError
            # (enum discriminants), struct.error, ... — all of them
            # are GARBAGE_ARGS per the message grammar, never a
            # crash.
            if not isinstance(exc, XdrError):
                self.decode_defended += 1
                if _obs.enabled:
                    _obs.registry.counter(
                        "rpc.server.decode_defended").inc()
            if decode_span is not None:
                decode_span.end(outcome="garbage_args")
            logger.debug("garbage args: %r", exc)
            return self._answer(out, xid, AcceptStat.GARBAGE_ARGS, span)
        if decode_span is not None:
            decode_span.end()
        return self._run_handler(entry, args, xid, prog, proc, out,
                                 span), True

    def _answer(self, out, xid, stat, span, mismatch=None):
        """An accepted reply no handler produced (never cached)."""
        encode_accepted_reply(out, xid, stat, NULL_AUTH, mismatch=mismatch)
        self._verdict(span, stat.name.lower())
        return out.data(), False

    def _run_handler(self, entry, args, xid, prog, proc, out, span):
        handler_span = (span.child("server.handler")
                        if span is not None else None)
        try:
            result = entry.handler(args)
        # repro: disable=overbroad-except -- any servant crash must become a SYSTEM_ERR reply, not kill dispatch
        except Exception:
            if handler_span is not None:
                handler_span.end(outcome="error")
            logger.exception(
                "handler for prog=%d proc=%d failed", prog, proc
            )
            if _obs.enabled:
                _obs.registry.cells[_HANDLER_ERRORS].inc()
            encode_accepted_reply(out, xid, AcceptStat.SYSTEM_ERR, NULL_AUTH)
            self._verdict(span, "system_err")
            return out.data()
        if handler_span is not None:
            handler_span.end()
        encode_span = (span.child("server.encode_reply")
                       if span is not None else None)
        if self._reply_template is not None and out.pos == 0:
            # Fast path: copy the pre-built SUCCESS header, patch xid.
            out.setpos(self._reply_template.write_into(out.buffer, xid))
        else:
            encode_accepted_reply(out, xid, AcceptStat.SUCCESS, NULL_AUTH)
        outcome = "success"
        try:
            if entry.xdr_res is not None:
                entry.xdr_res(out, result)
        # repro: disable=overbroad-except -- unmarshalable handler result must become SYSTEM_ERR, not kill the transport
        except Exception:
            # Result does not fit the reply buffer (XdrError) or the
            # handler returned something the filter cannot marshal:
            # answer SYSTEM_ERR rather than killing the transport.
            logger.exception(
                "reply encoding failed for prog=%d proc=%d", prog, proc
            )
            out = XdrMemStream(bytearray(self.bufsize), XdrOp.ENCODE)
            encode_accepted_reply(out, xid, AcceptStat.SYSTEM_ERR, NULL_AUTH)
            outcome = "system_err"
        if encode_span is not None:
            encode_span.end(bytes=out.pos)
        self._verdict(span, outcome)
        return out.data()


def rpc_service(registry, prog, vers):
    """Decorator helper::

        svc = SvcRegistry()
        service = rpc_service(svc, PROG, VERS)

        @service(1, xdr_args=..., xdr_res=...)
        def rmin(args):
            ...
    """

    def proc_decorator(proc, xdr_args=None, xdr_res=None):
        def wrap(handler):
            registry.register(prog, vers, proc, handler, xdr_args, xdr_res)
            return handler

        return wrap

    return proc_decorator
