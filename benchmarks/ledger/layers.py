"""The traced pass: per-layer times, exact bytecode counts and set-up
stage times, all taken from outside by calling the layers' public
functions.

One :class:`Lab` per run.  It builds both tiers in-process with stage
timers patched around ``tempo.specialize``, ``compile_program`` and the
verifier, replays the head of the workload's call sequence without
sockets as ``call`` -> ``client.encode`` / ``server.dispatch`` /
``client.decode`` spans, and wraps stand-alone spans around the
sub-layer functions.  Spans inside the program are a later issue.
"""

import contextlib
import itertools
import shutil
import statistics
import tempfile
import time

from . import tiers
from . import workloads as wl
from .probe import SpanLog, TimedCalls, count_pyops

PROC = wl.PROC_SENDRECV
#: seed of the canonical argument array the exact counts are taken on,
#: so a ``_pyops`` reading does not depend on ``--seed``.
CANONICAL_SEED = 0


class _NullSocket:
    """A socket that accepts writes and replays one byte string on
    reads, for timing ``rpc.record`` without a peer."""

    def __init__(self, incoming=b""):
        self._incoming = incoming
        self._offset = 0

    def sendall(self, data):
        return None

    def rewind(self):
        self._offset = 0

    def recv(self, size):
        chunk = self._incoming[self._offset:self._offset + size]
        self._offset += len(chunk)
        return chunk


class Lab:
    def __init__(self, workload, seed, quick=False):
        self.workload = workload
        self.seed = seed
        self.metrics = {}
        self.checks = {}
        self.log = SpanLog()
        #: stand-alone span repeats; enough for a stable median, small
        #: enough that n=1000 stays inside the run budget.
        self.repeats = 40 if quick else max(200, 40000 // workload.n)
        self._xids = itertools.count(1)
        cache_dir = tempfile.mkdtemp(prefix=".ledger-cache-",
                                     dir=tiers.LEDGER_DIR)
        try:
            self._build(cache_dir)
            self._revive(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    # -- set-up stages ----------------------------------------------------

    def _build(self, cache_dir):
        """Cold, stage-timed build of both tiers.  A disk tier is passed
        here only so :meth:`_revive` has something to revive; it starts
        empty, so the build is as cold as the measured tiers'."""
        import repro.analysis.verify as verify
        import repro.specialized.pipeline as pipeline_mod
        from repro.minic.parser import parse_program
        from repro.minic.pretty import source_size
        from repro.minic.typecheck import typecheck_program
        from repro.rpcgen.codegen_py import load_python
        from repro.rpcgen.idl_parser import parse_idl

        m, n = self.metrics, self.workload.n
        started = time.perf_counter()
        load_python(parse_idl(wl.IDL), "ledger_probe_stubs")
        m["rpcgen.load_s"] = time.perf_counter() - started

        self.stack = stack = tiers.Stack(cache_dir=cache_dir)
        started = time.perf_counter()
        typecheck_program(parse_program(stack.pipeline.minic_source))
        m["minic.parse_typecheck_s"] = time.perf_counter() - started

        with TimedCalls(pipeline_mod, "specialize") as tempo, \
                TimedCalls(pipeline_mod, "compile_program") as compiler, \
                TimedCalls(verify, "verify_client_spec") as verify_c, \
                TimedCalls(verify, "verify_server_residual") as verify_s:
            started = time.perf_counter()
            self.client_spec = stack.spec_client(n)
            m["specialized.pipeline.specialize_s.client"] = (
                time.perf_counter() - started)
            m["tempo.specialize_s.client"] = tempo.seconds
            started = time.perf_counter()
            self.spec_server = stack.spec_server(n)
            m["specialized.pipeline.specialize_s.server"] = (
                time.perf_counter() - started)
            m["tempo.specialize_s.server"] = (
                tempo.seconds - m["tempo.specialize_s.client"])
        m["minic.compile_py.compile_s"] = compiler.seconds
        m["analysis.verify_s.client"] = verify_c.seconds
        m["analysis.verify_s.server"] = verify_s.seconds
        self.checks["cold_and_verified"] = (
            stack.cold_and_verified()
            and verify_c.calls == 1 and verify_s.calls == 1)
        m["tempo.residual_source_bytes.client"] = (
            source_size(self.client_spec.marshal_result.program)
            + source_size(self.client_spec.recv_result.program))
        m["tempo.residual_source_bytes.server"] = source_size(
            self.spec_server.result.program)

        hits = []
        for _ in range(self.repeats):
            started = time.perf_counter()
            stack.spec_client(n)
            hits.append(time.perf_counter() - started)
        m["specialized.cache.hit_us"] = statistics.median(hits) * 1e6

    def _revive(self, cache_dir):
        """A second pipeline on the same directory: unpickle, re-verify,
        re-compile — what a restarted process pays instead of Tempo."""
        revived = tiers.Stack(cache_dir=cache_dir)
        started = time.perf_counter()
        revived.spec_client(self.workload.n)
        revived.spec_server(self.workload.n)
        self.metrics["specialized.cache.disk_revive_s"] = (
            time.perf_counter() - started)
        self.checks["disk_revived"] = revived.pipeline.cache.disk_hits == 2

    # -- the in-process tiers --------------------------------------------

    def _clients(self):
        from repro.rpc.client import RpcClient

        spec = RpcClient(wl.PROG, wl.VERS).enable_fastpath()
        self.client_spec.install(spec)
        return {
            "generic": RpcClient(wl.PROG, wl.VERS),
            "fastpath": RpcClient(wl.PROG, wl.VERS).enable_fastpath(),
            "spec": spec,
        }

    def _dispatchers(self, requests):
        stack = self.stack
        staged = stack.registry(fastpath=True, drc=True)
        staged.stage_route(wl.PROG, wl.VERS, PROC)
        # the online tier as the default policy leaves it on this size:
        # profile min_calls requests, then one decision pass (a memory
        # cache hit on the residual built above; refused past unroll_cap)
        online_registry = stack.registry(fastpath=True, drc=True)
        online = stack.online()
        online.attach_server(online_registry)
        for request in itertools.islice(requests, online.policy.min_calls):
            online_registry.dispatch_bytes(request, tiers.CALLER)
        online.poll_once()
        return {
            "generic": stack.registry(drc=True),
            "fastpath": stack.registry(fastpath=True, drc=True),
            "staged": staged,
            "spec": self.spec_server,
            "online": online_registry,
        }

    def _requests(self, client, args):
        """An endless stream of call messages with fresh xids, so every
        dispatch is a DRC miss."""
        xdr = self.stack.xdr
        while True:
            yield bytes(client.build_call(next(self._xids), PROC, args, xdr))

    # -- the pass ----------------------------------------------------------

    def run(self, live):
        """Everything after the live run; ``live`` is its readings.
        Returns ``(metrics, checks)``."""
        stack, m, n = self.stack, self.metrics, self.workload.n
        clients = self._clients()
        args = stack.args_for(wl.make_values(CANONICAL_SEED, n, 0))
        requests = self._requests(clients["generic"], args)
        dispatchers = self._dispatchers(requests)

        pairs = {tier: (clients[tier], dispatchers[tier])
                 for tier in ("generic", "spec")}
        poll = None
        if self.workload.online:
            # the replay mixes sizes: its spec tier is what the live
            # one is, an online pair from a generic start, with the
            # decision pass driven by call count instead of a thread
            pairs["spec"], poll = self._online_pair()
        in_process = self._replay(pairs, poll)
        for tier in ("generic", "spec"):
            m[f"rpc.client.encode_us.{tier}"] = self.log.median_us(
                "client.encode", tier)
            m[f"rpc.client.decode_us.{tier}"] = self.log.median_us(
                "client.decode", tier)
            m[f"rpc.server.dispatch_us.{tier}"] = self.log.median_us(
                "server.dispatch", tier)
            m[f"rpc.transport.wire_us.{tier}"] = (
                live[f"loadgen.raw_p50_us.{tier}"] - in_process[tier])
        traced = self.log.median_us("call", "spec")
        m["loadgen.tracing_overhead_pct"] = (
            100.0 * (traced - in_process["spec"]) / in_process["spec"])

        # steady state for everything below: DRCs at capacity, so each
        # put evicts exactly one entry
        for dispatcher in dispatchers.values():
            drc = tiers.drc_of(dispatcher)
            while len(drc) < drc.capacity:
                dispatcher.dispatch_bytes(next(requests), tiers.CALLER)
        self._time_layers(clients, dispatchers, requests, args)
        self._count_pyops(clients, dispatchers, requests, args)
        self._obs_overheads(clients["spec"], dispatchers["spec"], args)
        m.update(live)
        return m, self.checks

    def _online_pair(self):
        from repro.rpc.client import RpcClient

        online = self.stack.online()
        registry = self.stack.registry(fastpath=True, drc=True)
        client = RpcClient(wl.PROG, wl.VERS).enable_fastpath()
        online.attach_server(registry)
        online.attach_client(client, wl.PROC_NAME)
        return (client, registry), online.poll_once

    def _replay(self, pairs, poll):
        """The head of the call sequence through both tiers, traced,
        then again untraced; returns the untraced ``call`` p50 (us).
        ``poll`` (online workloads) runs every 100 calls."""
        workload, stack, log = self.workload, self.stack, self.log
        xdr = stack.xdr
        plan = wl.CallPlan(workload, self.seed)
        items = [stack.args_for(wl.make_values(self.seed, *pair))
                 for pair in plan.take(workload.trace_calls)]
        wrong = 0
        for call_id, args in enumerate(items):
            if poll is not None and call_id % 100 == 99:
                poll()
            for tier, (client, dispatch) in pairs.items():
                xid = next(self._xids)
                root = log.begin("call", tier, None, call_id)
                span = log.begin("client.encode", tier, root, call_id)
                data = client.build_call(xid, PROC, args, xdr)
                log.end(span)
                span = log.begin("server.dispatch", tier, root, call_id)
                reply = dispatch.dispatch_bytes(data, tiers.CALLER)
                log.end(span)
                span = log.begin("client.decode", tier, root, call_id)
                matched, value = client.parse_reply(reply, xid, PROC, xdr)
                log.end(span)
                log.end(root)
                if not matched or value.vals != [v + 1 for v in args.vals]:
                    wrong += 1
        self.checks["replay_correct"] = wrong == 0
        return {tier: _untraced_p50(client, dispatch, items, xdr, self._xids)
                for tier, (client, dispatch) in pairs.items()}

    def _time_layers(self, clients, dispatchers, requests, args):
        from repro.rpc.drc import DuplicateRequestCache
        from repro.rpc.fastpath import CallHeaderTemplate, ReplyHeaderTemplate
        from repro.rpc.mux import pack_batch, unpack_batch
        from repro.rpc.record import read_record, write_record
        from repro.xdr import XdrMemStream, XdrOp

        m, log, repeats = self.metrics, self.log, self.repeats
        xdr = self.stack.xdr
        request, reply, body = _sample(dispatchers, requests)

        fast = clients["fastpath"]
        m["rpc.client.encode_us.fastpath"] = log.time(
            "client.encode", lambda: fast.build_call(7, PROC, args, xdr),
            repeats, "fastpath")
        for tier in ("fastpath", "staged", "online"):
            dispatch = dispatchers[tier].dispatch_bytes
            fresh = list(itertools.islice(requests, repeats))
            m[f"rpc.server.dispatch_us.{tier}"] = log.time(
                "server.dispatch",
                lambda: dispatch(fresh.pop(), tiers.CALLER), repeats, tier)
        residual = self.spec_server.residual_reply
        m["specialized.pipeline.residual_reply_us"] = log.time(
            "specialized.pipeline.residual_reply",
            lambda: residual(request), repeats)

        scratch = bytearray(fast.bufsize)
        m["xdr.encode_us"] = log.time(
            "xdr.encode",
            lambda: xdr(XdrMemStream(scratch, XdrOp.ENCODE), args), repeats)
        m["xdr.decode_us"] = log.time(
            "xdr.decode",
            lambda: xdr(XdrMemStream(body, XdrOp.DECODE), None), repeats)

        template = CallHeaderTemplate(wl.PROG, wl.VERS, PROC)
        m["rpc.fastpath.header_write_us"] = log.time(
            "rpc.fastpath.header_write",
            lambda: template.write_into(scratch, 7), repeats)
        success = ReplyHeaderTemplate()
        m["rpc.fastpath.reply_match_us"] = log.time(
            "rpc.fastpath.reply_match", lambda: success.matches(reply),
            repeats)

        drc = DuplicateRequestCache()
        keys = (drc.key(xid, tiers.CALLER, wl.PROG, wl.VERS, PROC)
                for xid in itertools.count())
        for _ in range(drc.capacity):
            drc.put(next(keys), reply)

        def begin_put():
            key = next(keys)
            drc.begin(key)
            drc.put(key, reply)

        m["rpc.drc.begin_put_us"] = log.time("rpc.drc.begin_put", begin_put,
                                             repeats)
        spec_dispatch = dispatchers["spec"].dispatch_bytes
        spec_dispatch(request, tiers.CALLER)
        m["rpc.drc.replay_us"] = log.time(
            "rpc.drc.replay", lambda: spec_dispatch(request, tiers.CALLER),
            repeats)

        batch = [request] * max(1, min(32, fast.bufsize // len(request)))
        packed = pack_batch(batch)
        m["rpc.mux.batch_pack_us"] = log.time(
            "rpc.mux.batch_pack", lambda: pack_batch(batch), repeats)
        m["rpc.mux.batch_unpack_us"] = log.time(
            "rpc.mux.batch_unpack", lambda: unpack_batch(packed), repeats)

        sink = _NullSocket()
        m["rpc.record.mark_us"] = log.time(
            "rpc.record.mark", lambda: write_record(sink, request), repeats)
        marked = bytearray()
        capture = _NullSocket()
        capture.sendall = marked.extend
        write_record(capture, request)
        source = _NullSocket(bytes(marked))

        def reassemble():
            source.rewind()
            read_record(source)

        m["rpc.record.reassemble_us"] = log.time(
            "rpc.record.reassemble", reassemble, repeats)

    def _count_pyops(self, clients, dispatchers, requests, args):
        from repro.xdr import XdrMemStream, XdrOp

        m, xdr = self.metrics, self.stack.xdr
        request, reply, body = _sample(dispatchers, requests)
        xid = int.from_bytes(request[:4], "big")
        scratch = bytearray(clients["generic"].bufsize)
        residual = self.spec_server.residual_reply
        probes = {
            "xdr.encode_pyops":
                lambda: xdr(XdrMemStream(scratch, XdrOp.ENCODE), args),
            "xdr.decode_pyops":
                lambda: xdr(XdrMemStream(body, XdrOp.DECODE), None),
            "specialized.pipeline.residual_reply_pyops":
                lambda: residual(request),
        }
        # built ahead: encoding a request inside the probe would be
        # counted as dispatch work (warm-up + two counts each)
        fresh = list(itertools.islice(requests, 6))
        for tier in ("generic", "spec"):
            client = clients[tier]
            dispatch = dispatchers[tier].dispatch_bytes
            probes[f"rpc.client.encode_pyops.{tier}"] = (
                lambda client=client: client.build_call(xid, PROC, args, xdr))
            probes[f"rpc.client.decode_pyops.{tier}"] = (
                lambda client=client: client.parse_reply(reply, xid, PROC,
                                                         xdr))
            probes[f"rpc.server.dispatch_pyops.{tier}"] = (
                lambda dispatch=dispatch: dispatch(fresh.pop(),
                                                   tiers.CALLER))
        repeatable = True
        # observability off: with metrics on, histogram bucket searches
        # make the count depend on the time a dispatch happened to take
        with _obs_off():
            for name, probe in probes.items():
                probe()
                m[name] = count_pyops(probe)
                repeatable &= count_pyops(probe) == m[name]
        self.checks["pyops_repeatable"] = repeatable

    def _obs_overheads(self, client, dispatcher, args):
        """In-process spec-tier ``call`` p50 with metrics on, and with a
        trace sink too, against obs off."""
        from repro import obs

        items = [args] * self.repeats
        xdr = self.stack.xdr
        p50 = {}
        with _obs_off():
            for mode in ("off", "metrics", "tracing"):
                obs.disable()
                if mode == "metrics":
                    obs.enable()
                elif mode == "tracing":
                    obs.enable(sink=obs.MemorySink())
                p50[mode] = _untraced_p50(client, dispatcher, items, xdr,
                                          self._xids)
        for mode in ("metrics", "tracing"):
            self.metrics[f"obs.{mode}_on_overhead_pct"] = (
                100.0 * (p50[mode] - p50["off"]) / p50["off"])


def _sample(dispatchers, requests):
    """One call message, its reply, and the reply's body bytes."""
    from repro.rpc.fastpath import ReplyHeaderTemplate

    request = next(requests)
    reply = dispatchers["generic"].dispatch_bytes(request)
    return request, reply, bytes(reply[ReplyHeaderTemplate().size:])


@contextlib.contextmanager
def _obs_off():
    """Observability off (and its sinks detached) inside the block; the
    process's own setting restored after."""
    from repro import obs

    was_enabled = obs.enabled
    obs.disable()
    try:
        yield
    finally:
        obs.disable()
        if was_enabled:
            obs.enable()


def _untraced_p50(client, dispatcher, items, xdr, xids):
    """p50 (us) of encode -> dispatch -> decode with one clock pair per
    call and no span records."""
    clock = time.perf_counter
    dispatch = dispatcher.dispatch_bytes
    times = []
    for args in items:
        xid = next(xids)
        started = clock()
        data = client.build_call(xid, PROC, args, xdr)
        reply = dispatch(data, tiers.CALLER)
        client.parse_reply(reply, xid, PROC, xdr)
        times.append(clock() - started)
    return statistics.median(times) * 1e6


def null_rtts(ports, repeats):
    """NULLPROC round trips (us, p50) against each server transport:
    bare forwarding at the smallest message.

    The clients run with observability off even on an obs workload:
    with metrics on and no trace sink, ``MuxTcpClient._flush_sends``
    calls ``.end()`` on the None that ``obs.span`` returns, its demux
    thread dies, and the call never resolves (a defect in ``src/`` this
    change may not touch; README, "Found while building")."""
    from repro.rpc import MuxTcpClient, MuxUdpClient, TcpClient, UdpClient

    out = {}
    with _obs_off():
        for name, cls in (("udp", UdpClient), ("tcp", TcpClient),
                          ("mux_udp", MuxUdpClient),
                          ("mux_tcp", MuxTcpClient)):
            client = cls(tiers.HOST, ports["null_" + name], wl.PROG,
                         wl.VERS, fastpath=True)
            try:
                times = []
                for index in range(repeats + 20):
                    started = time.perf_counter()
                    client.null_call()
                    if index >= 20:
                        times.append(time.perf_counter() - started)
            finally:
                client.close()
            out[f"rpc.transport.null_rtt_us.{name}"] = (
                statistics.median(times) * 1e6)
    return out
