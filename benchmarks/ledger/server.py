"""The server subprocess: both tiers' servers on two ports.

Protocol (JSON lines): one ``ready`` line on stdout once the servers
listen; then, per ``snap`` line on stdin, one line with the process CPU
clock, the tiers' handler counts and the online promotion count;
``attach`` starts the online specializer on the spec registry; on
``stop`` (or EOF) the servers stop and one final line reports CPU,
RSS, handler counts, DRC summaries and the online tallies.
"""

import json
import resource
import sys
import time

from . import tiers
from . import workloads as wl
from .probe import TimedCalls
from .reference import EchoServer


def replies_identical(stack, seed, workload, generic, spec):
    """Reply bytes of the two dispatchers agree for every size the
    workload sends.  ``caller=None`` keeps the DRCs out of it."""
    for index, n in enumerate(workload.sizes()):
        request = tiers.canonical_request(stack, seed, n, 0x7E000000 + index)
        want = generic.dispatch_bytes(request)
        got = spec.dispatch_bytes(request)
        if want is None or bytes(got or b"") != bytes(want):
            return False
    return True


def _emit(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _corrupt_replies(dispatcher):
    """Self-test hook: flip one body bit of every spec-tier reply after
    the byte-identity check has passed, so the load generator's value
    check is the only thing left to catch it."""
    original = dispatcher.dispatch_bytes

    def corrupted(data, caller=None, received_at=None):
        reply = original(data, caller=caller, received_at=received_at)
        if reply is None or len(reply) < 32:
            return reply
        broken = bytearray(reply)
        broken[-1] ^= 0x01
        return bytes(broken)

    dispatcher.dispatch_bytes = corrupted


def _start_servers(stack, workload, generic, spec, null_servers):
    from repro.rpc import MuxTcpServer, MuxUdpServer, TcpServer, UdpServer

    servers = {
        "generic": tiers.make_server(workload.transport, generic, False),
        "spec": tiers.make_server(workload.transport, spec, True),
    }
    if null_servers:
        # bare forwarding: NULLPROC against each of the four transports
        registry = stack.registry(fastpath=True, drc=True)
        for name, cls in (("udp", UdpServer), ("tcp", TcpServer),
                          ("mux_udp", MuxUdpServer),
                          ("mux_tcp", MuxTcpServer)):
            servers["null_" + name] = cls(registry, host=tiers.HOST,
                                          fastpath=True)
    servers["ref"] = EchoServer(tiers.HOST)
    for server in servers.values():
        server.start()
    return servers


def serve(workload, seed, null_servers=False, corrupt=False, burn=False):
    from repro import obs

    if workload.obs:
        obs.enable()
    started = time.perf_counter()
    stack = tiers.Stack()
    generic = stack.registry(drc=True)
    online = None
    if workload.online:
        spec = stack.registry(fastpath=True, drc=True)
        online = stack.online()
    else:
        spec = stack.spec_server(workload.n)
    build_s = time.perf_counter() - started
    cold = stack.cold_and_verified()
    # before the servers attach the profiler, so it samples traffic only
    identical = replies_identical(stack, seed, workload, generic, spec)
    if corrupt:
        _corrupt_replies(spec)
    if burn:
        tiers.burn_cpu()
    dispatchers = {"generic": generic, "spec": spec}
    base = {k: tiers.handlers_invoked(d) for k, d in dispatchers.items()}

    def handlers():
        return {k: tiers.handlers_invoked(d) - base[k]
                for k, d in dispatchers.items()}

    with TimedCalls(stack.pipeline, "specialize_server") as builds:
        servers = _start_servers(stack, workload, generic, spec,
                                 null_servers)
        _emit({
            "event": "ready",
            "ports": {name: s.port for name, s in servers.items()},
            "build_s": build_s,
            "replies_identical": identical,
            "cold_and_verified": cold,
        })
        for line in sys.stdin:
            command = line.strip()
            if command == "snap":
                cpu_s = time.process_time()
                _emit({"cpu_s": cpu_s,
                       # every thread but the reference's echo
                       "background_cpu_s": cpu_s - servers["ref"].cpu_s,
                       "handlers": handlers(),
                       "promotions": getattr(online, "promotions", 0)})
            elif command == "attach":
                # what the servers' ``online_spec=`` argument does, but
                # after warm-up, so the profile holds timed traffic only
                online.attach_server(spec)
                online.start()
            elif command == "stop":
                break
        if online is not None:
            online.stop()
        for server in servers.values():
            server.stop()
    counted = handlers()
    _emit({
        "event": "final",
        "cpu_s": time.process_time(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "handlers": counted,
        "drc": {k: tiers.drc_of(d).summary()
                for k, d in dispatchers.items()},
        "online": dict(
            {key: getattr(online, key, 0) for key in
             ("promotions", "respecializations", "demotions")},
            build_s=builds.seconds),
        # the online tier may hold routes by now: compare again
        "replies_identical": corrupt or replies_identical(
            stack, seed, workload, generic, spec),
        "verify_enabled": stack.pipeline.verify_enabled(),
    })


def main(argv):
    name, seed = argv[0], int(argv[1])
    flags = set(argv[2:])
    workload = wl.BY_NAME[name]
    if "quick" in flags:
        workload = wl.quick(workload)
    serve(workload, seed, null_servers="null" in flags,
          corrupt="corrupt" in flags, burn="burn" in flags)
