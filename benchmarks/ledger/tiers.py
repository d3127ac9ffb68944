"""The two tiers measured side by side, and the host hygiene both
processes apply before touching the program.

``generic`` is the paper's "Original": rpcgen Python stubs over the
``repro.xdr`` micro-layers, DRC on, no fast path, no residual code.
``spec`` is the documented production configuration: fast path on both
ends, DRC on, residual codecs from the specialization pipeline built
cold with verification on — or, on an ``online`` workload, an
:class:`OnlineSpecializer` with the default policy from a fully
generic start.
"""

import os
import sys
import threading

from . import workloads as wl

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
RUN_PY = os.path.join(LEDGER_DIR, "run.py")

HOST = "127.0.0.1"
#: caller identity for in-process dispatch: the DRC only engages for
#: requests that name their peer.
CALLER = (HOST, 1)


def scrub_env(environ=None):
    """Drop every ``REPRO_*`` knob; returns the names removed.  Must
    run before ``repro`` is imported (``repro.obs`` reads its knobs at
    import)."""
    environ = os.environ if environ is None else environ
    names = sorted(k for k in environ if k.startswith("REPRO_"))
    for name in names:
        del environ[name]
    return names


def pin_to_one_cpu():
    """Pin this process (and its future children) to the lowest allowed
    CPU; returns it.  Client and server share it on purpose: split
    across two vCPUs every reply pays a cross-CPU wake-up and the p50
    drifts by 3-4x between identical runs."""
    if not hasattr(os, "sched_setaffinity"):
        raise SystemExit(
            "ledger: os.sched_setaffinity is unavailable; refusing to"
            " run unpinned (numbers would not be comparable)"
        )
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def burn_cpu():
    """Self-test hook: a background thread of this process that never
    stops computing, as a build or a poller of the program's would.
    The tiers must read slower for it; a harness that took it for host
    drift and divided it out would hide it."""
    def spin():
        while True:
            sum(range(100))

    # a stalled call waits one switch interval: 1 ms keeps the
    # self-test short and is still 20 round trips
    sys.setswitchinterval(0.001)
    threading.Thread(target=spin, daemon=True, name="ledger-burn").start()


def add_source_path():
    """Make ``repro`` importable from the checkout's ``src``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"ledger: no program source under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)


class Stack:
    """One process's view of the interface: the pipeline (which owns
    the generated stubs) plus factories for each tier's pieces."""

    def __init__(self, cache_dir=None):
        from repro.specialized import SpecializationPipeline

        # cache_dir stays None for every measured tier: a cold cache and
        # the default verification gate are part of the contract
        self.pipeline = SpecializationPipeline(
            wl.IDL, impl_sources=[wl.IMPL], cache_dir=cache_dir
        )
        self.stubs = self.pipeline.stubs
        self.xdr = self.stubs.xdr_intarr

    # -- hygiene the run asserts on -------------------------------------

    def cold_and_verified(self):
        """True while every build so far ran Tempo (no cache tier
        answered) with the verifier on."""
        cache = self.pipeline.cache
        return (self.pipeline.verify_enabled()
                and cache.hits == 0 and cache.disk_hits == 0)

    # -- arguments -------------------------------------------------------

    def args_for(self, values):
        return self.stubs.intarr(vals=values)

    # -- server side -----------------------------------------------------

    def registry(self, **kwargs):
        from repro.rpc import SvcRegistry

        stubs = self.stubs
        registry = SvcRegistry(**kwargs)

        class Impl:
            def SENDRECV(self, args):
                return stubs.intarr(vals=[v + 1 for v in args.vals])

        stubs.register_XCHG_PROG_1(registry, Impl())
        return registry

    def lens(self, n):
        return {"arg_lens": {"vals": n}, "res_lens": {"vals": n}}

    def spec_server(self, n):
        """The residual dispatcher over a DRC-carrying fast-path
        fallback registry."""
        fallback = self.registry(fastpath=True, drc=True)
        return self.pipeline.specialize_server(
            wl.PROC_NAME, fallback=fallback, **self.lens(n)
        )

    def spec_client(self, n):
        return self.pipeline.specialize_client(wl.PROC_NAME, **self.lens(n))

    def online(self):
        from repro.specialized import OnlineSpecializer

        return OnlineSpecializer(self.pipeline)


def handlers_invoked(dispatcher):
    """Handler executions behind one tier's dispatcher: the residual
    dispatcher runs the MiniC handler itself and counts its own hits."""
    fallback = getattr(dispatcher, "fallback", None)
    if fallback is not None:
        return dispatcher.fast_path_hits + fallback.handlers_invoked
    return dispatcher.handlers_invoked


def drc_of(dispatcher):
    return getattr(dispatcher, "fallback", dispatcher).drc


def make_server(transport, dispatcher, fastpath):
    from repro.rpc import MuxUdpServer, TcpServer, UdpServer

    cls = {"udp": UdpServer, "mux_udp": MuxUdpServer,
           "tcp": TcpServer}[transport]
    return cls(dispatcher, host=HOST, fastpath=fastpath, drc=True)


def make_client(transport, port, fastpath, window=1):
    from repro.rpc import MuxUdpClient, TcpClient, UdpClient

    if transport == "mux_udp":
        return MuxUdpClient(HOST, port, wl.PROG, wl.VERS, fastpath=fastpath,
                            max_inflight=window)
    cls = {"udp": UdpClient, "tcp": TcpClient}[transport]
    return cls(HOST, port, wl.PROG, wl.VERS, fastpath=fastpath)


def canonical_request(stack, seed, n, xid, client=None):
    """Call bytes for the first argument array of length ``n`` — the
    message both byte-identity checks agree on without talking."""
    from repro.rpc.client import RpcClient

    client = client or RpcClient(wl.PROG, wl.VERS)
    args = stack.args_for(wl.make_values(seed, n, 0))
    return bytes(client.build_call(xid, wl.PROC_SENDRECV, args, stack.xdr))
