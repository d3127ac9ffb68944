"""What leaving the metrics on costs a specialized call, in exact
bytecodes.

With observability on and no trace sink, a dispatch writes what it did
into one record and folds it into the registry once, under one lock
round (``SvcRegistry.dispatch_bytes``).  That fold is a fixed cost
while the call it is added to keeps getting cheaper, so it is pinned
here: the in-process n=20 specialized call — ``build_call``,
``dispatch_bytes`` with a caller (so the DRC is in it) and
``parse_reply`` — counted with metrics off and on, on CPython 3.11
(skipped elsewhere).
"""

import itertools
import sys

import pytest

from repro import obs
from repro.bench.workloads import WORKLOAD_IDL, WORKLOAD_IMPL
from repro.rpc import SvcRegistry
from repro.rpc.client import RpcClient
from repro.specialized import SpecializationPipeline
from tests.rpc.test_lone_call import count_pyops

N = 20
CALLER = ("127.0.0.1", 40000)

#: counted on CPython 3.11: metrics on add 206 bytecodes to the
#: in-process n=20 specialized call (260 before the fold's record lost
#: its initializer, a route body declared its replies' outcome and the
#: DRC fold went inline); the budget is 200 plus 5%, 200 being the
#: count with the latency histogram's fold written out in the spine
METRICS_DELTA_BUDGET = 210


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="exact bytecode counts compare within one"
                           " CPython minor version (counted on 3.11)")
def test_metrics_on_stays_inside_its_bytecode_budget():
    pipeline = SpecializationPipeline(WORKLOAD_IDL,
                                      impl_sources=[WORKLOAD_IMPL])
    stubs = pipeline.stubs

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    registry = stubs.register_XCHG_PROG_1(
        SvcRegistry(fastpath=True, drc=True), Impl())
    lens = {"arg_lens": {"vals": N}, "res_lens": {"vals": N}}
    pipeline.specialize_server("SENDRECV", fallback=registry, **lens)
    client = RpcClient(pipeline.prog_number,
                       pipeline.vers_number).enable_fastpath()
    pipeline.specialize_client("SENDRECV", **lens).install(client)
    args, xdr, xids = stubs.intarr(vals=list(range(N))), stubs.xdr_intarr, \
        itertools.count(1)

    def call():
        xid = next(xids)
        reply = registry.dispatch_bytes(
            client.build_call(xid, 1, args, xdr), CALLER)
        matched, value = client.parse_reply(reply, xid, 1, xdr)
        assert matched and value.vals[0] == 1

    def counted():
        for _ in range(30):
            call()
        counts = {count_pyops(call) for _ in range(3)}
        assert len(counts) == 1, counts
        return counts.pop()

    off = counted()
    obs.enable()
    on = counted()
    obs.disable()
    assert not obs.tracer.sinks
    delta = on - off
    assert delta <= METRICS_DELTA_BUDGET, (
        f"metrics on add {delta} bytecodes to a specialized n={N} call"
        f" > {METRICS_DELTA_BUDGET}: the dispatch fold gained work")
