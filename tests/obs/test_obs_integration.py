"""End-to-end: a lossy loopback run seen through metrics and traces.

The acceptance criterion of the observability layer: drive the same
seeded 20%-drop/10%-duplicate UDP workload the fault tests use, with
instrumentation on, and check that the instruments tell the true
story — retransmissions observed, DRC hits observed, client lifetime
counters equal to the registry's, and the xids on the client's trace
spans matching the xids the server's spans saw on the wire.
"""

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MemorySink, Tracer
from repro.rpc import (
    FaultPlan,
    MuxUdpClient,
    SvcRegistry,
    UdpClient,
    UdpServer,
)
from repro.xdr import xdr_array, xdr_int

PROG, VERS = 0x20008888, 1
CALLS = 60


def xdr_iarr(xdrs, value):
    return xdr_array(xdrs, value, 4096, xdr_int)


def run_lossy_calls(client_cls, calls=CALLS, drop=0.20, duplicate=0.10):
    """Seeded faulty loopback with metrics + an in-memory trace."""
    sink = MemorySink()
    obs.tracer.add_sink(sink)
    obs.enabled = True
    registry = SvcRegistry(fastpath=True)
    registry.register(
        PROG, VERS, 1, lambda a: [x + 1 for x in a], xdr_iarr, xdr_iarr
    )
    client_plan = FaultPlan(seed=1001, drop=drop, duplicate=duplicate)
    server_plan = FaultPlan(seed=2002, drop=drop, duplicate=duplicate)
    try:
        with UdpServer(registry, fastpath=True, drc=True,
                       fault_plan=server_plan) as server:
            with client_cls("127.0.0.1", server.port, PROG, VERS,
                            timeout=30.0, wait=0.005, max_wait=0.25,
                            jitter=0.0, fastpath=True,
                            fault_plan=client_plan) as transport:
                for value in range(calls):
                    reply = transport.call(1, [value], xdr_iarr, xdr_iarr)
                    assert reply == [value + 1]
                stats = {
                    "calls_completed": transport.calls_completed,
                    "retransmissions": transport.retransmissions,
                    "stale_replies": transport.stale_replies,
                }
    finally:
        obs.enabled = False
    return registry, stats, sink.records, obs.collect()


def lossy_runs():
    """One seeded lossy run per client name, each against fresh
    instruments: one engine, so the instruments tell one story
    whichever class made the calls."""
    for client_cls in (UdpClient, MuxUdpClient):
        obs.registry, obs.tracer = MetricsRegistry(), Tracer()
        yield run_lossy_calls(client_cls)


class TestLossyRunThroughTheInstruments:
    def test_metrics_tell_the_fault_story(self):
        for registry, stats, _records, snapshot in lossy_runs():
            counters = snapshot["counters"]
            retrans = counters["rpc.client.retransmissions{transport=udp}"]
            assert retrans > 0
            assert counters["rpc.drc.hits"] > 0
            assert counters["faults.injected{kind=drop}"] > 0
            # the double-count fix: attempts are first sends plus
            # retransmissions, aggregated once per call at call end
            assert (counters["rpc.client.attempts{transport=udp}"]
                    == CALLS + retrans)
            assert (counters["rpc.client.calls{tier=fastpath,transport=udp}"]
                    == CALLS)
            # client lifetime counters and the registry agree exactly
            assert stats["calls_completed"] == CALLS
            assert stats["retransmissions"] == retrans
            assert (counters.get("rpc.client.stale_replies{transport=udp}", 0)
                    == stats["stale_replies"])
            # server side: every handler run was a DRC miss + store; every
            # duplicate beyond the first sighting replayed from the cache
            drc = registry.drc.summary()
            assert counters["rpc.drc.hits"] == drc["hits"]
            assert counters["rpc.drc.stores"] == drc["stores"] == CALLS
            assert (counters["rpc.server.replies{outcome=drc_replay}"]
                    == drc["hits"])
            assert (counters["rpc.server.replies{outcome=success}"]
                    == CALLS)
            hist = snapshot["histograms"][
                "rpc.client.call_latency_s{transport=udp}"]
            assert hist["count"] == CALLS

    def test_trace_span_xids_match_the_wire(self):
        for _registry, _stats, records, _snapshot in lossy_runs():
            client_roots = [r for r in records if r["name"] == "client.call"]
            server_roots = [r for r in records
                            if r["name"] == "server.dispatch"]
            assert len(client_roots) == CALLS
            # every call completed, and each root span carries its xid
            assert all(r["outcome"] == "ok" for r in client_roots)
            client_xids = {r["xid"] for r in client_roots}
            server_xids = {r["xid"] for r in server_roots}
            assert len(client_xids) == CALLS  # unique xid per call
            # the server saw exactly the xids the client sent (retransmit
            # until answered means none are lost for good)
            assert client_xids == server_xids
            # with duplication on the wire the server dispatched more
            # messages than there were calls
            assert len(server_roots) >= CALLS
            # spans nest: every non-root span points into its own trace
            roots = {r["span"] for r in records if r["parent"] is None}
            for record in records:
                assert record["trace"] in roots
                if record["parent"] is not None:
                    assert record["trace"] != record["span"]

    def test_retransmitted_call_has_multiple_send_spans(self):
        for _registry, _stats, records, snapshot in lossy_runs():
            sends_by_trace = {}
            for record in records:
                if record["name"] == "client.send":
                    sends_by_trace.setdefault(record["trace"], []).append(
                        record["attempt"]
                    )
            retransmitted = [attempts for attempts in sends_by_trace.values()
                             if len(attempts) > 1]
            assert retransmitted  # at 20% loss some call resent
            for attempts in retransmitted:
                assert attempts == sorted(attempts)
            total_sends = sum(len(a) for a in sends_by_trace.values())
            counters = snapshot["counters"]
            assert total_sends == counters[
                "rpc.client.attempts{transport=udp}"]


class TestMetricsOnWithoutATraceSink:
    def test_mux_tcp_call_resolves(self):
        """``obs.span`` returns None with metrics on and no sink attached;
        ``MuxTcpClient._flush_sends`` once called ``.end()`` on it, which
        killed the demux thread and left the call unresolved."""
        from repro.rpc import MuxTcpClient, MuxTcpServer
        from repro.xdr import xdr_u_long

        registry = SvcRegistry()
        registry.register(PROG, VERS, 1, lambda v: v + 1, xdr_u_long,
                          xdr_u_long)
        obs.enable()  # metrics only
        try:
            with MuxTcpServer(registry) as server:
                client = MuxTcpClient("127.0.0.1", server.port, PROG, VERS,
                                      timeout=5.0)
                try:
                    call = client.call_async(1, 41, xdr_args=xdr_u_long,
                                             xdr_res=xdr_u_long)
                    assert call.result(5.0) == 42
                finally:
                    client.close()
        finally:
            obs.disable()
