"""Profile-guided online specialization (repro.specialized.online).

The contract under test: traffic profiles promote hot procedures to
compiled residual routes/codecs hot-swapped into live dispatch, every
specialized answer is byte-identical to the generic path, out-of-range
messages fall back generically (never wrong bytes), violation pressure
widens the guard or demotes, and residuals revive from the disk cache
across restarts.
"""

import itertools
import struct
import threading
import time

import pytest

from repro.rpc import SvcRegistry, UdpServer
from repro.rpc.client import RpcClient
from repro.rpc.svc_mux import MuxUdpServer
from repro.specialized import (
    OnlinePolicy,
    OnlineSpecializer,
    SpecializationPipeline,
)

IDL = """
const MAXN = 64;

struct intarr {
    int vals<MAXN>;
};

program ONL_PROG {
    version ONL_VERS {
        intarr SENDRECV(intarr) = 1;
    } = 1;
} = 0x20007777;
"""

IMPL = """
void sendrecv_impl(struct intarr *args, struct intarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i] + 1;
}
"""

PROG, VERS, PROC = 0x20007777, 1, 1
HOT_N = 8
CALLER = ("127.0.0.1", 50505)

#: fast, deterministic policy: promotion after 10 calls, review after
#: 4 violations, no cooldown (tests that need cooldown override it)
POLICY = dict(min_calls=10, window=8, stable_fraction=0.9,
              violation_threshold=4, max_sizes=2, cooldown_s=0.0)


@pytest.fixture(scope="module")
def pipeline():
    return SpecializationPipeline(IDL, impl_sources=[IMPL])


@pytest.fixture()
def stubs(pipeline):
    return pipeline.stubs


def make_registry(stubs):
    registry = SvcRegistry()

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    stubs.register_ONL_PROG_1(registry, Impl())
    return registry


def make_spec(pipeline, **overrides):
    return OnlineSpecializer(
        pipeline, policy=OnlinePolicy(**{**POLICY, **overrides}),
        enabled=True,
    )


def call_bytes(stubs, xid, n):
    client = RpcClient(PROG, VERS)
    args = stubs.intarr(vals=list(range(n)))
    return client.build_call(xid, PROC, args, stubs.xdr_intarr)


def drive(stubs, registry, xids, n, count, caller=None):
    """``count`` well-formed calls of length ``n``; returns the last
    reply."""
    reply = None
    for _ in range(count):
        reply = registry.dispatch_bytes(call_bytes(stubs, next(xids), n),
                                        caller=caller)
    return reply


def route_of(registry):
    entry = registry.route_for(PROG, VERS, PROC)
    return entry.body if entry is not None else None


class TestServerPromotion:
    def test_promotes_after_threshold(self, pipeline, stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"] - 1)
        spec.poll_once()
        assert spec.promotions == 0 and route_of(registry) is None
        drive(stubs, registry, xids, HOT_N, 1)
        spec.poll_once()
        assert spec.promotions == 1
        route = route_of(registry)
        assert route is not None and len(route.sizes) == 1
        before = route.hits
        drive(stubs, registry, xids, HOT_N, 3)
        assert route.hits == before + 3

    def test_specialized_replies_byte_identical(self, pipeline, stubs):
        registry = make_registry(stubs)
        shadow = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        assert route_of(registry) is not None
        data = call_bytes(stubs, 777, HOT_N)
        assert bytes(registry.dispatch_bytes(data)) == bytes(
            shadow.dispatch_bytes(data))

    def test_unstable_sizes_never_promote(self, pipeline, stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        for n in itertools.islice(itertools.cycle((2, 3, 5, 7)), 40):
            drive(stubs, registry, xids, n, 1)
        spec.poll_once()
        assert spec.promotions == 0 and route_of(registry) is None


class TestViolationFallback:
    def test_off_size_request_answered_generically(self, pipeline, stubs):
        registry = make_registry(stubs)
        shadow = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        route = route_of(registry)
        assert route is not None
        data = call_bytes(stubs, 888, HOT_N + 5)
        assert bytes(registry.dispatch_bytes(data)) == bytes(
            shadow.dispatch_bytes(data))
        assert route.violations == 1


class TestRespecialization:
    def test_violations_widen_the_guard(self, pipeline, stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        route = route_of(registry)
        assert route is not None and len(route.sizes) == 1
        # the workload shifts to a new stable length: every call is a
        # violation until the threshold review widens the bounds
        drive(stubs, registry, xids, 4, POLICY["violation_threshold"] * 2)
        spec.poll_once()
        assert spec.respecializations == 1
        assert spec.demotions == 0
        assert len(route.sizes) == 2
        hits = route.hits
        drive(stubs, registry, xids, 4, 2)
        assert route.hits == hits + 2


class TestDemotion:
    def test_shifting_distribution_demotes(self, pipeline, stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        assert route_of(registry) is not None
        # violations with no dominant size: nothing to widen toward
        for n in itertools.islice(itertools.cycle((1, 2, 3, 5, 6)),
                                  POLICY["violation_threshold"] * 3):
            drive(stubs, registry, xids, n, 1)
        spec.poll_once()
        assert spec.demotions == 1
        assert route_of(registry) is None
        # generic service continues, correctly
        reply = drive(stubs, registry, xids, 3, 1)
        assert reply is not None

    def test_cooldown_blocks_instant_repromotion(self, pipeline, stubs):
        now = [0.0]
        registry = make_registry(stubs)
        spec = OnlineSpecializer(
            pipeline,
            policy=OnlinePolicy(**{**POLICY, "cooldown_s": 30.0}),
            clock=lambda: now[0], enabled=True,
        )
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        for n in itertools.islice(itertools.cycle((1, 2, 3, 5, 6)),
                                  POLICY["violation_threshold"] * 3):
            drive(stubs, registry, xids, n, 1)
        spec.poll_once()
        assert spec.demotions == 1
        # hot again immediately: still inside the cooldown window
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"] * 2)
        spec.poll_once()
        assert spec.promotions == 1
        # ... but eligible again once the clock passes it
        now[0] = 31.0
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"] * 2)
        spec.poll_once()
        assert spec.promotions == 2


class TestPolicyRefusals:
    def test_unroll_cap_skips_the_build(self, pipeline, stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline, unroll_cap=4)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"] * 2)
        spec.poll_once()
        assert spec.promotions == 0
        assert spec.skips >= 1
        assert route_of(registry) is None


class TestKillSwitch:
    def test_env_zero_disables_everything(self, pipeline, stubs,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_ONLINE_SPEC", "0")
        registry = make_registry(stubs)
        spec = OnlineSpecializer(pipeline, enabled=True)
        assert not spec.enabled
        assert spec.attach_server(registry) is None
        assert registry.profiler is None
        client = RpcClient(PROG, VERS)
        assert spec.attach_client(client, "SENDRECV") is None
        assert spec.start() is spec and not spec.running

    def test_env_one_enables_over_code_default(self, pipeline,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_ONLINE_SPEC", "1")
        assert OnlineSpecializer(pipeline, enabled=False).enabled


class TestServerKnob:
    def test_udp_server_attaches_and_starts(self, pipeline, stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        try:
            with UdpServer(registry, drc=False, online_spec=spec):
                assert registry.profiler is not None
                assert spec.running
        finally:
            spec.stop()

    def test_mux_server_attaches(self, pipeline, stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        try:
            with MuxUdpServer(registry, online_spec=spec):
                assert registry.profiler is not None
                assert spec.running
        finally:
            spec.stop()


class TestConcurrentHotSwap:
    def test_swaps_mid_traffic_never_produce_wrong_bytes(self, pipeline,
                                                         stubs):
        """Dispatch hammers the registry from several threads while the
        specializer promotes and (forced violations) demotes — every
        reply must match the generic oracle for its request."""
        registry = make_registry(stubs)
        shadow = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        # mostly the hot length, with a recurring off-length so the
        # route sees violations and eventually widens — both swaps
        # (install, widen) happen while the hammer threads are inside
        # dispatch_bytes
        lengths = [HOT_N] * 19 + [3]
        requests = [call_bytes(stubs, 1000 + i, lengths[i % len(lengths)])
                    for i in range(60)]
        expected = [bytes(shadow.dispatch_bytes(data))
                    for data in requests]
        mismatches = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                for data, want in zip(requests, expected):
                    got = registry.dispatch_bytes(data)
                    if bytes(got) != want:
                        mismatches.append((data[:4], len(want),
                                           len(got or b"")))
                        return

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and not mismatches:
                spec.poll_once()
                if spec.promotions >= 1 and (spec.respecializations
                                             + spec.demotions) >= 1:
                    break
                time.sleep(0.002)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
        assert not mismatches
        assert spec.promotions >= 1


class TestDrcThroughRoute:
    def test_retransmission_replays_without_reexecution(self, pipeline,
                                                        stubs):
        registry = make_registry(stubs)
        registry.enable_drc()
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"],
              caller=CALLER)
        spec.poll_once()
        route = route_of(registry)
        assert route is not None
        data = call_bytes(stubs, 0xABC, HOT_N)
        first = registry.dispatch_bytes(data, caller=CALLER)
        invoked = registry.handlers_invoked
        again = registry.dispatch_bytes(data, caller=CALLER)
        assert bytes(again) == bytes(first)
        assert registry.handlers_invoked == invoked  # replay, not rerun


class TestClientCodec:
    def _client_loop(self, pipeline, stubs, spec, registry):
        client = RpcClient(PROG, VERS)
        codec = spec.attach_client(client, "SENDRECV")
        xids = itertools.count(1)

        def call(n):
            xid = next(xids)
            args = stubs.intarr(vals=list(range(n)))
            data = client.build_call(xid, PROC, args, stubs.xdr_intarr)
            reply = registry.dispatch_bytes(data)
            matched, value = client.parse_reply(reply, xid, PROC,
                                                stubs.xdr_intarr)
            assert matched
            return data, value

        return client, codec, call

    def test_promotes_and_stays_byte_identical(self, pipeline, stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        client, codec, call = self._client_loop(pipeline, stubs, spec,
                                                registry)
        for _ in range(POLICY["min_calls"]):
            call(HOT_N)
        spec.poll_once()
        assert spec.promotions == 1 and codec.lens == [HOT_N]
        oracle = RpcClient(PROG, VERS)
        for n in (HOT_N, 3):  # specialized and violating lengths
            args = stubs.intarr(vals=list(range(n)))
            data, value = call(n)
            # the xid the codec consumed is embedded in data
            xid = struct.unpack_from(">I", data, 0)[0]
            assert bytes(data) == bytes(
                oracle.build_call(xid, PROC, args, stubs.xdr_intarr))
            assert value.vals == [v + 1 for v in range(n)]
        assert codec.hits >= 1 and codec.violations >= 1

    def test_shifted_length_respecializes_then_demotes(self, pipeline,
                                                       stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        client, codec, call = self._client_loop(pipeline, stubs, spec,
                                                registry)
        for _ in range(POLICY["min_calls"]):
            call(HOT_N)
        spec.poll_once()
        assert codec.lens == [HOT_N]
        for _ in range(POLICY["violation_threshold"] * 3):
            call(4)
        spec.poll_once()
        assert spec.respecializations == 1
        assert codec.lens == [4, HOT_N]
        # max_sizes reached: a third stable length cannot widen further,
        # so the review demotes back to generic
        for _ in range(POLICY["violation_threshold"] * 3):
            call(2)
        spec.poll_once()
        assert spec.demotions == 1 and codec.lens == []
        data, value = call(HOT_N)  # generic service continues
        assert value.vals == [v + 1 for v in range(HOT_N)]


class TestCachePersistence:
    def test_promotion_revives_residuals_from_disk(self, tmp_path, stubs):
        cache_dir = str(tmp_path / "online-cache")
        first = SpecializationPipeline(IDL, impl_sources=[IMPL],
                                       cache_dir=cache_dir)
        registry = make_registry(first.stubs)
        spec = make_spec(first)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(first.stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        assert spec.promotions == 1
        assert first.cache.misses >= 1 and first.cache.disk_hits == 0

        # a fresh process: same IDL/impls/cache_dir, new pipeline.  The
        # promotion must skip Tempo and revive the residual from disk.
        second = SpecializationPipeline(IDL, impl_sources=[IMPL],
                                        cache_dir=cache_dir)
        registry2 = make_registry(second.stubs)
        spec2 = make_spec(second)
        spec2.attach_server(registry2)
        xids2 = itertools.count(1)
        drive(second.stubs, registry2, xids2, HOT_N, POLICY["min_calls"])
        spec2.poll_once()
        assert spec2.promotions == 1
        assert second.cache.disk_hits >= 1
        # and the revived residual still answers byte-identically
        data = call_bytes(second.stubs, 55, HOT_N)
        shadow = make_registry(second.stubs)
        assert bytes(registry2.dispatch_bytes(data)) == bytes(
            shadow.dispatch_bytes(data))


class TestObsContract:
    def test_online_metrics_are_emitted(self, pipeline, stubs):
        from repro import obs
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        prev = obs.enabled
        obs.registry.reset()
        obs.enabled = True
        try:
            drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
            spec.poll_once()
            drive(stubs, registry, xids, HOT_N, 2)       # hits
            drive(stubs, registry, xids, HOT_N + 1, 1)   # violation
        finally:
            obs.enabled = prev
        snapshot = obs.collect()
        keys = set(snapshot["counters"]) | set(snapshot["gauges"]) | set(
            snapshot["histograms"])
        for suffix in ("observed", "promotions", "hits", "violations",
                       "active", "build_s"):
            assert any(key.startswith(f"rpc.spec.online.{suffix}")
                       for key in keys), (suffix, sorted(keys))

    def test_promotion_is_verified(self, stubs):
        # Every residual the online path promotes must have passed the
        # equivalence verifier: pass counted, zero failures.  A fresh
        # pipeline forces a real build — the module fixture's memo
        # would hand back an already-verified codec silently.
        from repro import obs
        fresh = SpecializationPipeline(IDL, impl_sources=[IMPL])
        registry = make_registry(stubs)
        spec = make_spec(fresh)
        spec.attach_server(registry)
        xids = itertools.count(1)
        prev = obs.enabled
        obs.registry.reset()
        obs.enabled = True
        try:
            drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
            spec.poll_once()
        finally:
            obs.enabled = prev
        assert spec.promotions == 1
        counters = obs.collect()["counters"]
        passes = sum(v for k, v in counters.items()
                     if k.startswith("rpc.spec.verify.pass"))
        fails = sum(v for k, v in counters.items()
                    if k.startswith("rpc.spec.verify.fail"))
        assert passes > 0
        assert fails == 0
