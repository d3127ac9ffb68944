"""Profile-guided online specialization (repro.specialized.online).

The contract under test: traffic profiles promote hot procedures to
compiled residual routes/codecs hot-swapped into live dispatch, every
specialized answer is byte-identical to the generic path, out-of-range
messages fall back generically (never wrong bytes), an uncovered table
widens toward the missed size or sheds idle variants, and residuals
revive from the disk cache across restarts.  The policy's thrash-freedom
properties are in ``test_online_policy.py``.
"""

import itertools
import struct
import threading
import time

import pytest

from repro.errors import VerificationError
from repro.rpc import SvcRegistry, UdpClient, UdpServer
from repro.rpc.client import RpcClient
from repro.rpc.svc_mux import MuxUdpServer
from repro.specialized import (
    OnlinePolicy,
    OnlineSpecializer,
    SpecializationPipeline,
)
from tests.rpc import test_dispatch_spine as spine
from tests.rpc.test_dispatch_spine import (  # noqa: F401 (fixture)
    pipeline as spine_pipeline,
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
#: 4 violations in at least 8 guarded calls, no back-off (the test that
#: needs one overrides it)
POLICY = dict(min_calls=10, window=8, stable_fraction=0.9,
              violation_threshold=4, max_sizes=2, cooldown_s=0.0)
#: a window in which one sample is under the 10% a size must hold, so
#: a spread of sizes earns no variant, and 16 lengths to spread over
WIDE = 32
SPREAD = tuple(range(20, 36))


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


def drive_spread(stubs, registry, xids, count):
    """``count`` calls cycling over SPREAD: no length holds 10%."""
    for n in itertools.islice(itertools.cycle(SPREAD), count):
        drive(stubs, registry, xids, n, 1)


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
        spec = make_spec(pipeline, window=WIDE)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive_spread(stubs, registry, xids, 2 * WIDE)
        spec.poll_once()
        assert spec.promotions == 0 and route_of(registry) is None
        assert spec.builds == 0

    def test_two_hot_sizes_both_get_a_variant(self, pipeline, stubs):
        # an alternating mix never shows one 0.9-dominant size; each
        # half of it holds more than the 10% a variant needs
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        for _ in range(2):
            for n in itertools.islice(itertools.cycle((HOT_N, 4)),
                                      POLICY["min_calls"]):
                drive(stubs, registry, xids, n, 1)
            spec.poll_once()
        assert (spec.promotions, spec.respecializations) == (1, 1)
        assert len(route_of(registry).sizes) == 2


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

    def test_violation_threshold_is_the_review_cadence(self, pipeline,
                                                       stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline, violation_threshold=20)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        route = route_of(registry)
        # more than a window of misses, fewer than the threshold
        drive(stubs, registry, xids, 4, 19)
        spec.poll_once()
        assert spec.respecializations == 0 and len(route.sizes) == 1
        drive(stubs, registry, xids, 4, 1)
        spec.poll_once()
        assert spec.respecializations == 1 and len(route.sizes) == 2

    def test_a_covered_table_is_left_alone(self, pipeline, stubs):
        # 1 miss in 10: the table answers 90% of its guarded calls, so
        # no number of misses is a reason to touch it
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        route = route_of(registry)
        for _ in range(10 * POLICY["violation_threshold"]):
            drive(stubs, registry, xids, HOT_N, 9)
            drive(stubs, registry, xids, 3, 1)
            spec.poll_once()
        assert route_of(registry) is route and route.sizes == [
            len(call_bytes(stubs, 0, HOT_N))]
        assert (spec.respecializations, spec.evictions,
                spec.demotions) == (0, 0, 0)

    def test_widens_after_a_long_spread_tail(self, pipeline, stubs):
        # 40 distinct tail sizes pass through first: the reply size of
        # the length that turns hot afterwards must still be known
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        route = route_of(registry)
        for tail_n in range(10, 50):
            drive(stubs, registry, xids, HOT_N, 9)
            drive(stubs, registry, xids, tail_n, 1)
            spec.poll_once()
        drive(stubs, registry, xids, 60, POLICY["window"])
        spec.poll_once()
        assert spec.respecializations == 1 and spec.demotions == 0
        assert len(call_bytes(stubs, 0, 60)) in route.sizes
        hits = route.hits
        drive(stubs, registry, xids, 60, 2)
        assert route.hits == hits + 2


class TestGarbageIsADecline:
    """Malformed requests of a resident size are the residual's to
    refuse, not evidence about which sizes are hot."""

    def test_hot_size_garbage_flood_burns_no_review(self, pipeline, stubs):
        registry = make_registry(stubs)
        shadow = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        route = route_of(registry)
        decided = len(spec.decisions)
        flood = 4 * POLICY["window"]
        for xid in range(5000, 5000 + flood):
            # the length word promises one element more than is there
            garbage = bytearray(call_bytes(stubs, xid, HOT_N))
            struct.pack_into(">I", garbage, 40, HOT_N + 1)
            assert registry.dispatch_bytes(bytes(garbage)) == \
                shadow.dispatch_bytes(bytes(garbage))
            spec.poll_once()
        assert (route.declines, route.violations) == (flood, 0)
        assert len(spec.decisions) == decided
        assert route_of(registry) is route and len(route.sizes) == 1

    def test_spine_script_garbage_steps(self, spine_pipeline):
        # the conformance script sends hot-size garbage twice and two
        # well-formed off-table sizes (the crashing length, once past
        # the DRC, and OTHER_N)
        tier = spine.Tier("online", spine_pipeline)
        spine.run_script(tier, spine_pipeline)
        route = tier.registry.route_for(spine.PROG, spine.VERS,
                                        spine.PROC).body
        assert (route.declines, route.violations) == (2, 2)


class TestDemotion:
    def test_shifting_distribution_demotes(self, pipeline, stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline, window=WIDE)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        assert route_of(registry) is not None
        # violations with no size worth a variant: nothing to widen
        # toward, and the one resident variant answers nothing
        drive_spread(stubs, registry, xids, WIDE)
        spec.poll_once()
        assert (spec.evictions, spec.demotions) == (1, 1)
        assert route_of(registry) is None
        assert [d.action for d in spec.decisions] == [
            "promote", "evict", "demote"]
        # generic service continues, correctly, and stays generic
        drive_spread(stubs, registry, xids, 2 * WIDE)
        spec.poll_once()
        assert spec.promotions == 1 and route_of(registry) is None
        reply = drive(stubs, registry, xids, 3, 1)
        assert reply is not None

    def test_hot_again_after_a_demotion_repromotes(self, pipeline, stubs):
        # no cooldown after a demotion: min_calls of fresh evidence is
        # the only wait
        registry = make_registry(stubs)
        spec = make_spec(pipeline, window=WIDE)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"])
        spec.poll_once()
        drive_spread(stubs, registry, xids, WIDE)
        spec.poll_once()
        assert spec.demotions == 1
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"] - 1)
        spec.poll_once()
        assert spec.promotions == 1
        drive(stubs, registry, xids, HOT_N, 1)
        spec.poll_once()
        assert spec.promotions == 2 and route_of(registry) is not None


class TestPolicyRefusals:
    def test_no_length_cap_a_thousand_elements_served(self):
        # the policy has no array-length bound: the rolled residual is
        # as small at n=1000 as at n=8, so the size is built, verified
        # (the pipeline's gate is on) and served like any other
        big = SpecializationPipeline(IDL.replace("MAXN = 64", "MAXN = 1000"),
                                     impl_sources=[IMPL])
        registry = make_registry(big.stubs)
        shadow = make_registry(big.stubs)
        spec = make_spec(big)
        spec.attach_server(registry)
        xids = itertools.count(1)
        drive(big.stubs, registry, xids, 1000, POLICY["min_calls"])
        spec.poll_once()
        assert spec.promotions == 1 and spec.skips == 0
        assert big.verify_enabled()
        route = route_of(registry)
        assert route is not None and len(route.sizes) == 1
        data = call_bytes(big.stubs, 777, 1000)
        assert bytes(registry.dispatch_bytes(data)) == bytes(
            shadow.dispatch_bytes(data))
        assert route.hits == 1

    def test_cooldown_backs_off_after_a_refused_build(self, pipeline,
                                                      stubs, monkeypatch):
        def rejected(*args, **kwargs):
            raise VerificationError("refused for the test")

        monkeypatch.setattr(pipeline, "specialize_server", rejected)
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
        assert spec.skips == 1
        # still hot: inside the back-off the refusal is not re-litigated
        drive(stubs, registry, xids, HOT_N, POLICY["min_calls"] * 2)
        spec.poll_once()
        assert spec.skips == 1
        # ... but it is once the clock passes it
        now[0] = 31.0
        spec.poll_once()
        assert spec.skips == 2


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


#: the size an offline ``specialize_server(..., fallback=)`` pins
PINNED_N = 20


def size(stubs, n):
    """The request size of an ``n``-element call: a server table key."""
    return len(call_bytes(stubs, 0, n))


def pin(pipeline, registry, n=PINNED_N):
    return pipeline.specialize_server(
        "SENDRECV", arg_lens={"vals": n}, res_lens={"vals": n},
        fallback=registry)


class TestOfflinePinSharesTheTable:
    """An offline residual and the online specializer fill one residual
    route per (registry, procedure): the online side adds and drops
    variants around the pinned one, never over it.  Its keys are
    request sizes: ``size(n)`` for an ``n``-element call."""

    @pytest.mark.parametrize("pin_first", [True, False])
    def test_online_widens_around_the_pin_and_never_drops_it(
            self, pipeline, stubs, pin_first):
        registry, shadow = make_registry(stubs), make_registry(stubs)
        spec = make_spec(pipeline, window=WIDE)
        xids = itertools.count(1)
        if pin_first:
            pin(pipeline, registry)
            spec.attach_server(registry)
        else:
            # the specializer has seen the procedure (an empty table,
            # not installed) before the pin lands
            spec.attach_server(registry)
            drive(stubs, registry, xids, HOT_N, 1)
            spec.poll_once()
            pin(pipeline, registry)
        hot, pinned = size(stubs, HOT_N), size(stubs, PINNED_N)
        table = route_of(registry)
        assert table.sizes == [pinned] and table.pinned == {pinned}

        def served_by_the_pin(count):
            before = table.variants[pinned].hits
            for _ in range(count):
                data = call_bytes(stubs, next(xids), PINNED_N)
                assert bytes(registry.dispatch_bytes(data)) == bytes(
                    shadow.dispatch_bytes(data))
            return table.variants[pinned].hits == before + count

        drive(stubs, registry, xids, HOT_N, WIDE)
        spec.poll_once()
        route = registry.route_for(PROG, VERS, PROC)
        assert route.body is table and route.tier == "specialized"
        assert table.sizes == [hot, pinned]
        assert served_by_the_pin(5)
        [explained] = spec.explain()
        assert explained["pinned"] == [pinned]
        assert list(explained["variants"]) == [hot, pinned]
        # full (max_sizes 2): a newcomer displaces the unpinned variant,
        # though the pin answered nothing in the period either
        drive(stubs, registry, xids, 4, WIDE)
        spec.poll_once()
        assert table.sizes == [size(stubs, 4), pinned]
        # reviews with no size worth a variant and no traffic for the
        # pin: the idle unpinned variant goes, the pin stays
        for _ in range(3):
            drive_spread(stubs, registry, xids, WIDE)
            spec.poll_once()
        assert table.sizes == [pinned] and spec.demotions == 0
        route = registry.route_for(PROG, VERS, PROC)
        assert route.body is table and route.tier == "specialized"
        assert served_by_the_pin(5)

    def test_executions_counted_once_through_the_handle(self, pipeline,
                                                        stubs):
        registry = make_registry(stubs)
        registry.enable_drc()
        handle = pin(pipeline, registry)
        spec = make_spec(pipeline)
        spec.attach_server(handle)
        xids = itertools.count(1)
        for _ in range(3):
            for n in (HOT_N, PINNED_N, HOT_N, HOT_N, 3):
                drive(stubs, handle, xids, n, 1, caller=CALLER)
            spec.poll_once()
        assert spec.builds == 1 and route_of(registry).sizes == [
            size(stubs, HOT_N), size(stubs, PINNED_N)]
        drive(stubs, handle, xids, HOT_N, 2, caller=CALLER)
        assert registry.handlers_invoked == registry.drc.stores == 17
        assert "handlers_invoked" not in vars(handle)

    def test_executions_counted_once_behind_a_server(self, pipeline, stubs):
        registry = make_registry(stubs)
        handle = pin(pipeline, registry)
        spec = make_spec(pipeline)
        xdr = stubs.xdr_intarr
        try:
            with UdpServer(handle, drc=True, online_spec=spec) as server, \
                    UdpClient("127.0.0.1", server.port, PROG, VERS,
                              timeout=5.0) as client:
                def call(n):
                    args = stubs.intarr(vals=list(range(n)))
                    assert client.call(PROC, args, xdr, xdr).vals == [
                        v + 1 for v in range(n)]

                deadline = time.monotonic() + 10.0
                while not spec.builds and time.monotonic() < deadline:
                    for n in (HOT_N, PINNED_N, HOT_N, HOT_N):
                        call(n)
                assert spec.builds == 1
                for n in (HOT_N, PINNED_N, 3):
                    call(n)
        finally:
            spec.stop()
        assert registry.handlers_invoked == registry.drc.stores
        assert "handlers_invoked" not in vars(handle)


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
        specializer promotes and (forced violations) widens — every
        reply must match the generic oracle for its request."""
        registry = make_registry(stubs)
        shadow = make_registry(stubs)
        spec = make_spec(pipeline)
        spec.attach_server(registry)
        # mostly the hot length, with an off-length frequent enough
        # (1 in 4) that the table is uncovered and widens — both swaps
        # (install, widen) happen while the hammer threads are inside
        # dispatch_bytes
        lengths = [HOT_N] * 3 + [3]
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
                if spec.promotions >= 1 and spec.respecializations >= 1:
                    break
                time.sleep(0.002)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
        assert not mismatches
        assert spec.promotions >= 1 and spec.respecializations >= 1


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
        spec = make_spec(pipeline, window=WIDE)
        client, codec, call = self._client_loop(pipeline, stubs, spec,
                                                registry)
        for _ in range(POLICY["min_calls"]):
            call(HOT_N)
        spec.poll_once()
        assert codec.lens == [HOT_N]
        for _ in range(WIDE):
            call(4)
        spec.poll_once()
        assert spec.respecializations == 1
        assert codec.lens == [4, HOT_N]
        # max_sizes reached: a third stable length displaces a variant
        # that answered nothing meanwhile
        for _ in range(WIDE):
            call(2)
        spec.poll_once()
        assert (spec.evictions, spec.respecializations) == (1, 2)
        assert len(codec.lens) == 2 and 2 in codec.lens
        # the distribution spreads: nothing to widen toward, both idle
        # variants go, and the last one going is the demotion
        for n in itertools.islice(itertools.cycle(SPREAD), WIDE):
            call(n)
        spec.poll_once()
        assert spec.demotions == 1 and codec.lens == []
        data, value = call(HOT_N)  # generic service continues
        assert value.vals == [v + 1 for v in range(HOT_N)]

    def test_a_hit_profiles_nothing(self, pipeline, stubs):
        registry = make_registry(stubs)
        spec = make_spec(pipeline)
        client, codec, call = self._client_loop(pipeline, stubs, spec,
                                                registry)
        for _ in range(POLICY["min_calls"]):
            call(HOT_N)
        spec.poll_once()
        assert codec.lens == [HOT_N]
        sampled = codec.profile.calls
        for _ in range(5):
            call(HOT_N)
        assert codec.profile.calls == sampled and codec.hits == 5
        call(3)
        assert codec.profile.calls == sampled + 1
        assert codec.profile.recent[-1][0] == 3


class TestInstalledCodecSharesTheTable:
    """``ClientSpecialization.install`` and the online specializer fill
    one codec table per (client, procedure): attaching adopts an
    installed codec, and the online side widens around its pinned
    argument count, never over it.  Its keys are element counts."""

    @pytest.mark.parametrize("install_first", [True, False])
    def test_online_widens_around_the_pin_and_never_drops_it(
            self, pipeline, stubs, install_first):
        registry = make_registry(stubs)
        spec = make_spec(pipeline, window=WIDE)
        client, oracle = RpcClient(PROG, VERS), RpcClient(PROG, VERS)
        installed = pipeline.specialize_client(
            "SENDRECV", arg_lens={"vals": PINNED_N},
            res_lens={"vals": PINNED_N})
        if install_first:
            installed.install(client)
            codec = spec.attach_client(client, "SENDRECV")
        else:
            codec = spec.attach_client(client, "SENDRECV")
            installed.install(client)
        assert codec.lens == [PINNED_N] and codec.pinned == {PINNED_N}
        xids = itertools.count(1)
        xdr = stubs.xdr_intarr

        def call(n):
            xid = next(xids)
            args = stubs.intarr(vals=list(range(n)))
            data = client.build_call(xid, PROC, args, xdr)
            assert bytes(data) == bytes(oracle.build_call(xid, PROC, args,
                                                          xdr))
            matched, value = client.parse_reply(
                registry.dispatch_bytes(data), xid, PROC, xdr)
            assert matched and value.vals == [v + 1 for v in range(n)]

        def served_by_the_pin(count):
            before = codec.variants[PINNED_N].hits
            for _ in range(count):
                call(PINNED_N)
            return codec.variants[PINNED_N].hits == before + count

        assert served_by_the_pin(5)
        assert codec.violations == 0 and codec.profile.calls == 0
        for _ in range(WIDE):
            call(HOT_N)
        spec.poll_once()
        assert codec.lens == [HOT_N, PINNED_N]
        assert (spec.promotions, spec.respecializations) == (0, 1)
        assert served_by_the_pin(5)
        [explained] = spec.explain()
        assert explained["side"] == "client"
        assert explained["pinned"] == [PINNED_N]
        assert list(explained["variants"]) == [HOT_N, PINNED_N]
        # full (max_sizes 2): a newcomer displaces the unpinned variant,
        # though the pin answered nothing in the period either
        for _ in range(WIDE):
            call(4)
        spec.poll_once()
        assert codec.lens == [4, PINNED_N]
        # reviews with no count worth a variant and no traffic for the
        # pin: the idle unpinned variant goes, the pin stays
        for _ in range(3):
            for n in itertools.islice(itertools.cycle(SPREAD), WIDE):
                call(n)
            spec.poll_once()
        assert codec.lens == [PINNED_N] and spec.demotions == 0
        assert served_by_the_pin(5)


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
        for suffix in ("observed", "promotions", "active", "build_s"):
            assert any(key.startswith(f"rpc.spec.online.{suffix}")
                       for key in keys), (suffix, sorted(keys))
        # the promoted table is the residual route: its hits and guard
        # misses are the route's, as an offline pin's are
        counters = snapshot["counters"]
        assert counters["rpc.server.specialized_hits"] == 2
        assert counters["rpc.server.specialized_fallbacks"] == 1

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
