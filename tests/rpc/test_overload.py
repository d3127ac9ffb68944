"""End-to-end overload control (`repro.rpc.overload`): deadline
propagation + doomed-work drops, retry-budget accounting (property
tested), the CoDel queue law, hedged requests racing two live
replicas under loss with zero duplicate executions, the shed/breaker
discipline, and the fault plan's timed spike/partition phases.
"""

import queue
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    RpcDeniedError,
    RpcRetryBudgetExhausted,
    RpcTimeoutError,
)
from repro.rpc import (
    CodelQueue,
    Deadline,
    FailoverClient,
    FaultPlan,
    FaultySocket,
    HedgeTrigger,
    RetryBudget,
    SvcRegistry,
    UdpClient,
    UdpServer,
    make_deadline_cred,
    propagation_enabled,
    remaining_from_cred,
    stamp_deadline,
)
from repro.rpc.client import RpcClient
from repro.rpc.message import decode_call_header
from repro.rpc.overload import DEADLINE_FLAVOR
from repro.xdr import XdrMemStream, XdrOp, xdr_u_long

PROG, VERS = 0x20009999, 1


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- deadline propagation ------------------------------------------------


class TestDeadlineCarrier:
    def test_cred_round_trips_remaining_budget(self):
        clock = FakeClock()
        deadline = Deadline(0.25, clock=clock)
        cred = make_deadline_cred(deadline)
        assert cred.flavor == DEADLINE_FLAVOR
        remaining = remaining_from_cred(cred)
        assert remaining == pytest.approx(0.25, abs=1e-6)

    def test_expired_deadline_clamps_to_zero(self):
        clock = FakeClock()
        deadline = Deadline(0.1, clock=clock)
        clock.advance(5.0)
        assert remaining_from_cred(make_deadline_cred(deadline)) == 0.0

    def test_null_and_foreign_creds_are_not_carriers(self):
        from repro.rpc.auth import NULL_AUTH, OpaqueAuth

        assert remaining_from_cred(None) is None
        assert remaining_from_cred(NULL_AUTH) is None
        assert remaining_from_cred(
            OpaqueAuth(DEADLINE_FLAVOR, b"short")) is None

    def test_build_call_deadline_parses_generically(self):
        client = RpcClient(PROG, VERS)
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        request = client.build_call_deadline(7, 1, 42, xdr_u_long,
                                             deadline)
        stream = XdrMemStream(request, XdrOp.DECODE)
        header = decode_call_header(stream)
        assert header.xid == 7 and header.proc == 1
        assert remaining_from_cred(header.cred) == pytest.approx(
            0.5, abs=1e-5)
        assert xdr_u_long(stream, None) == 42

    def test_stamp_refreshes_a_shrunken_budget_in_place(self):
        client = RpcClient(PROG, VERS)
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        request = client.build_call_deadline(7, 1, 42, xdr_u_long,
                                             deadline)
        clock.advance(0.3)
        assert stamp_deadline(request, deadline)
        header = decode_call_header(XdrMemStream(request, XdrOp.DECODE))
        assert remaining_from_cred(header.cred) == pytest.approx(
            0.2, abs=1e-5)

    def test_stamp_refuses_unpropagated_requests(self):
        client = RpcClient(PROG, VERS)
        request = bytearray(client.build_call(7, 1, 42, xdr_u_long))
        assert not stamp_deadline(request, Deadline(0.5))

    def test_wire_identical_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE_PROPAGATION", raising=False)
        assert not propagation_enabled()
        plain = RpcClient(PROG, VERS)
        explicit_off = RpcClient(PROG, VERS, propagate_deadline=False)
        assert (plain.build_call(9, 1, 42, xdr_u_long)
                == explicit_off.build_call(9, 1, 42, xdr_u_long))

    def test_env_knob_enables_propagation(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_PROPAGATION", "1")
        assert RpcClient(PROG, VERS).propagate_deadline
        assert not RpcClient(
            PROG, VERS, propagate_deadline=False).propagate_deadline


class TestDoomedWorkDrops:
    def make_registry(self):
        calls = []
        registry = SvcRegistry()
        registry.register(PROG, VERS, 1,
                          lambda v: calls.append(v) or v + 1,
                          xdr_args=xdr_u_long, xdr_res=xdr_u_long)
        return registry, calls

    def request(self, budget_s, clock=None):
        client = RpcClient(PROG, VERS)
        deadline = Deadline(budget_s, clock=clock or time.monotonic)
        return client.build_call_deadline(11, 1, 5, xdr_u_long, deadline)

    def test_expired_budget_is_dropped_before_dispatch(self):
        registry, calls = self.make_registry()
        # Build with an already-burned deadline so the cred carries 0.
        clock = FakeClock()
        deadline = Deadline(0.2, clock=clock)
        clock.advance(1.0)
        doomed = RpcClient(PROG, VERS).build_call_deadline(
            11, 1, 5, xdr_u_long, deadline)
        assert registry.dispatch_bytes(bytes(doomed)) is None
        assert registry.doomed_dropped == 1
        assert calls == []

    def test_live_budget_is_dispatched(self):
        registry, calls = self.make_registry()
        reply = registry.dispatch_bytes(bytes(self.request(5.0)))
        assert reply is not None
        assert calls == [5]
        assert registry.doomed_dropped == 0

    def test_queue_wait_burns_the_budget(self):
        # The request was fine on arrival but sat queued past its
        # budget: received_at makes the server drop it at dispatch.
        registry, calls = self.make_registry()
        request = bytes(self.request(0.05))
        stale = time.monotonic() - 1.0
        assert registry.dispatch_bytes(request, received_at=stale) is None
        assert registry.doomed_dropped == 1
        assert calls == []

    def test_unpropagated_requests_are_never_doomed(self):
        registry, calls = self.make_registry()
        request = RpcClient(PROG, VERS).build_call(11, 1, 5, xdr_u_long)
        stale = time.monotonic() - 10.0
        assert registry.dispatch_bytes(request,
                                       received_at=stale) is not None
        assert calls == [5]

    def test_propagated_call_round_trips_over_udp(self):
        registry, calls = self.make_registry()
        with UdpServer(registry) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           timeout=2.0, propagate_deadline=True) as client:
                value = client.call(1, 5, xdr_args=xdr_u_long,
                                    xdr_res=xdr_u_long, deadline=2.0)
        assert value == 6
        assert calls == [5]


# -- retry budgets -------------------------------------------------------


class TestRetryBudget:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.sampled_from(["call", "retry", "tick"]), max_size=120),
        ratio=st.floats(0.05, 1.0),
        burst=st.floats(1.0, 20.0),
        min_rate=st.floats(0.0, 2.0),
    )
    def test_accounting_invariants(self, ops, ratio, burst, min_rate):
        clock = FakeClock()
        budget = RetryBudget(ratio, burst=burst, min_rate=min_rate,
                             clock=clock)
        started = clock.now
        granted = 0
        for op in ops:
            if op == "call":
                budget.note_call()
            elif op == "retry":
                granted += budget.try_retry()
            else:
                clock.advance(0.25)
            # tokens never negative, never above burst
            assert 0.0 <= budget.tokens <= budget.burst + 1e-9
        elapsed = clock.now - started
        # Refill-rate bound: everything granted was paid for by the
        # initial burst, per-call deposits, or the time drip.
        ceiling = burst + ratio * budget.calls + min_rate * elapsed
        assert granted <= ceiling + 1e-6
        assert budget.granted == granted
        assert budget.granted + budget.denied == ops.count("retry")

    def test_denial_after_burst_then_drip_recovers(self):
        clock = FakeClock()
        budget = RetryBudget(0.1, burst=2.0, min_rate=1.0, clock=clock)
        assert budget.try_retry() and budget.try_retry()
        assert not budget.try_retry()
        clock.advance(1.5)
        assert budget.try_retry()

    def test_udp_client_fails_typed_when_budget_dry(self):
        # A server that never answers + an empty budget: the client
        # must fail RpcRetryBudgetExhausted instead of retransmitting.
        registry = SvcRegistry()  # no programs: requests are answered,
        # so use a fault plan that drops every reply instead.
        registry.register(PROG, VERS, 1, lambda v: v,
                          xdr_args=xdr_u_long, xdr_res=xdr_u_long)
        plan = FaultPlan(seed=1, drop=1.0)
        budget = RetryBudget(0.01, burst=1.0, min_rate=0.0)
        budget.tokens = 0.0
        with UdpServer(registry, fault_plan=plan) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           timeout=2.0, wait=0.02, jitter=0.0,
                           retry_budget=budget) as client:
                with pytest.raises(RpcRetryBudgetExhausted):
                    client.call(1, 5, xdr_args=xdr_u_long,
                                xdr_res=xdr_u_long)
        assert budget.denied >= 1

    def test_udp_client_with_tokens_still_retransmits(self):
        registry = SvcRegistry()
        registry.enable_drc()
        registry.register(PROG, VERS, 1, lambda v: v + 1,
                          xdr_args=xdr_u_long, xdr_res=xdr_u_long)
        plan = FaultPlan(seed=3, drop=1.0, max_faults=1)  # lose reply 1
        budget = RetryBudget(0.5, burst=5.0)
        with UdpServer(registry, fault_plan=plan) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           timeout=2.0, wait=0.05, jitter=0.0,
                           retry_budget=budget) as client:
                assert client.call(1, 5, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long) == 6
        assert budget.granted >= 1


# -- CoDel queue ---------------------------------------------------------


class TestCodelQueue:
    def make_queue(self, policy="codel", target_s=0.005,
                   interval_s=0.1, maxsize=8):
        clock = FakeClock()
        q = CodelQueue(maxsize, target_s=target_s, interval_s=interval_s,
                       policy=policy, clock=clock)
        return q, clock

    def test_full_raises_like_stdlib(self):
        q, _clock = self.make_queue(maxsize=2)
        q.put_nowait("a")
        q.put_nowait("b")
        with pytest.raises(queue.Full):
            q.put_nowait("c")

    def test_empty_pop_raises(self):
        q, _clock = self.make_queue()
        with pytest.raises(queue.Empty):
            q.pop(timeout=0.0)

    def test_under_target_never_sheds(self):
        q, clock = self.make_queue()
        for i in range(5):
            q.put_nowait(i)
            clock.advance(0.001)  # sojourn < target
            item, sojourn, shed = q.pop(timeout=0)
            assert item == i and not shed

    def test_codel_law_arms_then_sheds_after_interval(self):
        q, clock = self.make_queue(target_s=0.005, interval_s=0.1)
        # First over-target sojourn only arms the controller.
        q.put_nowait("a")
        clock.advance(0.05)
        _item, sojourn, shed = q.pop(timeout=0)
        assert sojourn >= 0.005 and not shed
        # Still over target within the grace interval: no shed yet.
        q.put_nowait("b")
        clock.advance(0.05)
        _item, _sojourn, shed = q.pop(timeout=0)
        assert not shed
        # Interval lapsed and sojourn still high: shedding starts.
        q.put_nowait("c")
        clock.advance(0.06)
        _item, _sojourn, shed = q.pop(timeout=0)
        assert shed
        assert q.sojourn_sheds == 1
        # Recovery: sojourn back under target resets the controller.
        q.put_nowait("d")
        _item, _sojourn, shed = q.pop(timeout=0)
        assert not shed
        q.put_nowait("e")
        clock.advance(0.05)
        _item, _sojourn, shed = q.pop(timeout=0)
        assert not shed  # armed again, not shedding

    def test_fifo_policy_never_sheds(self):
        q, clock = self.make_queue(policy="fifo")
        for i in range(10):
            q.put_nowait(i)
            clock.advance(10.0)
            _item, _sojourn, shed = q.pop(timeout=0)
            assert not shed

    def test_codel_lifo_flips_order_only_when_overloaded(self):
        q, clock = self.make_queue(policy="codel-lifo",
                                   target_s=0.005, interval_s=0.1)
        q.put_nowait("a")
        q.put_nowait("b")
        assert q.pop(timeout=0)[0] == "a"  # calm: FIFO
        q.pop(timeout=0)
        # Push the controller into its above-target state.
        q.put_nowait("c")
        clock.advance(0.05)
        q.pop(timeout=0)
        q.put_nowait("d")
        q.put_nowait("e")
        assert q.pop(timeout=0)[0] == "e"  # overloaded: LIFO

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            CodelQueue(8, policy="wfq")


# -- hedged requests -----------------------------------------------------


def make_replica(tag, handler_sleep=0.0, fault_plan=None):
    invoked = []
    registry = SvcRegistry()
    registry.enable_drc(capacity=4096)

    def handler(v):
        invoked.append(v)
        if handler_sleep:
            time.sleep(handler_sleep)
        return v + tag

    registry.register(PROG, VERS, 1, handler,
                      xdr_args=xdr_u_long, xdr_res=xdr_u_long)
    server = UdpServer(registry, fault_plan=fault_plan)
    server.start()
    return server, registry, invoked


class TestHedging:
    def test_trigger_warms_up_then_tracks_quantile(self):
        trigger = HedgeTrigger(quantile=0.5, min_samples=4,
                               min_delay_s=0.001)
        assert trigger.delay() is None
        for latency in (0.010, 0.012, 0.014, 0.016):
            trigger.observe(latency)
        assert 0.010 <= trigger.delay() <= 0.016

    def test_hedge_races_a_slow_primary_and_wins(self):
        slow, _slow_reg, slow_calls = make_replica(
            100, handler_sleep=0.25)
        fast, _fast_reg, fast_calls = make_replica(100)
        trigger = HedgeTrigger(min_samples=1, min_delay_s=0.005)
        for _ in range(16):
            trigger.observe(0.005)
        client = FailoverClient(
            [("127.0.0.1", slow.port), ("127.0.0.1", fast.port)],
            PROG, VERS, transport="mux-udp", hedge_trigger=trigger,
            timeout=3.0, wait=0.5, jitter=0.0,
        )
        try:
            for i in range(4):
                assert client.call(
                    1, i, xdr_args=xdr_u_long, xdr_res=xdr_u_long,
                    deadline=3.0) == i + 100
            assert client.hedges >= 1
            assert client.hedge_wins >= 1
            assert fast_calls  # the hedge actually reached replica 2
        finally:
            client.close()
            slow.stop()
            fast.stop()

    def test_no_duplicate_executions_under_loss_and_hedging(self):
        """The ISSUE's capstone invariant: with 20% reply loss on both
        replicas and hedging on, handler invocations == DRC stores on
        each replica — retransmits and hedges never re-execute an
        xid."""
        replicas = [
            make_replica(0, handler_sleep=0.01,
                         fault_plan=FaultPlan(seed=11, drop=0.2))
            for _ in range(2)
        ]
        trigger = HedgeTrigger(min_samples=1, min_delay_s=0.02)
        for _ in range(16):
            trigger.observe(0.02)
        client = FailoverClient(
            [("127.0.0.1", server.port) for server, _r, _i in replicas],
            PROG, VERS, transport="mux-udp", hedge_trigger=trigger,
            timeout=3.0, wait=0.1, jitter=0.0,
        )
        completed = 0
        try:
            for i in range(40):
                try:
                    assert client.call(
                        1, i, xdr_args=xdr_u_long, xdr_res=xdr_u_long,
                        deadline=3.0) == i
                    completed += 1
                except (RpcTimeoutError, RpcDeniedError):
                    pass  # loss may burn a call; dedup still must hold
        finally:
            client.close()
            # Let in-flight hedge losers resolve before reading counts.
            time.sleep(0.5)
            for server, _registry, _invoked in replicas:
                server.stop()
        assert completed >= 30
        for _server, registry, invoked in replicas:
            assert registry.drc.evictions == 0
            assert len(invoked) == registry.drc.stores, (
                f"duplicate execution: {len(invoked)} handler runs vs"
                f" {registry.drc.stores} DRC stores"
            )


# -- shed / breaker discipline -------------------------------------------


class TestBreakerDiscipline:
    def test_sheds_do_not_open_the_breaker(self):
        # A draining server answers every call SYSTEM_ERR (a shed).
        # The endpoint is alive: breakers must stay closed.
        registry = SvcRegistry()
        registry.enable_drc()
        registry.register(PROG, VERS, 1, lambda v: v,
                          xdr_args=xdr_u_long, xdr_res=xdr_u_long)
        registry.begin_drain()
        with UdpServer(registry) as server:
            client = FailoverClient(
                [("127.0.0.1", server.port)], PROG, VERS,
                transport="udp", breaker_threshold=2,
                timeout=1.0, wait=0.05, jitter=0.0,
            )
            try:
                for _ in range(5):
                    with pytest.raises(RpcDeniedError):
                        client.call(1, 5, xdr_args=xdr_u_long,
                                    xdr_res=xdr_u_long)
                assert client.breakers[0].allow()
                assert client.breakers[0].state == "closed"
            finally:
                client.close()

    def test_budget_exhaustion_does_not_open_the_breaker(self):
        registry = SvcRegistry()
        registry.register(PROG, VERS, 1, lambda v: v,
                          xdr_args=xdr_u_long, xdr_res=xdr_u_long)
        plan = FaultPlan(seed=5, drop=1.0)  # black-hole every reply
        with UdpServer(registry, fault_plan=plan) as server:
            # breaker_threshold=1: any failure charged to the breaker
            # would open it — so a closed breaker after the call proves
            # budget denials charge nothing.
            client = FailoverClient(
                [("127.0.0.1", server.port)], PROG, VERS,
                transport="udp", breaker_threshold=1,
                retry_budget_ratio=0.01, retry_budget_burst=1.0,
                retry_budget_min_rate=0.0,
                timeout=1.5, wait=0.02, jitter=0.0,
            )
            try:
                with pytest.raises(RpcRetryBudgetExhausted):
                    client.call(1, 5, xdr_args=xdr_u_long,
                                xdr_res=xdr_u_long)
                assert client.breakers[0].state == "closed"
                assert client.breakers[0].allow()
            finally:
                client.close()


# -- fault plan: timed phases --------------------------------------------


class _SinkSocket:
    """A sendto sink recording delivered payloads."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append(bytes(data))
        return len(data)

    def close(self):
        pass


class TestTimedFaultPhases:
    def test_partition_drops_every_send_without_burning_budget(self):
        plan = FaultPlan(seed=2, max_faults=0)  # budget exhausted
        sink = _SinkSocket()
        sock = FaultySocket(sink, plan, stream=False)
        plan.begin_partition()
        for i in range(5):
            sock.sendto(b"x" * 8, ("h", 1))
        assert sink.sent == []
        assert plan.injected["partition"] == 5
        assert plan.injected["drop"] == 0
        assert plan.total_injected == 0  # phases are unbudgeted
        plan.end_partition()
        sock.sendto(b"x" * 8, ("h", 1))
        assert len(sink.sent) == 1

    def test_partition_duration_expires(self):
        plan = FaultPlan(seed=2)
        plan.begin_partition(duration_s=0.0)
        time.sleep(0.001)
        assert not plan.partition_active()

    def test_spike_delays_and_expires(self):
        plan = FaultPlan(seed=2)
        sink = _SinkSocket()
        sock = FaultySocket(sink, plan, stream=False)
        plan.begin_spike(0.02)
        started = time.monotonic()
        sock.sendto(b"x" * 8, ("h", 1))
        assert time.monotonic() - started >= 0.02
        assert plan.injected["spike"] == 1
        assert len(sink.sent) == 1  # delayed, not dropped
        plan.end_spike()
        assert plan.spike_delay() is None
        plan.begin_spike(0.02, duration_s=0.0)
        time.sleep(0.001)
        assert plan.spike_delay() is None

    def test_phases_preserve_the_seeded_fault_sequence(self):
        """A partition window must not shift which later datagrams the
        probabilistic schedule drops: decide() runs for every send."""

        def drop_pattern(partition_window):
            plan = FaultPlan(seed=42, drop=0.4)
            sink = _SinkSocket()
            sock = FaultySocket(sink, plan, stream=False)
            pattern = []
            for i in range(60):
                if partition_window and i == partition_window[0]:
                    plan.begin_partition()
                if partition_window and i == partition_window[1]:
                    plan.end_partition()
                before = len(sink.sent)
                sock.sendto(bytes([i]) * 4, ("h", 1))
                pattern.append(len(sink.sent) > before)
            return pattern

        clean = drop_pattern(None)
        partitioned = drop_pattern((20, 30))
        assert partitioned[:20] == clean[:20]
        assert partitioned[30:] == clean[30:]
        assert not any(partitioned[20:30])
