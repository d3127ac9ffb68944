"""Unit tests for :mod:`repro.rpc.resilience` — deadlines, circuit
breaking, overload control — plus the registry's shed/drain/health
surface and the transports' drain plumbing."""

import sys
import threading
import time

import pytest

from repro.errors import (
    RpcDeadlineExceeded,
    RpcDeniedError,
    RpcError,
    RpcTimeoutError,
)
from repro.rpc import (
    HEALTH_PROC_STATUS,
    HEALTH_PROG,
    HEALTH_VERS,
    STATUS_DRAINING,
    STATUS_SERVING,
    SvcRegistry,
    TcpClient,
    TcpServer,
    UdpClient,
    UdpServer,
)
from repro.rpc.client import RpcClient
from repro.rpc.message import AcceptStat, decode_reply_header
from repro.rpc.resilience import (
    CircuitBreaker,
    Deadline,
    InflightLimiter,
    WorkerPool,
)
from repro.xdr import XdrMemStream, XdrOp, xdr_u_long

PROG, VERS = 0x20007777, 1


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_remaining_counts_down(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired

    def test_check_raises_typed_error_when_spent(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(1.0)
        assert deadline.expired
        with pytest.raises(RpcDeadlineExceeded) as info:
            deadline.check("proc=7")
        assert "proc=7" in str(info.value)

    def test_deadline_exceeded_is_a_timeout(self):
        # Existing handlers that catch RpcTimeoutError keep working.
        assert issubclass(RpcDeadlineExceeded, RpcTimeoutError)
        assert issubclass(RpcDeadlineExceeded, RpcError)

    def test_coerce(self):
        clock = FakeClock()
        assert Deadline.coerce(None) is None
        deadline = Deadline(1.0, clock=clock)
        assert Deadline.coerce(deadline) is deadline
        coerced = Deadline.coerce(2.5, clock=clock)
        assert isinstance(coerced, Deadline)
        assert coerced.budget_s == 2.5


class TestCircuitBreaker:
    def make(self, clock, threshold=3, recovery=1.0, probes=1):
        return CircuitBreaker(failure_threshold=threshold,
                              recovery_s=recovery,
                              half_open_probes=probes, clock=clock)

    def test_closed_until_threshold(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_after_recovery_then_close_on_success(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()          # the single probe
        assert not breaker.allow()      # probes exhausted
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.recovery_due_in() == pytest.approx(1.0)

    def test_transitions_recorded(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        states = [state for state, _ in breaker.transitions]
        assert states == [CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN,
                          CircuitBreaker.CLOSED]


class TestInflightLimiter:
    def test_cap_rejects(self):
        limiter = InflightLimiter(limit=2)
        assert limiter.try_acquire()
        assert limiter.try_acquire()
        assert not limiter.try_acquire()
        limiter.release()
        assert limiter.try_acquire()
        assert limiter.rejected == 1

    def test_wait_idle(self):
        limiter = InflightLimiter()
        limiter.try_acquire()
        assert not limiter.wait_idle(timeout=0.05)
        limiter.release()
        assert limiter.wait_idle(timeout=0.05)

    @pytest.mark.parametrize("limit", [None, 3])
    def test_lock_free_slots_lose_no_update(self, limit):
        """Uncapped admission and every release take no lock: many
        threads switching often must still count every slot, never
        exceed the cap, and wake a drain once the last one leaves."""
        limiter = InflightLimiter(limit)
        admit = (limiter.try_acquire if limit else
                 lambda: limiter.enter(None) or True)
        peak, errors = [0], []

        def churn():
            try:
                for _ in range(2000):
                    if admit():
                        peak[0] = max(peak[0], limiter.inflight)
                        limiter.release()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            limiter.try_acquire()  # a drain waits on this one too
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            waiter = threading.Thread(
                target=lambda: errors.append(limiter.wait_idle(5.0)))
            waiter.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            limiter.release()
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert errors == [True]
        assert limiter.inflight == 0
        assert peak[0] <= (limit or 9)


class TestWorkerPool:
    def test_bounded_queue_sheds(self):
        release = threading.Event()
        started = threading.Event()

        def handler(_item):
            started.set()
            release.wait(timeout=5.0)

        pool = WorkerPool(1, 1, handler)
        try:
            assert pool.submit("a")     # picked up by the worker
            assert started.wait(1.0)
            assert pool.submit("b")     # fills the queue
            assert not pool.submit("c")  # full -> shed
            assert pool.shed == 1
        finally:
            release.set()
            pool.stop()

    def test_worker_survives_exceptions(self):
        def handler(item):
            raise ValueError(item)

        pool = WorkerPool(1, 4, handler)
        try:
            pool.submit("boom")
            assert pool.wait_idle(timeout=2.0)
            assert pool.worker_errors == 1
            done = threading.Event()
            pool.handler = lambda item: done.set()
            pool.submit("ok")
            assert done.wait(1.0)
        finally:
            pool.stop()

    def test_wait_idle_sees_queued_items(self):
        gate = threading.Event()
        pool = WorkerPool(1, 8, lambda _item: gate.wait(timeout=5.0))
        try:
            pool.submit("a")
            pool.submit("b")
            assert pool.inflight == 2
            assert not pool.wait_idle(timeout=0.05)
            gate.set()
            assert pool.wait_idle(timeout=2.0)
        finally:
            gate.set()
            pool.stop()


def make_registry(**kwargs):
    registry = SvcRegistry(**kwargs)
    registry.enable_drc()
    registry.install_health()
    registry.register(PROG, VERS, 1, lambda v: v + 1,
                      xdr_args=xdr_u_long, xdr_res=xdr_u_long)
    return registry


def call_bytes(xid, proc=1, value=7, prog=PROG, vers=VERS):
    return RpcClient(prog, vers).build_call(xid, proc, value, xdr_u_long)


def reply_stat(reply):
    stream = XdrMemStream(bytearray(reply), XdrOp.DECODE)
    return decode_reply_header(stream).stat


class TestShedAndDrain:
    def test_shed_reply_bytes_is_a_system_err_reply(self):
        registry = make_registry()
        reply = registry.shed_reply_bytes(call_bytes(77))
        assert reply_stat(reply) == AcceptStat.SYSTEM_ERR
        assert registry.sheds == 1

    def test_shed_reply_bytes_refuses_garbage(self):
        registry = make_registry()
        assert registry.shed_reply_bytes(b"\x00" * 8) is None
        assert registry.shed_reply_bytes(b"") is None

    def test_drain_sheds_new_work_but_replays_drc(self):
        registry = make_registry()
        caller = ("10.0.0.1", 1234)
        first = registry.dispatch_bytes(call_bytes(1), caller=caller)
        registry.begin_drain()
        # Retransmission of the answered call: replayed, not shed.
        replay = registry.dispatch_bytes(call_bytes(1), caller=caller)
        assert replay == first
        # New work: shed with SYSTEM_ERR, handler not invoked.
        invoked = registry.handlers_invoked
        shed = registry.dispatch_bytes(call_bytes(2), caller=caller)
        assert reply_stat(shed) == AcceptStat.SYSTEM_ERR
        assert registry.handlers_invoked == invoked
        # Shed replies are never cached: after end_drain the same xid
        # executes normally.
        registry.end_drain()
        fresh = registry.dispatch_bytes(call_bytes(2), caller=caller)
        assert reply_stat(fresh) == AcceptStat.SUCCESS
        assert registry.handlers_invoked == invoked + 1

    def test_health_answers_through_drain(self):
        registry = make_registry()
        caller = ("10.0.0.2", 99)
        xids = iter(range(1000, 2000))

        def status():
            reply = registry.dispatch_bytes(
                call_bytes(next(xids), proc=HEALTH_PROC_STATUS,
                           prog=HEALTH_PROG, vers=HEALTH_VERS),
                caller=caller,
            )
            stream = XdrMemStream(bytearray(reply), XdrOp.DECODE)
            decode_reply_header(stream)
            return xdr_u_long(stream, None)

        assert status() == STATUS_SERVING
        registry.begin_drain()
        assert status() == STATUS_DRAINING
        registry.end_drain()
        assert status() == STATUS_SERVING


class TestUdpServerResilience:
    def test_worker_pool_round_trip_and_drain(self):
        registry = make_registry()
        with UdpServer(registry, workers=2, queue_depth=8) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           timeout=5.0, wait=0.05) as client:
                assert client.call(1, 5, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long) == 6
                assert server.drain(timeout=2.0)
                assert registry.draining
                with pytest.raises(RpcDeniedError):
                    client.call(1, 6, xdr_args=xdr_u_long,
                                xdr_res=xdr_u_long)

    def test_inline_mode_still_serves(self):
        registry = make_registry()
        with UdpServer(registry) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           timeout=5.0, wait=0.05) as client:
                assert client.call(1, 1, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long) == 2


class TestTcpServerResilience:
    def test_inflight_cap_sheds(self):
        registry = make_registry()
        release = threading.Event()
        entered = threading.Event()

        def slow(value):
            entered.set()
            release.wait(timeout=5.0)
            return value

        registry.register(PROG, VERS, 2, slow, xdr_args=xdr_u_long,
                          xdr_res=xdr_u_long)
        with TcpServer(registry, max_inflight=1) as server:
            blocker = TcpClient("127.0.0.1", server.port, PROG, VERS,
                                timeout=5.0)
            second = TcpClient("127.0.0.1", server.port, PROG, VERS,
                               timeout=5.0)
            try:
                background = threading.Thread(
                    target=lambda: blocker.call(2, 1,
                                                xdr_args=xdr_u_long,
                                                xdr_res=xdr_u_long),
                    daemon=True,
                )
                background.start()
                assert entered.wait(2.0)
                with pytest.raises(RpcDeniedError):
                    second.call(1, 1, xdr_args=xdr_u_long,
                                xdr_res=xdr_u_long)
                assert server.requests_shed >= 1
                release.set()
                background.join(timeout=2.0)
                # The blocker's request stays in flight until its reply
                # is on the wire, so its call() can return first: wait
                # (bounded) for the slot to come back.
                freed_by = time.monotonic() + 2.0
                while server.inflight and time.monotonic() < freed_by:
                    time.sleep(0.001)
                assert server.inflight == 0
                # Capacity freed: the same connection serves again.
                assert second.call(1, 2, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long) == 3
            finally:
                release.set()
                blocker.close()
                second.close()

    def test_drain_waits_for_inflight(self):
        registry = make_registry()
        with TcpServer(registry) as server:
            with TcpClient("127.0.0.1", server.port, PROG, VERS,
                           timeout=5.0) as client:
                assert client.call(1, 1, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long) == 2
                assert server.drain(timeout=2.0)
                with pytest.raises(RpcDeniedError):
                    client.call(1, 2, xdr_args=xdr_u_long,
                                xdr_res=xdr_u_long)
