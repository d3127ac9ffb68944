"""The lint rules, exercised on synthetic modules with known defects.

Each test feeds hand-written sources through one rule and asserts the
exact finding locations, so a rule that silently stops matching shows
up here rather than as a quietly-clean repo scan.
"""

import ast as pyast
from pathlib import Path

from repro.analysis.findings import scan_pragmas
from repro.analysis.lint import Module, excepts, locks, obsguard, spine

ROOT = Path(__file__).resolve().parents[2]


def module(rel, source):
    return Module(path=Path("/synthetic") / rel, rel=rel, source=source,
                  tree=pyast.parse(source, filename=rel),
                  pragmas=scan_pragmas(rel, source))


class TestLockGraph:
    CYCLE = '''
import threading

class Mux:
    def __init__(self):
        self._lock = threading.Lock()
        self._table = threading.Lock()

    def forward(self):
        with self._lock:
            with self._table:
                pass

    def backward(self):
        with self._table:
            with self._lock:
                pass
'''

    HIERARCHY = '''
import threading

class Mux:
    def __init__(self):
        self._lock = threading.Lock()
        self._table = threading.Lock()

    def forward(self):
        with self._lock:
            with self._table:
                pass

    def also_forward(self):
        with self._lock:
            with self._table:
                pass
'''

    def test_direct_cycle_detected(self):
        findings = locks.check([module("src/repro/rpc/mux.py", self.CYCLE)])
        cycles = [f for f in findings if f.rule == "lock-order-cycle"]
        assert len(cycles) == 1
        assert "Mux._lock" in cycles[0].message
        assert "Mux._table" in cycles[0].message

    def test_consistent_hierarchy_is_clean(self):
        findings = locks.check(
            [module("src/repro/rpc/mux.py", self.HIERARCHY)])
        assert [f for f in findings if f.rule == "lock-order-cycle"] == []

    def test_cycle_via_call_under_lock(self):
        src = '''
import threading

class Mux:
    def __init__(self):
        self._lock = threading.Lock()
        self._table = threading.Lock()

    def forward(self):
        with self._lock:
            self._grab_table()

    def _grab_table(self):
        with self._table:
            pass

    def backward(self):
        with self._table:
            with self._lock:
                pass
'''
        findings = locks.check([module("src/repro/rpc/mux.py", src)])
        assert [f.rule for f in findings
                if f.rule == "lock-order-cycle"] == ["lock-order-cycle"]

    def test_blocking_under_lock_exact_location(self):
        src = '''
import socket
import threading

class Conn:
    def __init__(self):
        self._lock = threading.Lock()
        self._sock = socket.socket()

    def send(self, data):
        with self._lock:
            self._sock.sendall(data)
'''
        findings = locks.check([module("src/repro/rpc/conn.py", src)])
        (f,) = [x for x in findings if x.rule == "blocking-under-lock"]
        assert f.path == "src/repro/rpc/conn.py"
        assert f.line == 12
        assert "sendall" in f.message
        assert "Conn._lock" in f.message

    def test_condition_wait_is_exempt(self):
        # Condition.wait releases the lock while blocked — not a stall.
        src = '''
import threading

class Q:
    def __init__(self):
        self._cond = threading.Condition()

    def get(self):
        with self._cond:
            self._cond.wait()
'''
        findings = locks.check([module("src/repro/rpc/q.py", src)])
        assert [f for f in findings if f.rule == "blocking-under-lock"] == []

    def test_blocking_outside_lock_is_clean(self):
        src = '''
import time

def pause():
    time.sleep(1)
'''
        findings = locks.check([module("src/repro/rpc/t.py", src)])
        assert findings == []


class TestObsGuard:
    def test_unguarded_hot_path_counter_flagged(self):
        src = '''
from repro import obs as _obs

def dispatch(call):
    _obs.counter("rpc.calls").inc()
    return call
'''
        findings = obsguard.check([module("src/repro/rpc/hot.py", src)])
        (f,) = findings
        assert f.rule == "obs-unguarded"
        assert f.line == 5

    def test_guarded_counter_is_clean(self):
        src = '''
from repro import obs as _obs

def dispatch(call):
    if _obs.enabled:
        _obs.counter("rpc.calls").inc()
    return call
'''
        assert obsguard.check([module("src/repro/rpc/hot.py", src)]) == []

    def test_cold_path_is_out_of_scope(self):
        src = '''
from repro import obs as _obs

def report():
    _obs.counter("tool.runs").inc()
'''
        assert obsguard.check([module("src/repro/tools_x.py", src)]) == []

    def test_helper_with_all_callsites_guarded_is_exempt(self):
        src = '''
from repro import obs as _obs

def _count(label):
    _obs.counter(label).inc()

def dispatch(call):
    if _obs.enabled:
        _count("rpc.calls")
    return call
'''
        assert obsguard.check([module("src/repro/rpc/hot.py", src)]) == []


class TestObsLookupOnCallPath:
    SRC = '''
from repro import obs as _obs

class SvcRegistry:
    def dispatch_bytes(self, data):
        if _obs.enabled:
            _obs.registry.counter("rpc.server.requests").inc()
            registry = _obs.registry
            registry.histogram("rpc.server.dispatch_latency_s").observe(1)
        return self._spine(data)

    def begin_drain(self):
        if _obs.enabled:
            _obs.registry.gauge("rpc.server.draining").set(1)
'''

    def test_get_or_create_on_the_call_path_flagged_at_exact_lines(self):
        findings = obsguard.check([module("src/repro/rpc/server.py",
                                          self.SRC)])
        assert sorted((f.rule, f.line) for f in findings) == [
            ("obs-lookup-on-call-path", 7), ("obs-lookup-on-call-path", 9)]
        assert all(f.context == {"function": "dispatch_bytes"}
                   for f in findings)

    def test_cells_records_and_cold_sites_are_clean(self):
        src = '''
from repro import obs as _obs

_REQUESTS = ("counter", "rpc.server.requests")

class SvcRegistry:
    def dispatch_bytes(self, data, rec):
        if _obs.enabled:
            rec.outcome = "dropped"
            _obs.registry.cells[_REQUESTS].inc()

            def later():  # its own function, not the call path
                if _obs.enabled:
                    _obs.registry.counter("rpc.server.drains").inc()
'''
        assert obsguard.check([module("src/repro/rpc/server.py", src)]) == []
        # the same lookups in a module that is no call path
        assert obsguard.check([module("src/repro/rpc/fleet.py",
                                      self.SRC)]) == []


    def test_a_lookup_planted_in_the_lone_call_is_flagged(self):
        """The lone call settles without the engine's folds: a
        get-or-create on its path would be paid by every serial call."""
        src = (ROOT / "src/repro/rpc/clnt_core.py").read_text()
        anchor = "                    messages = self._receive(0)\n"
        assert src.count(anchor) == 1
        planted = src.replace(anchor, anchor + (
            "                    if _obs.enabled:\n"
            "                        _obs.registry.counter(\"x\").inc()\n"))
        line = src[:src.index(anchor)].count("\n") + 3
        findings = obsguard.check(
            [module("src/repro/rpc/clnt_core.py", planted)])
        assert [(f.rule, f.line, f.context) for f in findings] == [
            ("obs-lookup-on-call-path", line, {"function": "call"})]
        assert obsguard.check(
            [module("src/repro/rpc/clnt_core.py", src)]) == []


class TestExcepts:
    def test_bare_except_flagged_anywhere(self):
        src = '''
def f():
    try:
        g()
    except:
        pass
'''
        findings = excepts.check([module("src/repro/util.py", src)])
        (f,) = findings
        assert f.rule == "bare-except"
        assert f.line == 5

    def test_overbroad_in_transport_flagged(self):
        src = '''
def f():
    try:
        g()
    except Exception:
        pass
'''
        findings = excepts.check([module("src/repro/rpc/conn.py", src)])
        assert [f.rule for f in findings] == ["overbroad-except"]

    def test_overbroad_outside_transport_allowed(self):
        src = '''
def f():
    try:
        g()
    except Exception:
        pass
'''
        assert excepts.check([module("src/repro/util.py", src)]) == []

    def test_reraising_handler_allowed(self):
        src = '''
def f():
    try:
        g()
    except Exception:
        cleanup()
        raise
'''
        assert excepts.check([module("src/repro/rpc/conn.py", src)]) == []


class TestDrcOutsideSpine:
    ROUTE = '''
class Route:
    def __call__(self, data, caller):
        drc = self.registry.drc
        verdict = drc.begin(self.key(data, caller))
        if verdict is not True:
            return verdict
        reply = self.serve(data)
        if reply is None:
            self.registry.drc.abandon(self.key(data, caller))
        else:
            self.fallback_drc.put(self.key(data, caller), reply)
        return reply
'''

    def test_protocol_calls_in_a_route_flagged_at_exact_lines(self):
        found = spine.check([module("src/repro/specialized/online.py",
                                    self.ROUTE)])
        assert [(f.rule, f.path, f.line) for f in found] == [
            ("drc-outside-spine", "src/repro/specialized/online.py", 5),
            ("drc-outside-spine", "src/repro/specialized/online.py", 10),
            ("drc-outside-spine", "src/repro/specialized/online.py", 12),
        ]

    def test_the_spine_and_the_cache_module_are_exempt(self):
        spine_src = '''
class SvcRegistry:
    def _spine(self, data, caller, received_at, span):
        drc = self.drc
        verdict = drc.begin(key)
        try:
            return self.serve(data)
        finally:
            drc.put(key, b"") if verdict else drc.abandon(key)

    def other(self, key):
        self.drc.abandon(key)
'''
        found = spine.check([module("src/repro/rpc/server.py", spine_src),
                             module("src/repro/rpc/drc.py", self.ROUTE)])
        # only the call outside _spine, even in the spine's own module
        assert [(f.path, f.line) for f in found] == [
            ("src/repro/rpc/server.py", 12)]

    def test_other_receivers_and_read_only_calls_are_clean(self):
        src = '''
def pump(queue, drc, journal):
    queue.put(1)
    journal.begin()
    drc.get(1)
    drc.absorb(1, b"")
    return drc.snapshot_entries()
'''
        assert spine.check([module("src/repro/rpc/fleet.py", src)]) == []


class TestAdmissionOutsideCore:
    TRANSPORT = '''
from repro.rpc import resilience
from repro.rpc.durable import attach_journal


class SctpServer(RpcServer):
    def __init__(self, registry, online_spec=None, **core):
        registry.enable_fastpath()
        registry.enable_drc()
        self.journal = attach_journal(registry)
        online_spec.attach_server(registry)
        self._limiter = InflightLimiter(4)
        self._pool = resilience.WorkerPool(2, 8, self._work)
        super().__init__(registry, **core)

    def _refuse(self, data, conn):
        self._send(self.registry.shed_reply_bytes(data), conn)

    def drain(self, timeout=5.0):
        self.registry.begin_drain()
        return self._limiter.wait_idle(timeout)
'''

    def test_core_calls_in_a_transport_flagged_at_exact_lines(self):
        found = spine.check([module("src/repro/rpc/svc_sctp.py",
                                    self.TRANSPORT)])
        assert sorted((f.rule, f.line) for f in found) == [
            ("admission-outside-core", line)
            for line in (8, 9, 10, 11, 12, 13, 17, 20)]

    def test_the_core_and_non_transports_are_exempt(self):
        found = spine.check([
            module("src/repro/rpc/svc_core.py", self.TRANSPORT),
            module("src/repro/bench/overload.py", self.TRANSPORT),
            module("src/repro/rpc/resilience.py", self.TRANSPORT)])
        assert found == []

    def test_a_transport_that_only_moves_messages_is_clean(self):
        src = '''
class SctpServer(RpcServer):
    def serve_forever(self):
        while not self._stop.is_set():
            data, peer = self.sock.recvfrom(8192)
            self._submit(data, peer, peer, time.monotonic())

    def _send(self, reply, peer):
        self.sock.sendto(reply, peer)
'''
        assert spine.check([module("src/repro/rpc/svc_sctp.py", src)]) == []


class TestRetransmissionOutsideEngine:
    TRANSPORT = '''
from repro.rpc.clnt_core import CallEngine, CallStats
from repro.rpc.overload import stamp_deadline
from repro.rpc.resilience import Deadline


class SctpClient(CallEngine):
    def call(self, proc, args=None, deadline=None):
        deadline = Deadline.coerce(deadline)
        stats = CallStats(proc)
        self.retry_budget.note_call()
        while not self.retry_budget.try_retry():
            stamp_deadline(self.request, deadline)
        return stats

    def _transmit(self, group):
        self.sock.send(group[0].request)
'''

    def test_engine_calls_in_a_transport_flagged_at_exact_lines(self):
        for path in ("src/repro/rpc/clnt_sctp.py", "src/repro/rpc/mux.py"):
            found = spine.check([module(path, self.TRANSPORT)])
            assert sorted((f.rule, f.line) for f in found) == [
                ("retransmission-outside-engine", line)
                for line in (9, 10, 11, 12, 13)]

    def test_the_engine_and_non_clients_are_exempt(self):
        found = spine.check([
            module("src/repro/rpc/clnt_core.py", self.TRANSPORT),
            module("src/repro/rpc/resilience.py", self.TRANSPORT),
            module("src/repro/bench/chaos.py", self.TRANSPORT)])
        assert found == []


class TestBreakerOutsideSettle:
    FAILOVER = '''
class CircuitBreaker:
    def trip(self):
        self.record_failure()


class FailoverClient:
    def _settle(self, replica, attempt):
        try:
            return attempt()
        except RpcTimeoutError:
            replica.breaker.record_failure()
        replica.breaker.record_success()

    def _fail_racer(self, replica, exc):
        replica.breaker.record_failure()

    def _call_hedged(self, replicas, call):
        self.breakers[0].record_success()
        return [r.breaker.record_failure() for r in replicas]
'''

    def test_charges_outside_settle_flagged_at_exact_lines(self):
        found = spine.check([module("src/repro/rpc/resilience.py",
                                    self.FAILOVER)])
        assert sorted((f.rule, f.line) for f in found) == [
            ("breaker-outside-settle", line) for line in (16, 19, 20)]

    def test_settle_the_breaker_and_other_modules_are_exempt(self):
        src = '''
class FailoverClient:
    def _settle(self, replica, attempt):
        replica.breaker.record_failure()
        replica.breaker.record_success()
'''
        found = spine.check([
            module("src/repro/rpc/resilience.py", src),
            module("src/repro/rpc/fleet.py", self.FAILOVER),
            module("src/repro/bench/chaos.py", self.FAILOVER)])
        assert found == []


class TestWireLayoutOutsideRpcgen:
    WALKER = '''
from repro.rpcgen import idl_ast as idl


def words(interface, struct, lens):
    """Counts ``expected_vals_len`` words."""
    total = 0
    for field in struct.fields:
        resolved = interface.resolve(field.type)
        if isinstance(resolved, idl.Prim):
            total += 1
        elif isinstance(resolved, (idl.FixedArray, idl.VarArray)):
            total += lens[f"expected_{field.name}_len"]
        elif isinstance(resolved, idl.Named):
            total += lens[f"{struct.name}_expected_{field.name}_len_res"]
    return total + lens.get("expected_inlen", 0)
'''

    def test_walks_and_spelled_names_flagged_at_exact_lines(self):
        found = spine.check([module("src/repro/specialized/sizes.py",
                                    self.WALKER)])
        assert sorted((f.rule, f.line) for f in found) == [
            ("wire-layout-outside-rpcgen", line)
            for line in (6, 10, 12, 12, 13, 14, 15)]

    def test_rpcgen_is_exempt(self):
        assert spine.check([module("src/repro/rpcgen/contract.py",
                                   self.WALKER)]) == []

    def test_reading_the_contract_is_clean(self):
        src = '''
def request_words(proc, sig, lens):
    """``expected_inlen`` is a role, not a spelled length parameter."""
    bound = sig.bind({"inlen": 4, "expected_inlen": 4},
                     proc.lens(lens, {}), int)
    return len(proc.arg.layout(lens)), bound
'''
        assert spine.check([module("src/repro/analysis/verify.py",
                                   src)]) == []
