"""The soaks' shared scaffold (:mod:`repro.bench.soak`): the checkers
every soak relies on must be able to fail."""

import logging
import threading

import pytest

from repro.bench.soak import TracebackWatch, finish, uniqueness_violations
from repro.rpc import SvcRegistry
from repro.rpc.client import RpcClient
from repro.xdr import xdr_u_long

PROG, VERS, PROC = 0x20004242, 1, 1


def served(calls, capacity=64):
    """A registry that answered ``calls`` distinct requests, each sent
    twice (the retransmission must replay, not re-execute)."""
    registry = SvcRegistry()
    registry.enable_drc(capacity)
    registry.register(PROG, VERS, PROC, lambda value: value + 1,
                      xdr_args=xdr_u_long, xdr_res=xdr_u_long)
    client = RpcClient(PROG, VERS)
    for xid in range(calls):
        request = client.build_call(xid, PROC, xid, xdr_u_long)
        first = registry.dispatch_bytes(request, caller=("10.0.0.1", 7))
        assert registry.dispatch_bytes(request,
                                       caller=("10.0.0.1", 7)) == first
    return registry


def proof(registry):
    return uniqueness_violations(registry.handlers_invoked,
                                 registry.drc.summary(), len(registry.drc))


class TestUniquenessProof:
    def test_clean_registry_passes(self):
        registry = served(5)
        assert registry.handlers_invoked == 5
        assert proof(registry) == []

    def test_reports_a_handler_that_ran_more_often_than_it_stored(self):
        registry = served(5)
        registry.handlers_invoked += 1   # a duplicate execution
        (found,) = proof(registry)
        assert "handlers_invoked=6 != drc stores=5" in found

    def test_reports_evictions(self):
        registry = served(5, capacity=3)
        found = proof(registry)
        assert any("evicted 2 entries" in item for item in found)
        # with evictions the entries check could not mean anything
        assert not any("entries=" in item for item in found)

    def test_reports_stores_that_are_not_entries(self):
        registry = served(5)
        # an xid answered (stored) twice leaves one entry
        key = next(iter(registry.drc.snapshot_entries()))[0]
        registry.drc.put(key, b"again")
        registry.handlers_invoked += 1
        (found,) = proof(registry)
        assert "drc stores=6 != entries=5" in found

    def test_entries_unknown_skips_only_the_entries_check(self):
        registry = served(5)
        summary = dict(registry.drc.summary(), stores=4)
        (found,) = uniqueness_violations(5, summary)
        assert "handlers_invoked=5 != drc stores=4" in found
        assert uniqueness_violations(4, summary) == []


class TestTracebackWatch:
    def test_catches_a_thread_exception_and_restores_the_hooks(self):
        hook = threading.excepthook
        handlers = list(logging.getLogger("repro").handlers)
        with TracebackWatch() as watch:
            assert threading.excepthook is not hook

            def boom():
                raise RuntimeError("escaped")

            thread = threading.Thread(target=boom, name="soak-victim")
            thread.start()
            thread.join(5.0)
            assert not thread.is_alive()
            logging.getLogger("repro.rpc.test").error("logged %d", 7)
        assert threading.excepthook is hook
        assert logging.getLogger("repro").handlers == handlers
        assert watch.escaped == ["soak-victim: RuntimeError: escaped",
                                 "repro.rpc.test: logged 7"]

    def test_silent_run_reports_nothing(self):
        with TracebackWatch() as watch:
            logging.getLogger("repro.rpc.test").warning("not an error")
        assert watch.escaped == []


class TestFinish:
    def test_writes_the_report_then_raises_on_violations(self, tmp_path,
                                                         capsys):
        path = tmp_path / "BENCH_x.json"
        report = {"violations": ["r0#1: broke"], "passed": False}
        with pytest.raises(AssertionError, match="x soak failed with 1"):
            finish("x", report, str(path))
        assert '"r0#1: broke"' in path.read_text()
        assert "VIOLATION: r0#1: broke" in capsys.readouterr().out

    def test_clean_report_is_returned(self):
        report = {"violations": [], "passed": True}
        assert finish("x", report, None) is report
