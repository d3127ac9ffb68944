"""Regression pins for the linter's true positives.

The concurrency/discipline lint flagged a handful of real defects on
its first repo run; each got a code fix (not a pragma).  These tests
pin the fixed behaviour so the defect cannot quietly return:

* ``rpc.server.replies{outcome=dropped}`` was counted unconditionally
  on the hot dispatch path — now gated on ``_obs.enabled`` and still
  counted when observability is on;
* the fleet replication sink's blob decode and the replicator's batch
  encode caught bare ``Exception`` — now narrowed to the decoders'
  documented malformation signals, while garbage still doesn't kill
  the transport (the behaviour the broad except was protecting);
* route bodies counted their own executions, one into whatever object
  they held — an online route attached through a specialization
  handle counted onto the handle, so the registry read one execution
  fewer than its DRC stores.  The spine now counts one per reply it
  records, and ``drc-outside-spine`` flags any other write;
* ``load_u32`` was defined on both MiniC buffer classes (concrete and
  symbolic) and called by nothing — deleted, and ``unreferenced-def``
  flags a definition nothing names.
"""

import ast as pyast
from pathlib import Path

from repro import obs as _obs
from repro.analysis.findings import apply_pragmas, scan_pragmas
from repro.analysis.lint import Module, load_modules, spine, unreferenced
from repro.rpc.fleet import DrcReplicator
from repro.rpc.server import SvcRegistry
from repro.xdr import xdr_int

PROG, VERS = 0x20001111, 3


def make_registry():
    reg = SvcRegistry()
    reg.register(PROG, VERS, 1, lambda a: a * 2, xdr_int, xdr_int)
    return reg


class TestDroppedCounterGate:
    def _replies(self, outcome):
        counters = _obs.collect()["counters"]
        return sum(v for k, v in counters.items()
                   if k.startswith("rpc.server.replies")
                   and f"outcome={outcome}" in k)

    def test_undecodable_call_counts_dropped_when_enabled(self):
        registry = make_registry()
        prev = _obs.enabled
        _obs.registry.reset()
        _obs.enabled = True
        try:
            assert registry.dispatch_bytes(b"\x00\x01") is None
            assert self._replies("dropped") == 1
        finally:
            _obs.enabled = prev

    def test_disabled_registry_stays_silent(self):
        registry = make_registry()
        prev = _obs.enabled
        _obs.registry.reset()
        _obs.enabled = False
        try:
            assert registry.dispatch_bytes(b"\x00\x01") is None
            assert self._replies("dropped") == 0
        finally:
            _obs.enabled = prev


class TestNarrowedExcepts:
    def test_unframeable_batch_entry_skipped_not_fatal(self):
        # encode_entry raises on a malformed in-memory key; the
        # narrowed handler must still skip it rather than crash the
        # replication pusher.
        class _Drc:
            on_store = None

        replicator = DrcReplicator(_Drc(), peers=[], origin="me")
        replicator._push_batch([((object(), "caller", 1, 2, 3), b"reply")])
        assert replicator.dropped == 1


def lint(rel, source):
    return spine.check([Module(
        path=Path("/synthetic") / rel, rel=rel, source=source,
        tree=pyast.parse(source, filename=rel),
        pragmas=scan_pragmas(rel, source))])


class TestExecutionCountInTheSpine:
    SERVER = '''
class SvcRegistry:
    def __init__(self):
        self.handlers_invoked = 0

    def _spine(self, data, route):
        record = route.body(data)
        if record is not None:
            self.handlers_invoked += 1
        return record

    def stage_route(self, handler):
        def body(data):
            self.handlers_invoked += 1
            return handler(data)
        return body
'''

    ROUTE = '''
class Route:
    def __call__(self, data):
        reply = self.run(data)
        if reply is not None:
            self.registry.handlers_invoked = self.registry.handlers_invoked + 1
        return reply
'''

    def test_a_route_body_counting_itself_is_flagged(self):
        found = (lint("src/repro/rpc/server.py", self.SERVER)
                 + lint("src/repro/specialized/online.py", self.ROUTE))
        assert [(f.rule, f.path, f.line) for f in found] == [
            ("drc-outside-spine", "src/repro/rpc/server.py", 14),
            ("drc-outside-spine", "src/repro/specialized/online.py", 6),
        ]
        assert all("handlers_invoked" in f.message for f in found)

    def test_the_spine_count_and_a_reset_are_clean(self):
        source = self.SERVER.split("    def stage_route")[0]
        assert lint("src/repro/rpc/server.py", source) == []
        reset = "def reset(registry):\n    registry.handlers_invoked = 0\n"
        assert lint("src/repro/bench/soak.py", reset) == []


class TestUnreferencedDefs:
    MODULE = '''
def used():
    return 1


def dead():
    return used()


class Reached:
    # repro: disable=unreferenced-def -- dispatched by getattr
    def visit_leaf(self):
        return 0

    def __call__(self):
        return 0
'''

    def test_a_def_nothing_else_names_is_flagged(self, tmp_path):
        module = tmp_path / "src" / "repro" / "walker.py"
        module.parent.mkdir(parents=True)
        module.write_text(self.MODULE)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_walker.py").write_text(
            "from repro.walker import Reached\n")
        modules = load_modules(tmp_path)
        found = apply_pragmas(
            unreferenced.check(modules, tmp_path),
            [pragma for module in modules for pragma in module.pragmas])
        assert [(f.rule, f.path, f.line, f.suppressed) for f in found] == [
            ("unreferenced-def", "src/repro/walker.py", 6, False),
            ("unreferenced-def", "src/repro/walker.py", 12, True),
        ]
        assert "dead is defined here" in found[0].message
