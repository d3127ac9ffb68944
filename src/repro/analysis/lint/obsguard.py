"""``obs-unguarded`` and ``obs-lookup-on-call-path``.

``obs-unguarded``: hot-path observability must be gated on ``enabled``.

The observability registry is disabled by default and the hot paths
(the RPC transports and the specialization engine) rely on the
``if _obs.enabled:`` gate to make instrumentation free when off —
an unguarded ``_obs.registry.counter(...).inc()`` pays dict lookups
and label formatting on every call even with obs disabled.

A call is *guarded* when it is (transitively) dominated by an
``enabled`` test: an ``if _obs.enabled:`` block, an
``_obs.enabled and ...`` conjunction, a guarded ternary, or an early
``if not _obs.enabled: return``.  Private helper functions whose every
intra-package call site is itself guarded count as guarded too — the
gate is hoisted to the caller (e.g. a ``_count_reply`` helper invoked
only from inside ``if _obs.enabled:`` blocks).

``obs-lookup-on-call-path``: enabled costs one fold per call.  The
functions one request or one call traverses (:data:`CALL_PATH`) write
what happened into a per-call record, or update a cell resolved once
through ``registry.cells[key]``; a ``.counter(`` / ``.gauge(`` /
``.histogram(`` get-or-create there — keyword dict, sorted label
tuple, dict probe, lock round, per update — is how the instrument came
to cost half a call.  Cold sites (drain, shed, builds, faults) keep
the get-or-create API.
"""

import ast as pyast

from repro.analysis.findings import Finding

#: only these subtrees are per-call hot paths worth the gate.
HOT_PREFIXES = ("repro/rpc/", "repro/specialized/", "repro/xdr/")

#: module -> the functions every request (server) or call (client)
#: runs through; ``body`` is the staged route's, ``serve_inline`` the
#: core's staged per-request path, ``call`` a lone call's whole path.
CALL_PATH = {
    "repro/rpc/server.py": {"dispatch_bytes", "_spine", "body"},
    "repro/rpc/drc.py": {"begin", "get", "put"},
    "repro/rpc/fastpath.py": {"acquire"},
    "repro/rpc/svc_core.py": {"serve_inline", "_enqueue", "_serve"},
    "repro/rpc/svc_udp.py": {"handle_once"},
    "repro/rpc/svc_mux.py": {"serve_forever", "_read_conn"},
    "repro/rpc/resilience.py": {"submit", "admit"},
    "repro/rpc/overload.py": {"pop"},
    "repro/rpc/clnt_core.py": {"call", "_handover", "call_async", "_start",
                               "_launch", "_step", "_flush", "_send_group",
                               "_arm", "_classify", "_complete_batch",
                               "_finish_call"},
    "repro/specialized/pipeline.py": {"_body"},
    "repro/specialized/online.py": {"record", "__call__", "build_request",
                                    "_sample"},
}
GET_OR_CREATE = {"counter", "gauge", "histogram"}


def _alias(module):
    for node in module.tree.body:
        if isinstance(node, pyast.ImportFrom) and node.module == "repro":
            for name in node.names:
                if name.name == "obs":
                    return name.asname or "obs"
        if isinstance(node, pyast.Import):
            for name in node.names:
                if name.name == "repro.obs":
                    return name.asname or None
    return None


def _chain_root(expr):
    while isinstance(expr, pyast.Attribute):
        expr = expr.value
    return expr.id if isinstance(expr, pyast.Name) else None


def _is_enabled_test(expr, alias):
    """True when *expr* contains an ``<alias>.enabled`` access."""
    for node in pyast.walk(expr):
        if (isinstance(node, pyast.Attribute) and node.attr == "enabled"
                and _chain_root(node) == alias):
            return True
    return False


def _terminates(body):
    return bool(body) and isinstance(body[-1], (pyast.Return, pyast.Raise,
                                                pyast.Continue, pyast.Break))


class _FuncScan:
    """Collect obs calls (with guardedness) and all call sites."""

    def __init__(self, alias):
        self.alias = alias
        self.obs_calls = []    # (lineno, guarded)
        self.call_sites = []   # (simple callee name, guarded, lineno)

    def block(self, stmts, guarded):
        g = guarded
        for stmt in stmts:
            self.stmt(stmt, g)
            # `if not _obs.enabled: return` guards the rest of the block.
            if (isinstance(stmt, pyast.If) and not stmt.orelse
                    and isinstance(stmt.test, pyast.UnaryOp)
                    and isinstance(stmt.test.op, pyast.Not)
                    and _is_enabled_test(stmt.test.operand, self.alias)
                    and _terminates(stmt.body)):
                g = True

    def stmt(self, node, guarded):
        if isinstance(node, pyast.If):
            self.expr(node.test, guarded)
            body_guard = guarded or _is_enabled_test(node.test, self.alias)
            self.block(node.body, body_guard)
            self.block(node.orelse, guarded)
            return
        if isinstance(node, (pyast.For, pyast.AsyncFor)):
            self.expr(node.iter, guarded)
            self.block(node.body, guarded)
            self.block(node.orelse, guarded)
            return
        if isinstance(node, pyast.While):
            self.expr(node.test, guarded)
            self.block(node.body, guarded)
            self.block(node.orelse, guarded)
            return
        if isinstance(node, (pyast.With, pyast.AsyncWith)):
            for item in node.items:
                self.expr(item.context_expr, guarded)
            self.block(node.body, guarded)
            return
        if isinstance(node, pyast.Try):
            self.block(node.body, guarded)
            for handler in node.handlers:
                self.block(handler.body, guarded)
            self.block(node.orelse, guarded)
            self.block(node.finalbody, guarded)
            return
        if isinstance(node, (pyast.FunctionDef, pyast.AsyncFunctionDef,
                             pyast.ClassDef)):
            return  # nested scopes are scanned on their own
        for child in pyast.iter_child_nodes(node):
            if isinstance(child, pyast.expr):
                self.expr(child, guarded)
            elif isinstance(child, pyast.stmt):
                self.stmt(child, guarded)

    def expr(self, node, guarded):
        if isinstance(node, pyast.BoolOp) and isinstance(node.op, pyast.And):
            g = guarded
            for value in node.values:
                self.expr(value, g)
                if _is_enabled_test(value, self.alias):
                    g = True
            return
        if isinstance(node, pyast.IfExp):
            self.expr(node.test, guarded)
            body_guard = guarded or _is_enabled_test(node.test, self.alias)
            self.expr(node.body, body_guard)
            self.expr(node.orelse, guarded)
            return
        if isinstance(node, pyast.Call):
            if _chain_root(node.func) == self.alias:
                self.obs_calls.append((node.lineno, guarded))
            name = None
            if isinstance(node.func, pyast.Name):
                name = node.func.id
            elif isinstance(node.func, pyast.Attribute):
                name = node.func.attr
            if name:
                self.call_sites.append((name, node.lineno, guarded))
        if isinstance(node, pyast.Lambda):
            self.expr(node.body, guarded)
            return
        for child in pyast.iter_child_nodes(node):
            if isinstance(child, (pyast.expr, pyast.keyword)):
                self.expr(child.value if isinstance(child, pyast.keyword)
                          else child, guarded)


def _functions(tree):
    """Yield every (async) function definition, including methods."""
    for node in pyast.walk(tree):
        if isinstance(node, (pyast.FunctionDef, pyast.AsyncFunctionDef)):
            yield node


def _own_nodes(func):
    """Every node of ``func`` outside the functions nested in it."""
    stack = list(pyast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (pyast.FunctionDef, pyast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(pyast.iter_child_nodes(node))


def _lookups_on_call_path(module):
    names = CALL_PATH.get(module.package_rel, ())
    for func in _functions(module.tree):
        if func.name not in names:
            continue
        for node in _own_nodes(func):
            if (isinstance(node, pyast.Call)
                    and isinstance(node.func, pyast.Attribute)
                    and node.func.attr in GET_OR_CREATE):
                yield Finding(
                    rule="obs-lookup-on-call-path",
                    path=module.rel,
                    line=node.lineno,
                    message=(f".{node.func.attr}() get-or-create in "
                             f"{func.name}(), which every call runs: write "
                             f"the per-call record, or update "
                             f"registry.cells[key]"),
                    context={"function": func.name},
                )


def check(modules):
    hot = [m for m in modules
           if m.package_rel.startswith(HOT_PREFIXES)]
    # func name -> list of (module, lineno, guarded) unguarded obs calls
    offenders = {}
    # callee simple name -> list of guarded flags across all hot modules
    sites = {}
    for module in hot:
        alias = _alias(module)
        if alias is None:
            continue
        for func in _functions(module.tree):
            scan = _FuncScan(alias)
            scan.block(func.body, False)
            for name, _line, guarded in scan.call_sites:
                sites.setdefault(name, []).append(guarded)
            for lineno, guarded in scan.obs_calls:
                if not guarded:
                    offenders.setdefault(func.name, []).append(
                        (module, lineno))
    findings = [finding for module in hot
                for finding in _lookups_on_call_path(module)]
    for name, calls in offenders.items():
        callers = sites.get(name, [])
        if callers and all(callers):
            # every known call site is itself inside an enabled guard:
            # the gate is hoisted to the caller.
            continue
        for module, lineno in calls:
            findings.append(Finding(
                rule="obs-unguarded",
                path=module.rel,
                line=lineno,
                message=(f"obs call in {name}() is not gated on "
                         f"obs.enabled (and not every call site is)"),
                context={"function": name},
            ))
    return findings
