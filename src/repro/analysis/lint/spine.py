"""Written-once rules: ``drc-outside-spine``, ``admission-outside-core``,
``retransmission-outside-engine``, ``breaker-outside-settle``,
``wire-layout-outside-rpcgen``.

``drc-outside-spine``: the at-most-once protocol is written once.

``DuplicateRequestCache.begin`` / ``put`` / ``abandon`` are the claim
protocol: whoever calls them decides which requests execute and which
replies are replayed.  Every dispatch tier runs under the one copy in
``SvcRegistry._spine``; a second caller — a route body, a transport, a
specialization wrapper — is a second protocol that can silently
diverge from the first.  Any such call outside ``repro/rpc/drc.py``
and the spine function is a finding.  So is a count written into
``handlers_invoked`` anywhere but the spine: a reply recorded is one
execution, one decision with ``drc.put``.

A receiver is taken for a DRC when its last name is ``drc`` or ends
in ``_drc`` (``drc.put``, ``self.drc.begin``, ``self.fallback.drc
.abandon``) — the naming every holder of one in this tree uses.

``admission-outside-core``: so is everything a server transport is
not.  Registry wiring, admission, shedding and drain live in
``repro/rpc/svc_core.py``; a server transport (any other
``repro/rpc/svc_*.py``) that builds its own ``WorkerPool`` /
``InflightLimiter``, attaches a journal, or calls the registry's
``shed_reply_bytes`` / ``begin_drain`` / ``enable_drc`` /
``enable_fastpath`` / an online specializer's ``attach_server`` is a
second copy of the core starting to grow.

``retransmission-outside-engine``: the client twin.  Deadlines,
retransmission, the retry budget and per-call stats live in
``repro/rpc/clnt_core.py``; a client transport (any other
``repro/rpc/clnt_*.py``, and ``repro/rpc/mux.py``) that calls a retry
budget's ``try_retry`` / ``note_call``, ``stamp_deadline``,
``Deadline.coerce`` or builds a ``CallStats`` is a second engine
starting to grow.

``breaker-outside-settle``: the failover twin.  Which attempt outcome
charges or clears an endpoint's breaker is written once, in
``FailoverClient._settle``; a ``record_failure`` / ``record_success``
call anywhere else in ``repro/rpc/resilience.py`` (the
``CircuitBreaker`` class itself aside) is a second copy of the
breaker rule that can silently diverge from the first.

``wire-layout-outside-rpcgen``: what the generated stubs look like on
the wire and in their signatures is stated once, by the stub contract
(``repro/rpcgen/contract.py``).  Outside ``repro/rpcgen/``, a walk over
IDL type nodes (the ``Prim`` / ``FixedArray`` / ``VarArray`` / ``Named``
attributes of ``idl``) is a second copy of the wire layout, and a string or
f-string spelling an ``expected_<field>_len`` parameter name is a
second copy of an entry signature: read the contract's layout, shapes
and role-bound signatures instead.
"""

import ast as pyast
import re

from repro.analysis.findings import Finding

PROTOCOL_CALLS = {"begin", "put", "abandon"}
DRC_MODULE = "repro/rpc/drc.py"
SPINE = ("repro/rpc/server.py", "_spine")

CORE_MODULE = "repro/rpc/svc_core.py"
TRANSPORT_PREFIX = "repro/rpc/svc_"
#: what only the core calls, by the callee's last name: constructors,
#: ``attach_journal``, and methods of the registry / online specializer
CORE_CALLS = {"WorkerPool", "InflightLimiter", "attach_journal",
              "shed_reply_bytes", "begin_drain", "enable_drc",
              "enable_fastpath", "attach_server"}

ENGINE_MODULE = "repro/rpc/clnt_core.py"
CLIENT_PREFIX = "repro/rpc/clnt_"
MUX_MODULE = "repro/rpc/mux.py"
#: what only the client engine calls, by the callee's last name
#: (``coerce`` only as ``Deadline.coerce``)
ENGINE_CALLS = {"try_retry", "note_call", "stamp_deadline", "CallStats"}

RESILIENCE_MODULE = "repro/rpc/resilience.py"
BREAKER_CALLS = {"record_failure", "record_success"}
#: the one outcome function, and the breaker itself
BREAKER_OWNERS = {"_settle", "CircuitBreaker"}

RPCGEN_PREFIX = "repro/rpcgen/"
#: the IDL type nodes a wire-layout walk dispatches on
LAYOUT_TYPES = {"Prim", "FixedArray", "VarArray", "Named"}
#: a generated expected-length parameter name; ``{}`` stands for an
#: interpolated piece of an f-string
EXPECTED_LEN_NAME = re.compile(r"expected_[\w{}]*_len")


def _last_name(node):
    return (node.id if isinstance(node, pyast.Name)
            else node.attr if isinstance(node, pyast.Attribute) else "")


def _is_drc(node):
    name = _last_name(node)
    return name == "drc" or name.endswith("_drc")


def _count_targets(node):
    """What ``node`` writes a count into: an increment's target, or a
    computed store's (a reset to a constant counts nothing)."""
    if isinstance(node, pyast.AugAssign):
        return [node.target]
    if isinstance(node, pyast.Assign):
        return [] if isinstance(node.value, pyast.Constant) else node.targets
    return []


def _protocol_calls(node, function, found):
    """Collect ``(node, what, enclosing function name)`` under *node*:
    DRC protocol calls and counts written into ``handlers_invoked``."""
    for child in pyast.iter_child_nodes(node):
        inner = function
        if isinstance(child, (pyast.FunctionDef, pyast.AsyncFunctionDef)):
            inner = child.name
        elif (isinstance(child, pyast.Call)
                and isinstance(child.func, pyast.Attribute)
                and child.func.attr in PROTOCOL_CALLS
                and _is_drc(child.func.value)):
            found.append((child, f"DRC {child.func.attr}()", function))
        elif any(isinstance(target, pyast.Attribute)
                 and target.attr == "handlers_invoked"
                 for target in _count_targets(child)):
            found.append((child, "handlers_invoked count", function))
        _protocol_calls(child, inner, found)
    return found


def _core_calls(tree):
    """Calls in a transport module that belong to the server core."""
    return [node for node in pyast.walk(tree)
            if isinstance(node, pyast.Call)
            and _last_name(node.func) in CORE_CALLS]


def _engine_calls(tree):
    """Calls in a client transport that belong to the call engine."""
    found = []
    for node in pyast.walk(tree):
        if not isinstance(node, pyast.Call):
            continue
        name = _last_name(node.func)
        if name in ENGINE_CALLS:
            found.append((node, name))
        elif (name == "coerce" and isinstance(node.func, pyast.Attribute)
                and _last_name(node.func.value) == "Deadline"):
            found.append((node, "Deadline.coerce"))
    return found


def _breaker_calls(node, found):
    """Breaker charges under *node*, skipping the owners' bodies."""
    for child in pyast.iter_child_nodes(node):
        if (isinstance(child, (pyast.FunctionDef, pyast.AsyncFunctionDef,
                               pyast.ClassDef))
                and child.name in BREAKER_OWNERS):
            continue
        if (isinstance(child, pyast.Call)
                and _last_name(child.func) in BREAKER_CALLS):
            found.append(child)
        _breaker_calls(child, found)
    return found


def _layout_copies(tree):
    """``(node, what)`` for IDL type-node references and spelled
    expected-length parameter names."""
    found = []
    for node in pyast.walk(tree):
        if (isinstance(node, pyast.Attribute) and node.attr in LAYOUT_TYPES
                and _last_name(node.value) in ("idl", "idl_ast")):
            found.append((node, f"idl.{node.attr}"))
            continue
        if isinstance(node, pyast.JoinedStr):
            text = "".join(
                part.value if isinstance(part, pyast.Constant) else "{}"
                for part in node.values)
        elif isinstance(node, pyast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        name = EXPECTED_LEN_NAME.search(text)
        if name:
            found.append((node, repr(name.group(0))))
    return found


def check(modules):
    findings = []
    for module in modules:
        rel = module.package_rel
        if not rel.startswith(RPCGEN_PREFIX):
            for node, what in _layout_copies(module.tree):
                findings.append(Finding(
                    rule="wire-layout-outside-rpcgen",
                    path=module.rel,
                    line=node.lineno,
                    message=(f"{what} outside repro/rpcgen: the wire "
                             f"layout and the entry parameters are the "
                             f"stub contract's (rpcgen/contract.py); "
                             f"read its layout, shapes and role-bound "
                             f"signatures"),
                ))
        if (rel == MUX_MODULE
                or rel.startswith(CLIENT_PREFIX) and rel != ENGINE_MODULE):
            for call, name in _engine_calls(module.tree):
                findings.append(Finding(
                    rule="retransmission-outside-engine",
                    path=module.rel,
                    line=call.lineno,
                    message=(f"{name}() in a client transport: deadlines, "
                             f"retransmission, the retry budget and call "
                             f"stats live only in CallEngine "
                             f"(clnt_core.py); a transport moves messages"),
                ))
        if rel == RESILIENCE_MODULE:
            for call in _breaker_calls(module.tree, []):
                findings.append(Finding(
                    rule="breaker-outside-settle",
                    path=module.rel,
                    line=call.lineno,
                    message=(f"{_last_name(call.func)}() outside "
                             f"FailoverClient._settle: the breaker rule "
                             f"maps an attempt's outcome once; pass the "
                             f"attempt to _settle"),
                ))
        if rel.startswith(TRANSPORT_PREFIX) and rel != CORE_MODULE:
            for call in _core_calls(module.tree):
                findings.append(Finding(
                    rule="admission-outside-core",
                    path=module.rel,
                    line=call.lineno,
                    message=(f"{_last_name(call.func)}() in a server "
                             f"transport: registry wiring, admission, "
                             f"shedding and drain live only in RpcServer "
                             f"(svc_core.py); a transport moves messages"),
                ))
        if rel == DRC_MODULE:
            continue
        for node, what, function in _protocol_calls(module.tree, None, []):
            if (rel, function) == SPINE:
                continue
            findings.append(Finding(
                rule="drc-outside-spine",
                path=module.rel,
                line=node.lineno,
                message=(f"{what} outside the dispatch spine: the "
                         f"at-most-once protocol and its execution count "
                         f"live only in SvcRegistry._spine; make this a "
                         f"route body that returns its reply"),
            ))
    return findings
