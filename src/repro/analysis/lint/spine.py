"""``drc-outside-spine``: the at-most-once protocol is written once.

``DuplicateRequestCache.begin`` / ``put`` / ``abandon`` are the claim
protocol: whoever calls them decides which requests execute and which
replies are replayed.  Every dispatch tier runs under the one copy in
``SvcRegistry._spine``; a second caller — a route body, a transport, a
specialization wrapper — is a second protocol that can silently
diverge from the first.  Any such call outside ``repro/rpc/drc.py``
and the spine function is a finding.

A receiver is taken for a DRC when its last name is ``drc`` or ends
in ``_drc`` (``drc.put``, ``self.drc.begin``, ``self.fallback.drc
.abandon``) — the naming every holder of one in this tree uses.
"""

import ast as pyast

from repro.analysis.findings import Finding

PROTOCOL_CALLS = {"begin", "put", "abandon"}
DRC_MODULE = "repro/rpc/drc.py"
SPINE = ("repro/rpc/server.py", "_spine")


def _is_drc(node):
    name = (node.id if isinstance(node, pyast.Name)
            else node.attr if isinstance(node, pyast.Attribute) else "")
    return name == "drc" or name.endswith("_drc")


def _protocol_calls(node, function, found):
    """Collect ``(call, enclosing function name)`` under *node*."""
    for child in pyast.iter_child_nodes(node):
        inner = function
        if isinstance(child, (pyast.FunctionDef, pyast.AsyncFunctionDef)):
            inner = child.name
        elif (isinstance(child, pyast.Call)
                and isinstance(child.func, pyast.Attribute)
                and child.func.attr in PROTOCOL_CALLS
                and _is_drc(child.func.value)):
            found.append((child, function))
        _protocol_calls(child, inner, found)
    return found


def check(modules):
    findings = []
    for module in modules:
        if module.package_rel == DRC_MODULE:
            continue
        for call, function in _protocol_calls(module.tree, None, []):
            if (module.package_rel, function) == SPINE:
                continue
            findings.append(Finding(
                rule="drc-outside-spine",
                path=module.rel,
                line=call.lineno,
                message=(f"DRC {call.func.attr}() outside the dispatch "
                         f"spine: the at-most-once protocol lives only "
                         f"in SvcRegistry._spine; make this a route body"),
            ))
    return findings
