"""``unreferenced-def``: no function or class that nothing names.

A definition under ``src/repro`` whose name occurs nowhere else in the
code of the repository — ``src/``, ``tests/``, ``benchmarks/``,
``examples/``, ``tools/`` — is dead: nothing calls it, subclasses it or
imports it.  The scan is by token, so a name spelled anywhere (a call,
an import, a docstring, a string) counts as a use; dunder methods,
which the interpreter calls, are exempt.  A definition reached only
through a computed name (``getattr(obj, f"visit_{kind}")``) carries
the repository's pragma for this rule, with its reason.
"""

import ast as pyast
import collections
import re
from pathlib import Path

from repro.analysis.findings import Finding

#: where a use of a name counts
CODE_DIRS = ("src", "tests", "benchmarks", "examples", "tools")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (pyast.FunctionDef, pyast.AsyncFunctionDef, pyast.ClassDef)


def _tokens(root):
    counts = collections.Counter()
    for name in CODE_DIRS:
        for path in sorted((root / name).rglob("*.py")):
            if "__pycache__" not in path.parts:
                counts.update(_TOKEN.findall(
                    path.read_text(encoding="utf-8", errors="ignore")))
    return counts


def check(modules, repo_root):
    defs = [(module, node) for module in modules
            for node in pyast.walk(module.tree)
            if isinstance(node, _DEFS)
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))]
    tokens = _tokens(Path(repo_root))
    defined = collections.Counter(node.name for _module, node in defs)
    return [Finding(
        rule="unreferenced-def", path=module.rel, line=node.lineno,
        message=(f"{node.name} is defined here and named nowhere else in"
                 f" {', '.join(CODE_DIRS)}: delete it, or say how it is"
                 " reached"),
        context={"name": node.name})
        for module, node in defs
        if tokens[node.name] <= defined[node.name]]
