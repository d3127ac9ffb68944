"""Concurrency/discipline linter over the ``repro`` source tree.

The verifier (:mod:`repro.analysis.verify`) proves residual *output*
correct; this package checks the *process-level* disciplines that the
concurrent stack depends on and that no unit test exercises reliably:

* ``lock-order-cycle`` — the lock-acquisition graph (built from
  ``with self._lock:`` nesting plus calls made while a lock is held)
  must be acyclic, or two threads can deadlock;
* ``blocking-under-lock`` — no socket send/recv/accept/connect,
  ``time.sleep``, ``os.fsync`` or subprocess call while holding a
  lock: one slow peer would stall every thread behind the lock;
* ``obs-unguarded`` — hot-path observability calls must be gated on
  ``_obs.enabled`` so the disabled-by-default registry costs nothing;
* ``obs-lookup-on-call-path`` — the functions every request or call
  runs through never get-or-create an instrument: they write the
  per-call record or update a cell resolved once;
* ``bare-except`` / ``overbroad-except`` — transports may not swallow
  arbitrary exceptions (``KeyboardInterrupt`` included) silently;
* ``drc-outside-spine`` — the DRC claim protocol (``begin`` / ``put``
  / ``abandon``) is called only from ``SvcRegistry._spine``, so no
  dispatch tier can carry a diverging copy of at-most-once;
* ``admission-outside-core`` — in the server transports
  (``repro/rpc/svc_*.py`` other than ``svc_core.py``) nothing builds a
  ``WorkerPool`` / ``InflightLimiter``, attaches a journal, or calls
  the registry's shed / drain / enable hooks: that is the core's, once;
* ``retransmission-outside-engine`` — in the client transports
  (``repro/rpc/clnt_*.py`` other than ``clnt_core.py``, and
  ``repro/rpc/mux.py``) nothing calls a retry budget, re-stamps or
  coerces a deadline, or builds a ``CallStats``: that is the engine's;
* ``breaker-outside-settle`` — in ``repro/rpc/resilience.py`` only
  ``FailoverClient._settle`` (and ``CircuitBreaker`` itself) calls
  ``record_failure`` / ``record_success``: the breaker rule, once;
* ``wire-layout-outside-rpcgen`` — outside ``repro/rpcgen/`` nothing
  walks IDL type nodes (``Prim`` / ``FixedArray`` / ``VarArray`` /
  ``Named`` of ``idl``) or spells a generated ``expected_<field>_len`` parameter
  name: the stub contract states the layout and the signatures once;
* ``knob-contract`` — every ``REPRO_*`` environment knob read by the
  source must be documented in docs/OPERATIONS.md and vice versa
  (absorbed from ``tools/check_links.py``);
* ``unreferenced-def`` — a function or class must be named somewhere
  besides its definition, or it is dead code.

Findings are suppressed per-line with
``# repro: disable=<rule> -- <reason>`` pragmas
(:mod:`repro.analysis.findings`).
"""

import ast as pyast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import apply_pragmas, scan_pragmas


@dataclass
class Module:
    """A parsed source module plus everything the rules need."""

    path: Path          # absolute path on disk
    rel: str            # repo-relative posix path ("src/repro/rpc/mux.py")
    source: str
    tree: pyast.Module
    pragmas: list = field(default_factory=list)

    @property
    def package_rel(self):
        """Path relative to ``src/`` ("repro/rpc/mux.py")."""
        prefix = "src/"
        return self.rel[len(prefix):] if self.rel.startswith(prefix) else self.rel


def load_modules(repo_root, subdir="src/repro"):
    """Parse every ``.py`` file under *subdir* into :class:`Module`."""
    root = Path(repo_root)
    modules = []
    for path in sorted((root / subdir).rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        tree = pyast.parse(source, filename=rel)
        modules.append(Module(path=path, rel=rel, source=source, tree=tree,
                              pragmas=scan_pragmas(rel, source)))
    return modules


def run_lint(repo_root, subdir="src/repro"):
    """Run every rule; return ``(findings, stats)`` after pragmas."""
    from repro.analysis.lint import (
        excepts,
        knobs,
        locks,
        obsguard,
        spine,
        unreferenced,
    )

    modules = load_modules(repo_root, subdir)
    findings = []
    findings += locks.check(modules)
    findings += obsguard.check(modules)
    findings += excepts.check(modules)
    findings += spine.check(modules)
    findings += knobs.check(modules, repo_root)
    findings += unreferenced.check(modules, repo_root)
    pragmas = [p for m in modules for p in m.pragmas]
    findings = apply_pragmas(findings, pragmas)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    stats = {
        "modules": len(modules),
        "pragmas": len(pragmas),
        "active": sum(1 for f in findings if not f.suppressed),
    }
    return findings, stats
