"""Tempo — an automatic program specializer (partial evaluator) for MiniC.

This package reproduces the transformation engine of the paper: given a
MiniC program, an entry point, and *binding-time assumptions* describing
which inputs are known (static) and which are runtime (dynamic), it
produces a residual MiniC program specialized to the known inputs.

The refinements the paper calls out are all implemented:

* **partially-static structures** — struct fields carry individual
  binding times, so the ``x_op``/``x_handy`` fields of the ``XDR``
  handle specialize away while ``x_private`` stays residual;
* **flow sensitivity** — binding times are per-program-point: a
  variable that is dynamic before a conditional may be static inside a
  branch (the paper's ``inlen == expected_inlen`` rewrite relies on it);
* **context sensitivity** — functions are specialized per call
  context (polyvariantly), so marshaling the static procedure id and
  marshaling dynamic arguments use different specializations of the
  same encoding function;
* **static returns** — a residual call whose return value is static is
  folded at the call site and the residual function becomes ``void``
  (the paper's §3.3 exit-status propagation).

Public API: :func:`repro.tempo.driver.specialize`.
"""

from repro.tempo.assumptions import (
    ArrayOf,
    Dyn,
    DynPtr,
    Known,
    PtrTo,
    StructOf,
)
from repro.tempo.driver import SpecializationResult, specialize

__all__ = [
    "ArrayOf",
    "Dyn",
    "DynPtr",
    "Known",
    "PtrTo",
    "StructOf",
    "SpecializationResult",
    "specialize",
]
