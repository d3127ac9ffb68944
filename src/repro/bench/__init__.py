"""Experiment harness regenerating the paper's evaluation section.

Each module regenerates one table/figure:

* :mod:`repro.bench.marshaling` — Table 1 (client marshaling, both
  platforms, array sizes 20..2000);
* :mod:`repro.bench.roundtrip` — Table 2 (full RPC round trip);
* :mod:`repro.bench.codesize` — Table 3 (generic vs specialized code
  size);
* :mod:`repro.bench.unrolling` — Table 4 (250-element partial unroll);
* :mod:`repro.bench.figure6` — Figure 6 (all six panels as series);
* :mod:`repro.bench.ablation` — the design-choice ablations DESIGN.md
  calls out (context sensitivity, static returns, unrolling policy).

Run ``python -m repro.bench all`` (or a specific experiment name) to
print the regenerated rows next to the paper's published numbers.

The self-asserting soaks ride the same CLI — :mod:`repro.bench.faults`,
:mod:`repro.bench.chaos` (``chaos`` / ``chaos_mux``),
:mod:`repro.bench.cluster` and :mod:`repro.bench.overload` — and share
their invariant checkers through :mod:`repro.bench.soak`.  Live
performance is not measured here: that is ``benchmarks/ledger``.
"""

from repro.bench.workloads import ARRAY_SIZES, IntArrayWorkload

__all__ = ["ARRAY_SIZES", "IntArrayWorkload"]
