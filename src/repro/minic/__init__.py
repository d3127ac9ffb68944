"""MiniC — the C subset on which the Tempo specializer operates.

MiniC is large enough to express the Sun RPC marshaling micro-layers
statement-for-statement (structs, pointers, pointer arithmetic over
buffers, compound assignment, ``for``/``while`` loops, function calls)
and small enough that a complete reference interpreter, type checker,
pretty printer and Python backend fit in a few focused modules.

Public entry points:

* :func:`repro.minic.parser.parse_program` — source text to AST.
* :class:`repro.minic.interp.Interpreter` — reference interpreter with a
  byte-accurate buffer model and an optional instruction-cost trace.
* :func:`repro.minic.compile_py.compile_program` — compile a residual
  program's entry function to executable Python, as its fused entry
  (a function outside the residual subset raises ``CompileError``).
* :func:`repro.minic.pretty.pretty_program` — canonical source rendering,
  also used for the paper's code-size measurements (Table 3).
"""

from repro.minic.parser import parse_program
from repro.minic.pretty import pretty_program
from repro.minic.typecheck import typecheck_program

__all__ = ["parse_program", "pretty_program", "typecheck_program"]
