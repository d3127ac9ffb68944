"""Reproduction of *Fast, Optimized Sun RPC Using Automatic Program
Specialization* (Muller, Marlet, Volanschi, Consel, Pu, Goel — INRIA
RR-3220 / ICDCS 1998).

The package is organized as the paper's system is:

``repro.minic``
    A small C subset (the vehicle the specializer operates on).  The Sun
    RPC marshaling micro-layers are expressed in MiniC, statement for
    statement, so the specialization opportunities of the paper (operation
    dispatch, buffer-overflow accounting, exit-status propagation, array
    loops) exist in the same shape here.

``repro.tempo``
    The paper's contribution: an automatic program specializer (partial
    evaluator) with the refinements the paper names — partially-static
    structures, flow sensitivity, context sensitivity and static returns.

``repro.xdr`` / ``repro.rpc`` / ``repro.rpcgen``
    A faithful pure-Python Sun XDR (RFC 1014) and Sun RPC (RFC 1057)
    stack, plus an ``rpcgen``-style stub compiler for ``.x`` interface
    files.  These provide real, runnable distributed-system substrates
    (UDP and TCP loopback round-trips).

``repro.specialized``
    The end-to-end pipeline: IDL -> MiniC stubs -> Tempo -> residual
    program -> compiled Python marshaler.

``repro.simulator``
    Calibrated cost models of the paper's two 1997 platforms (Sun IPX /
    SunOS / ATM and 166 MHz Pentium / Linux / Fast Ethernet) used to
    regenerate the paper's tables and figures from MiniC execution traces.

``repro.bench``
    The experiment harness regenerating every table and figure of the
    paper's evaluation section.
"""

import importlib
import sys

__version__ = "1.0.0"

__all__ = ["__version__"]


def lazy_exports(package, exports):
    """A PEP 562 module ``__getattr__`` for ``package``: its re-exported
    names resolve on first use.  ``exports`` maps each submodule to the
    (space-separated) names taken from it; a process that imports one
    of them does not load — and compile — the others' submodules."""
    home = {name: module for module, names in exports.items()
            for name in names.split()}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home[name]}")
        value = getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
