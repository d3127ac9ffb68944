"""Residual-program construction for the Tempo specializer.

The specializer emits residual statements into a :class:`BlockBuilder`
stack; completed functions are collected by :class:`ResidualProgram`.
All emitted AST nodes are freshly constructed (templates are cloned), so
every occurrence of unrolled code has distinct node identities — the
property the simulator's instruction-cache model depends on.
"""

import copy
import itertools

from repro.minic import ast


class BlockBuilder:
    """A residual statement list under construction."""

    __slots__ = ("stmts", "terminated")

    def __init__(self):
        self.stmts = []
        self.terminated = False

    def emit(self, stmt):
        if not self.terminated:
            self.stmts.append(stmt)

    def mark_terminated(self):
        self.terminated = True

    def to_block(self):
        return ast.Block(list(self.stmts))

    def snapshot(self):
        return (len(self.stmts), self.terminated)

    def rollback(self, snap):
        length, terminated = snap
        del self.stmts[length:]
        self.terminated = terminated


class FunctionBuilder:
    """One residual function under construction.

    Declarations of residual locals are hoisted to the top of the
    function body so materialization inside branches never produces
    out-of-scope uses after the join.
    """

    def __init__(self, name, ret_type):
        self.name = name
        self.ret_type = ret_type
        self.params = []  # (ctype, name)
        self.hoisted_decls = []  # (ctype, name)
        self._decl_names = set()
        self.blocks = [BlockBuilder()]

    # -- naming ------------------------------------------------------------

    def add_param(self, ctype, name):
        self.params.append((ctype, name))
        self._decl_names.add(name)

    def fresh_name(self, base):
        candidate = base
        suffix = 1
        while candidate in self._decl_names:
            suffix += 1
            candidate = f"{base}_{suffix}"
        self._decl_names.add(candidate)
        return candidate

    def hoist_decl(self, ctype, name):
        self.hoisted_decls.append((ctype, name))

    # -- block stack --------------------------------------------------------

    @property
    def block(self):
        return self.blocks[-1]

    def push_block(self):
        block = BlockBuilder()
        self.blocks.append(block)
        return block

    def pop_block(self):
        return self.blocks.pop()

    def emit(self, stmt):
        self.block.emit(stmt)

    def snapshot(self):
        """The open block, the hoisted declarations and the names taken
        (reusable: :meth:`rollback` does not consume it)."""
        return (
            self.block.snapshot(),
            len(self.hoisted_decls),
            frozenset(self._decl_names),
        )

    def rollback(self, snap):
        block, decls, names = snap
        self.block.rollback(block)
        del self.hoisted_decls[decls:]
        self._decl_names = set(names)

    # -- assembly --------------------------------------------------------------

    def build(self):
        assert len(self.blocks) == 1, "unbalanced block stack"
        stmts = [
            ast.Decl(ctype, name, None) for ctype, name in self.hoisted_decls
        ]
        stmts.extend(self.blocks[0].stmts)
        params = [ast.Param(ctype, name) for ctype, name in self.params]
        return ast.FuncDef(
            self.ret_type, self.name, params, ast.Block(stmts)
        )


class ResidualProgram:
    """Collects residual functions and assembles the output Program."""

    def __init__(self, original):
        self.original = original
        self.functions = []  # FuncDef, in creation order
        self._names = set()
        self._name_counter = itertools.count(1)

    def fresh_func_name(self, base):
        candidate = base
        while candidate in self._names or self.original.has_func(candidate):
            candidate = f"{base}_s{next(self._name_counter)}"
        self._names.add(candidate)
        return candidate

    def add_function(self, funcdef):
        self.functions.append(funcdef)

    def snapshot(self):
        """The functions collected and the names handed out so far
        (reusable: :meth:`rollback` does not consume it)."""
        return (
            len(self.functions),
            frozenset(self._names),
            copy.copy(self._name_counter),
        )

    def rollback(self, snap):
        funcs, names, counter = snap
        del self.functions[funcs:]
        self._names = set(names)
        self._name_counter = copy.copy(counter)

    def build(self, entry_first=True):
        """Assemble the residual Program (struct/enum defs are copied
        from the original so residual code type checks stand alone)."""
        program = ast.Program(
            structs=list(self.original.structs),
            enums=list(self.original.enums),
            funcs=list(self.functions),
            globals=list(self.original.globals),
        )
        return program


# -- small residual-expression helpers ------------------------------------------


def is_simple_path(expr):
    """True for expressions cheap and pure enough to substitute at every
    use site instead of binding to a residual temporary: literals,
    variables, member/index paths with literal indices, address-of and
    dereference of such paths."""
    if isinstance(expr, (ast.IntLit, ast.Var)):
        return True
    if isinstance(expr, ast.Member):
        return is_simple_path(expr.obj)
    if isinstance(expr, ast.Index):
        return is_simple_path(expr.obj) and isinstance(expr.index, ast.IntLit)
    if isinstance(expr, ast.Unary) and expr.op in ("&", "*"):
        return is_simple_path(expr.operand)
    if isinstance(expr, ast.Cast):
        return is_simple_path(expr.operand)
    return False
