"""Abstract syntax tree for MiniC.

Every node carries a process-unique ``uid``.  The simulator uses uids as
synthetic *code addresses*: a residual program with an unrolled loop has
many distinct nodes, hence a large instruction-cache footprint, which is
exactly the effect the paper measures in Table 4.
"""

import itertools

_uid_counter = itertools.count(1)


class Node:
    """Base class for all AST nodes."""

    __slots__ = ("uid", "line")

    def __init__(self, line=None):
        self.uid = next(_uid_counter)
        self.line = line

    def children(self):
        """Yield child nodes (used by generic traversals)."""
        return iter(())

    def __repr__(self):
        fields = []
        for name in getattr(self, "_fields", ()):
            fields.append(f"{name}={getattr(self, name)!r}")
        return f"{type(self).__name__}({', '.join(fields)})"


def _make_node(name, field_names, bases=(Node,), extra_slots=()):
    """Create a Node subclass with ``__slots__`` and a keyword ``line``."""

    fields = tuple(field_names.split())

    def __init__(self, *args, line=None):
        Node.__init__(self, line=line)
        if len(args) != len(fields):
            raise TypeError(
                f"{name} expects {len(fields)} args {fields}, got {len(args)}"
            )
        for field, value in zip(fields, args):
            setattr(self, field, value)

    def children(self):
        for field in fields:
            value = getattr(self, field)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    namespace = {
        "__slots__": fields + tuple(extra_slots),
        "__init__": __init__,
        "children": children,
        "_fields": fields,
    }
    return type(name, bases, namespace)


class Expr(Node):
    __slots__ = ()


class Stmt(Node):
    __slots__ = ()


# --- Expressions -----------------------------------------------------------

#: Integer literal.  ``type_hint`` is filled by the type checker.
IntLit = _make_node("IntLit", "value", bases=(Expr,))

#: String literal (only used for diagnostics in the RPC code).
StrLit = _make_node("StrLit", "value", bases=(Expr,))

#: Variable reference.
Var = _make_node("Var", "name", bases=(Expr,))

#: Unary operation: ``op`` in {'-', '!', '~', '*', '&'}.
Unary = _make_node("Unary", "op operand", bases=(Expr,))

#: Binary operation: arithmetic, comparison, logical, shifts, bitwise.
Binary = _make_node("Binary", "op left right", bases=(Expr,))

#: Assignment.  ``op`` is None for plain ``=``, or '+', '-', ... for
#: compound assignment (``+=`` etc.).  ``target`` is an lvalue expression.
Assign = _make_node("Assign", "op target value", bases=(Expr,))

#: Pre/post increment and decrement: ``op`` in {'++', '--'},
#: ``prefix`` is a bool.
IncDec = _make_node("IncDec", "op target prefix", bases=(Expr,))

#: Function call by name.
Call = _make_node("Call", "name args", bases=(Expr,))

#: Struct member access; ``arrow`` selects ``->`` versus ``.``.
Member = _make_node("Member", "obj field arrow", bases=(Expr,))

#: Array subscript.
Index = _make_node("Index", "obj index", bases=(Expr,))

#: C cast; ``ctype`` is a repro.minic.types type.
Cast = _make_node("Cast", "ctype operand", bases=(Expr,))

#: ``cond ? then : other``.
Cond = _make_node("Cond", "cond then other", bases=(Expr,))

#: ``sizeof(type)``; resolved to a constant by the type checker but kept
#: in the tree so pretty-printing is faithful.
SizeOf = _make_node("SizeOf", "ctype", bases=(Expr,))


# --- Statements ------------------------------------------------------------

ExprStmt = _make_node("ExprStmt", "expr", bases=(Stmt,))

#: Local declaration with optional initializer.
Decl = _make_node("Decl", "ctype name init", bases=(Stmt,))

Block = _make_node("Block", "stmts", bases=(Stmt,))

If = _make_node("If", "cond then other", bases=(Stmt,))

While = _make_node("While", "cond body", bases=(Stmt,))

#: ``for (init; cond; step) body``; init/step are expressions or Decl/None.
For = _make_node("For", "init cond step body", bases=(Stmt,))

Return = _make_node("Return", "value", bases=(Stmt,))

Break = _make_node("Break", "", bases=(Stmt,))

Continue = _make_node("Continue", "", bases=(Stmt,))


# --- Top level --------------------------------------------------------------

#: One struct field: declared type and name.
Field = _make_node("Field", "ctype name")

StructDef = _make_node("StructDef", "name fields")

#: Enum definition; ``members`` is a list of (name, value) pairs.
EnumDef = _make_node("EnumDef", "name members")

Param = _make_node("Param", "ctype name")

FuncDef = _make_node("FuncDef", "ret_type name params body")

#: Global variable (rare in the RPC sources; supported for completeness).
GlobalDecl = _make_node("GlobalDecl", "ctype name init")


class Program(Node):
    """A complete MiniC translation unit."""

    # weakly referenced by the interpreter's cache of compiled code
    __slots__ = ("structs", "enums", "funcs", "globals", "__weakref__")

    def __init__(self, structs=None, enums=None, funcs=None, globals=None):
        super().__init__()
        self.structs = structs or []
        self.enums = enums or []
        self.funcs = funcs or []
        self.globals = globals or []

    def children(self):
        for group in (self.structs, self.enums, self.funcs, self.globals):
            yield from group

    def func(self, name):
        """Return the FuncDef called ``name`` (KeyError if absent)."""
        for func in self.funcs:
            if func.name == name:
                return func
        raise KeyError(name)

    def struct(self, name):
        for struct in self.structs:
            if struct.name == name:
                return struct
        raise KeyError(name)

    def has_func(self, name):
        return any(func.name == name for func in self.funcs)

    def __repr__(self):
        return (
            f"Program(structs={len(self.structs)}, enums={len(self.enums)},"
            f" funcs={len(self.funcs)})"
        )


def walk(node):
    """Yield ``node`` and every descendant, pre-order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(current.children())


def count_nodes(node):
    """Number of AST nodes in the subtree — a code-size proxy."""
    return sum(1 for _ in walk(node))
