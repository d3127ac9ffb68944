"""Symbolic execution of MiniC programs, for the equivalence verifier.

This reuses the reference interpreter (:mod:`repro.minic.interp`) and
its value model (:mod:`repro.minic.values`) wholesale: the compiled
engine (evaluation order, steps, frames, calls), structs, arrays and
pointers are shared unchanged.  What changes is the *value domain* — a
value is either a concrete Python int (interpreted exactly as the
reference interpreter does) or a :class:`SymVal`, an expression tree
over named 32-bit unknowns — and :class:`SymbolicInterpreter` supplies
only that domain's hooks.

The symbolic domain is deliberately small, because residual marshaling
code is deliberately simple: after specialization the codecs are
(mostly) straight-line loads, ``htonl`` byte-swaps, masks, adds, and
byte stores.  The executor:

* folds every operation on concrete operands exactly like the
  reference interpreter (same wrapping, same division semantics);
* builds normalized expression nodes for operations on symbolic
  operands (``x & 0xFFFFFFFF`` folds to ``x``, byte extraction of a
  concrete value folds to the byte, reassembling the four bytes of one
  symbol folds back to the symbol);
* decides branches only when it can do so *soundly*: a comparison of
  structurally identical expressions is decided, everything else
  raises :class:`Undecidable` — the verifier treats that as "cannot
  prove equivalence", never as "equivalent".

Symbolic values are tracked as **32-bit residues**: an expression
denotes its value modulo 2**32.  Byte-level output comparison is
insensitive to how those bits are read, so a node carries signedness
only where the residue depends on it: an operator in
:data:`SIGN_SENSITIVE` computed in a signed type is
tagged (``s>>`` is an arithmetic shift, ``>>`` a logical one; likewise
``s/``, ``s%`` and the signed comparisons), and narrowing to a signed
type smaller than 32 bits is a ``sext`` node.  So ``x >> 4`` and
``(int)((unsigned)x >> 4)`` are *different* expressions.  Comparisons
on symbolic values are never decided (they raise
:class:`Undecidable`), keeping the executor sound.
"""

import functools

from repro.errors import ReproError
from repro.minic import types as ct
from repro.minic import values as rv
from repro.minic.interp import Interpreter, int_op

MASK32 = 0xFFFFFFFF

#: operators whose result on the same bits depends on the signedness of
#: the type they are computed in
SIGN_SENSITIVE = frozenset((">>", "/", "%", "<", "<=", ">", ">="))


class Undecidable(ReproError):
    """A branch (or operation) depends on a symbolic value in a way the
    executor cannot soundly decide."""

    def __init__(self, expr, why="branch depends on symbolic value"):
        super().__init__(f"{why}: {expr!r}")
        self.expr = expr


class SymVal:
    """An immutable symbolic expression over 32-bit unknowns.

    Nodes: ``("var", name)``; ``("bin", op, left, right)``;
    ``("byte", value, shift)``, that is ``(value >> shift) & 0xFF``;
    ``("cat", parts...)``, the big-endian concatenation of byte
    expressions; and ``("sext", bits, value)``, the low ``bits`` of
    ``value`` sign-extended.  Structural equality is semantic equality
    (the same expression over the same unknowns denotes the same
    value), which is the only direction the verifier relies on.
    """

    __slots__ = ("node", "_hash")

    def __init__(self, node):
        self.node = node
        self._hash = hash(node)

    def __eq__(self, other):
        if isinstance(other, SymVal):
            return self.node == other.node
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SymVal({render(self)})"

    # The byte-swap builtins mask their operand with ``&``; that is the
    # one operator a symbolic value answers directly.  Everything else
    # goes through :func:`sym_bin` via the interpreter's value domain.
    def __and__(self, other):
        return sym_bin("&", self, other)

    def __rand__(self, other):
        return sym_bin("&", other, self)

    def __int__(self):
        # Every interpreter path that insists on a concrete value
        # (``int(length)``, pointer arithmetic, …) fails closed.
        raise Undecidable(
            self, "symbolic value where a concrete int is required"
        )


def sym(name):
    """A fresh named 32-bit unknown."""
    return SymVal(("var", name))


def is_sym(value):
    return isinstance(value, SymVal)


def render(value):
    """Human-readable form of a concrete or symbolic value."""
    if not isinstance(value, SymVal):
        return repr(value)
    node = value.node
    if node[0] == "var":
        return node[1]
    if node[0] == "bin":
        return f"({render(node[2])} {node[1]} {render(node[3])})"
    if node[0] == "byte":
        return f"byte({render(node[1])}, {node[2]})"
    if node[0] == "cat":
        return "cat(" + ", ".join(render(p) for p in node[1:]) + ")"
    if node[0] == "sext":
        return f"sext{node[1]}({render(node[2])})"
    return repr(node)


def _residue(value):
    """Concrete ints are compared as unsigned 32-bit residues, matching
    the symbolic domain (see module docstring)."""
    if isinstance(value, int):
        return value & MASK32
    return value


def values_equal(left, right):
    """Sound structural equality of two concrete-or-symbolic values.

    ``True`` means provably equal for every assignment of the
    unknowns; ``False`` means *not provably equal* (which the verifier
    reports as inequivalence — it may occasionally be a precision loss,
    never an unsound acceptance)."""
    return _residue(left) == _residue(right)


_COMPARISONS = frozenset(("==", "!=", "<", "<=", ">", ">="))


def _base_op(op):
    """The C operator of a node's (possibly sign-tagged) ``op``."""
    return op[1:] if op[0] == "s" else op


def sym_bin(op, left, right, signed=False):
    """Build (and simplify) a binary expression node; ``signed`` says
    the operator is computed in a signed type."""
    if isinstance(left, int) and isinstance(right, int):
        # Concrete operands never reach here from the interpreter (it
        # folds them), but simplification rules recurse through this.
        return int_op(op, ct.INT if signed else ct.UNSIGNED)(left, right)
    if op == "&":
        for a, b in ((left, right), (right, left)):
            if isinstance(b, int):
                mask = b & MASK32
                if mask == MASK32:
                    return _residue(a) if isinstance(a, int) else a
                if mask == 0:
                    return 0
                # (x & m1) & m2 -> x & (m1 & m2)
                if (isinstance(a, SymVal) and a.node[0] == "bin"
                        and a.node[1] == "&"
                        and isinstance(a.node[3], int)):
                    return sym_bin("&", a.node[2], a.node[3] & mask)
    if op in ("+", "-", "|", "^", "<<", ">>") and right == 0:
        return left
    if op in ("+", "|", "^") and left == 0:
        return right
    if op == "*" and 1 in (left, right):
        return left if right == 1 else right
    if op == "*" and 0 in (left, right):
        return 0
    if op == "==" and values_equal(left, right):
        return 1
    if op == "!=" and values_equal(left, right):
        return 0
    if signed and op in SIGN_SENSITIVE:
        op = "s" + op
    return SymVal(("bin", op, _freeze(left), _freeze(right)))


def sym_sext(value, width):
    """``value``, ``width`` bytes wide, read as a signed number."""
    if isinstance(value, int):
        limit = 1 << (8 * width - 1)
        return value - (limit << 1) if value >= limit else value
    if width >= 4:
        return value
    return SymVal(("sext", 8 * width, value))


def sym_wrap(value, ctype):
    """``ct.wrap_int`` on a symbolic value: the residue of ``value``
    as an object of the integer type ``ctype``."""
    if not isinstance(ctype, ct.IntType) or ctype.width >= 4:
        return value
    narrowed = sym_bin("&", value, (1 << (8 * ctype.width)) - 1)
    return sym_sext(narrowed, ctype.width) if ctype.signed else narrowed


def _freeze(value):
    if isinstance(value, SymVal):
        return value
    if isinstance(value, int):
        return value
    raise Undecidable(value, "non-scalar operand in symbolic expression")


def sym_byte(value, shift):
    """``(value >> shift) & 0xFF`` as an expression."""
    if isinstance(value, int):
        return (value >> shift) & 0xFF
    node = value.node
    if node[0] == "byte" and shift == 0:
        return value
    if node[0] == "bin" and node[1] == "&" and isinstance(node[3], int):
        window = (node[3] >> shift) & 0xFF
        if window == 0xFF:
            return sym_byte(node[2], shift)
        if window == 0:
            return 0
    if node[0] == "cat":
        # byte k of cat(b0..bn-1): big-endian, each part one byte.
        parts = node[1:]
        index = len(parts) - 1 - shift // 8
        if shift % 8 == 0 and 0 <= index < len(parts):
            return parts[index]
    return SymVal(("byte", _freeze(value), shift))


def sym_cat(parts):
    """Reassemble big-endian byte expressions into one value."""
    if all(isinstance(p, int) for p in parts):
        value = 0
        for part in parts:
            value = (value << 8) | (part & 0xFF)
        return value
    # The common reassembly: the N bytes of one expression, in order.
    if len(parts) in (2, 4):
        first = parts[0]
        if isinstance(first, SymVal) and first.node[0] == "byte":
            base, top_shift = first.node[1], first.node[2]
            if top_shift == 8 * (len(parts) - 1) and all(
                isinstance(p, SymVal)
                and p.node == ("byte", base, top_shift - 8 * i)
                for i, p in enumerate(parts)
            ):
                if len(parts) == 4:
                    return base
                return sym_bin("&", base, (1 << (8 * len(parts))) - 1)
    frozen = []
    for part in parts:
        if isinstance(part, SymVal):
            frozen.append(part)
        elif isinstance(part, int):
            frozen.append(part & 0xFF)
        else:
            raise Undecidable(part, "unsupported byte expression")
    return SymVal(("cat", *frozen))


class SymBuffer(rv.Buffer):
    """A byte buffer whose cells are concrete ints *or* byte
    expressions.  Bounds are checked exactly like the concrete
    :class:`~repro.minic.values.Buffer`; a ``written`` bitmap records
    which bytes any store touched (the verifier uses it to prove the
    marshaled output has no uninitialized bytes)."""

    __slots__ = ("written",)

    def __init__(self, size_or_bytes, name="buf"):
        if isinstance(size_or_bytes, int):
            super().__init__(size_or_bytes, name=name)
            self.data = [0] * size_or_bytes
            self.written = bytearray(size_or_bytes)
        else:
            initial = list(size_or_bytes)
            super().__init__(len(initial), name=name)
            self.data = initial
            self.written = bytearray([1] * len(initial))

    def store_int(self, offset, value, size, signed):
        self.check(offset, size)
        if isinstance(value, int):
            value &= (1 << (8 * size)) - 1
            for k in range(size):
                self.data[offset + k] = (value >> (8 * (size - 1 - k))) & 0xFF
        else:
            for k in range(size):
                self.data[offset + k] = sym_byte(value, 8 * (size - 1 - k))
        self.written[offset:offset + size] = bytes([1]) * size

    def load_int(self, offset, size, signed):
        self.check(offset, size)
        parts = self.data[offset:offset + size]
        value = sym_cat(parts)
        return sym_sext(value, size) if signed else value

    def store_u32(self, offset, value):
        self.store_int(offset, value, 4, False)

    def fill_zero(self, offset, size):
        self.check(offset, size)
        self.data[offset:offset + size] = [0] * size
        self.written[offset:offset + size] = bytes([1]) * size

    def bytes(self):
        if any(isinstance(b, SymVal) for b in self.data):
            raise Undecidable(self, "buffer holds symbolic bytes")
        return bytes(self.data)

    def sym_bytes(self):
        """The buffer content as a list of int-or-expression bytes."""
        return list(self.data)

    def covered(self, length):
        """True when every byte of ``[0, length)`` was written."""
        return all(self.written[:length])


class SymbolicInterpreter(Interpreter):
    """The reference interpreter over the concrete-or-symbolic value
    domain.  It shares the compiled engine (evaluation order, steps,
    memory, calls) and supplies only what an operator means when an
    operand is symbolic: concrete operands fold exactly as the parent
    folds them; symbolic ones build :func:`sym_bin` nodes and
    :class:`SymBuffer` bytes."""

    #: verification runs are bounded much tighter than general
    #: interpretation — residual codecs are small.
    def __init__(self, program, typeinfo=None, max_steps=2_000_000):
        super().__init__(program, typeinfo=typeinfo, max_steps=max_steps)

    def make_sym_buffer(self, size_or_bytes, name="buf"):
        buffer = SymBuffer(size_or_bytes, name=name)
        buffer.addr = self.space.alloc_heap(len(buffer))
        return buffer

    # -- the value domain ---------------------------------------------------

    @staticmethod
    def truthy(value):
        if isinstance(value, SymVal):
            node = value.node
            if node[0] == "bin" and _base_op(node[1]) in _COMPARISONS:
                raise Undecidable(value, "comparison on symbolic values")
            raise Undecidable(value)
        return Interpreter.truthy(value)

    @staticmethod
    def wrap(value, ctype):
        if isinstance(value, SymVal):
            return sym_wrap(value, ctype)
        return ct.wrap_int(value, ctype)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def binop(op, result_type, op_type):
        concrete = Interpreter.binop(op, result_type, op_type)
        signed = getattr(op_type, "signed", False)

        def lifted(left, right):
            if ((left.__class__ is SymVal or right.__class__ is SymVal)
                    and not isinstance(left, rv.Pointer)
                    and not isinstance(right, rv.Pointer)):
                return sym_bin(op, left, right, signed)
            return concrete(left, right)
        return lifted

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def unop(op, result_type):
        concrete = Interpreter.unop(op, result_type)

        def lifted(operand):
            if isinstance(operand, SymVal):
                if op == "-":
                    return sym_bin("-", 0, operand)
                return sym_bin("^", operand, MASK32)
            return concrete(operand)
        return lifted

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def cast(ctype):
        concrete = Interpreter.cast(ctype)

        def lifted(value):
            if isinstance(value, SymVal):
                if ctype.is_integer:
                    return sym_wrap(value, ctype)
                raise Undecidable(value, "cast of symbolic value to pointer")
            return concrete(value)
        return lifted

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def incdec(delta):
        concrete = Interpreter.incdec(delta)

        def lifted(current):
            if isinstance(current, SymVal):
                return sym_bin("+" if delta > 0 else "-", current, 1)
            return concrete(current)
        return lifted

    @staticmethod
    def index(value):
        if isinstance(value, SymVal):
            raise Undecidable(value, "array index depends on symbolic value")
        return int(value)

    @staticmethod
    def store_buf(location, value):
        if isinstance(value, SymVal):
            location.buffer.store_int(
                location.offset, value, location.elem_size, location.signed
            )
        else:
            location.store(int(value))
