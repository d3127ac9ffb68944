"""The MiniC type system.

MiniC models a 1997 32-bit machine: ``int``, ``long``, ``unsigned`` and
``u_long`` are all 4 bytes (as on SPARC and i386 of the period), ``char``
is 1 byte, pointers are 4 bytes.  ``bool_t`` is the Sun RPC alias for
``int``.  Arithmetic wraps at 32 bits with C semantics.
"""

from dataclasses import dataclass, field

from repro.errors import TypeCheckError


@dataclass(frozen=True)
class CType:
    """Base class for MiniC types."""

    def size(self):
        raise NotImplementedError

    @property
    def is_pointer(self):
        return isinstance(self, PointerType)

    @property
    def is_integer(self):
        return isinstance(self, IntType)

    @property
    def is_void(self):
        return isinstance(self, VoidType)


@dataclass(frozen=True)
class VoidType(CType):
    def size(self):
        raise TypeCheckError("void has no size")

    def __str__(self):
        return "void"


@dataclass(frozen=True)
class IntType(CType):
    name: str
    width: int  # bytes
    signed: bool

    def size(self):
        return self.width

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class PointerType(CType):
    base: CType

    def size(self):
        return 4

    def __str__(self):
        return f"{self.base} *"


@dataclass(frozen=True)
class ArrayType(CType):
    base: CType
    length: int

    def size(self):
        return self.base.size() * self.length

    def __str__(self):
        return f"{self.base} [{self.length}]"


@dataclass(frozen=True)
class StructType(CType):
    """A struct type; fields is a tuple of (name, CType)."""

    name: str
    fields: tuple = field(default=(), compare=False)

    def size(self):
        return sum(ftype.size() for _, ftype in self.fields)

    def field_type(self, name):
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        raise TypeCheckError(f"struct {self.name} has no field {name!r}")

    def __str__(self):
        return f"struct {self.name}"


@dataclass(frozen=True)
class FuncType(CType):
    ret: CType
    params: tuple

    def size(self):
        raise TypeCheckError("function type has no size")

    def __str__(self):
        params = ", ".join(str(p) for p in self.params)
        return f"{self.ret} (*)({params})"


VOID = VoidType()
INT = IntType("int", 4, True)
LONG = IntType("long", 4, True)
UNSIGNED = IntType("unsigned", 4, False)
U_INT = IntType("u_int", 4, False)
U_LONG = IntType("u_long", 4, False)
CHAR = IntType("char", 1, True)
BOOL_T = IntType("bool_t", 4, True)
#: ``caddr_t`` is Sun's "core address" — an untyped byte pointer.
CADDR_T = PointerType(CHAR)

_BASE_TYPES = {
    "void": VOID,
    "int": INT,
    "long": LONG,
    "unsigned": UNSIGNED,
    "u_int": U_INT,
    "u_long": U_LONG,
    "char": CHAR,
    "bool_t": BOOL_T,
    "caddr_t": CADDR_T,
}


def base_type(name):
    """Look up a named base type (KeyError on unknown names)."""
    return _BASE_TYPES[name]


def is_base_type(name):
    return name in _BASE_TYPES


_INT_MASK = {1: 0xFF, 4: 0xFFFFFFFF}


def wrap_int(value, ctype):
    """Wrap a Python int to the C value range of ``ctype``."""
    if not isinstance(ctype, IntType):
        return value
    mask = _INT_MASK[ctype.width]
    value &= mask
    if ctype.signed and value > mask >> 1:
        value -= mask + 1
    return value


def common_arith_type(left, right):
    """Usual arithmetic conversions, simplified to the 32-bit world."""
    if isinstance(left, PointerType):
        return left
    if isinstance(right, PointerType):
        return right
    if isinstance(left, IntType) and isinstance(right, IntType):
        if not left.signed or not right.signed:
            return UNSIGNED
        return INT if left.width <= 4 and right.width <= 4 else LONG
    raise TypeCheckError(f"no common type for {left} and {right}")
