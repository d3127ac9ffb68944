"""Runtime support for MiniC programs compiled to Python.

:mod:`repro.minic.compile_py` translates MiniC functions into Python
source; the generated code calls into this module for the pieces of C
semantics that have no direct Python spelling: pointer values and
byte-addressed buffers (32-bit wrapping is emitted inline; the helpers
here serve the pointer views).

Struct instances are generated classes with ``__slots__``; arrays are
Python lists; buffers are :class:`PyBuffer` (a thin ``bytearray``
wrapper with big-endian integer access, matching the MiniC abstract
machine and XDR's wire format).
"""

import struct

from repro.errors import InterpError


def wrap_i32(value):
    value &= 0xFFFFFFFF
    return value - 0x1_0000_0000 if value > 0x7FFFFFFF else value


def wrap_u32(value):
    return value & 0xFFFFFFFF


def c_div(left, right):
    if right == 0:
        raise InterpError("division by zero")
    quotient = abs(left) // abs(right)
    if (left < 0) != (right < 0):
        quotient = -quotient
    return quotient


def c_mod(left, right):
    return left - c_div(left, right) * right


def htons(value):
    return value & 0xFFFF


ntohs = htons


def truthy(value):
    if value is None:
        return False
    if isinstance(value, Ptr):
        return not isinstance(value, NullPtr)
    return value != 0


class PyBuffer:
    """Byte-addressed buffer; integer access is big-endian."""

    __slots__ = ("data",)

    def __init__(self, size_or_bytes):
        self.data = bytearray(size_or_bytes)

    def __len__(self):
        return len(self.data)

    def bytes(self):
        return bytes(self.data)


class Ptr:
    """Base class for compiled pointer values."""

    __slots__ = ()


class NullPtr(Ptr):
    __slots__ = ()

    def get(self):
        raise InterpError("NULL pointer dereference")

    set = get

    def __repr__(self):
        return "NULL"


NULL = NullPtr()


class VarPtr(Ptr):
    """Pointer to a scalar local: a one-element list box."""

    __slots__ = ("box",)

    def __init__(self, box):
        self.box = box

    def get(self):
        return self.box[0]

    def set(self, value):
        self.box[0] = value

    def add(self, elems):
        if elems:
            raise InterpError("pointer arithmetic past a scalar object")
        return self

    def __eq__(self, other):
        return isinstance(other, VarPtr) and other.box is self.box

    def __hash__(self):
        return id(self.box)


class FieldPtr(Ptr):
    """Pointer to a struct field (``&objp->int1``)."""

    __slots__ = ("obj", "field")

    def __init__(self, obj, field):
        self.obj = obj
        self.field = field

    def get(self):
        return getattr(self.obj, self.field)

    def set(self, value):
        setattr(self.obj, self.field, value)

    def add(self, elems):
        if elems:
            raise InterpError("pointer arithmetic past a struct field")
        return self

    def __eq__(self, other):
        return (
            isinstance(other, FieldPtr)
            and other.obj is self.obj
            and other.field == self.field
        )

    def __hash__(self):
        return hash((id(self.obj), self.field))


class ElemPtr(Ptr):
    """Pointer into a Python-list-backed MiniC array."""

    __slots__ = ("array", "index")

    def __init__(self, array, index=0):
        self.array = array
        self.index = index

    def get(self):
        return self.array[self.index]

    def set(self, value):
        self.array[self.index] = value

    def add(self, elems):
        return ElemPtr(self.array, self.index + elems)

    def diff(self, other):
        if not isinstance(other, ElemPtr) or other.array is not self.array:
            raise InterpError("subtracting unrelated pointers")
        return self.index - other.index

    def __eq__(self, other):
        return (
            isinstance(other, ElemPtr)
            and other.array is self.array
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.array), self.index))


class PunPtr(Ptr):
    """A 32-bit integer object seen through a pointer of the other
    signedness (Sun RPC's ``(long *)ulp``).  Loads convert to the view's
    range and stores back to the object's, so the object keeps holding a
    value of its own declared type — the invariant compiled code elides
    wraps on."""

    __slots__ = ("inner", "signed")

    def __init__(self, inner, signed):
        self.inner = inner
        self.signed = signed

    def get(self):
        return (wrap_i32 if self.signed else wrap_u32)(self.inner.get())

    def set(self, value):
        self.inner.set((wrap_u32 if self.signed else wrap_i32)(value))

    def add(self, elems):
        return PunPtr(self.inner.add(elems), self.signed)

    def __eq__(self, other):
        return self.inner == getattr(other, "inner", other)

    def __hash__(self):
        return hash(self.inner)


_PACK_FMT = {
    (4, True): ">i",
    (4, False): ">I",
    (2, True): ">h",
    (2, False): ">H",
    (1, True): ">b",
    (1, False): ">B",
}


class BufPtr(Ptr):
    """Byte-granular cursor into a :class:`PyBuffer`."""

    __slots__ = ("buffer", "offset", "elem_size", "signed")

    def __init__(self, buffer, offset=0, elem_size=1, signed=True):
        self.buffer = buffer
        self.offset = offset
        self.elem_size = elem_size
        self.signed = signed

    def get(self):
        fmt = _PACK_FMT[(self.elem_size, self.signed)]
        try:
            return struct.unpack_from(fmt, self.buffer.data, self.offset)[0]
        except struct.error as exc:
            raise InterpError(f"buffer read out of bounds: {exc}") from exc

    def set(self, value):
        """Store ``value``, which compiled code has already converted to
        the view's type: ``struct.error`` for one a caller let in out of
        range, never a silent wrap."""
        fmt = _PACK_FMT[(self.elem_size, self.signed)]
        if self.offset < 0 or self.offset + self.elem_size > len(
            self.buffer.data
        ):
            raise InterpError("buffer write out of bounds")
        struct.pack_into(fmt, self.buffer.data, self.offset, value)

    def add(self, elems):
        return BufPtr(
            self.buffer,
            self.offset + elems * self.elem_size,
            self.elem_size,
            self.signed,
        )

    def diff(self, other):
        if not isinstance(other, BufPtr) or other.buffer is not self.buffer:
            raise InterpError("subtracting unrelated pointers")
        return (self.offset - other.offset) // self.elem_size

    def with_type(self, elem_size, signed):
        return BufPtr(self.buffer, self.offset, elem_size, signed)

    def __eq__(self, other):
        return (
            isinstance(other, BufPtr)
            and other.buffer is self.buffer
            and other.offset == self.offset
        )

    def __hash__(self):
        return hash((id(self.buffer), self.offset))


def ptr_add(pointer, elems):
    if not isinstance(pointer, Ptr):
        raise InterpError(f"arithmetic on non-pointer {pointer!r}")
    return pointer.add(elems)


def ptr_diff(left, right):
    return left.diff(right)


def bzero(pointer, length):
    if isinstance(pointer, BufPtr):
        pointer.buffer.data[pointer.offset:pointer.offset + length] = bytes(
            length
        )
    elif isinstance(pointer, ElemPtr):
        # Array of 4-byte ints: zero length//4 elements.
        for index in range(length // 4):
            pointer.array[pointer.index + index] = 0
    else:
        raise InterpError("bzero needs a buffer or array pointer")


def memcpy(dst, src, length):
    if isinstance(dst, BufPtr) and isinstance(src, BufPtr):
        dst.buffer.data[dst.offset:dst.offset + length] = src.buffer.data[
            src.offset:src.offset + length
        ]
    else:
        raise InterpError("memcpy supports buffer pointers only")


def cast_ptr(value, elem_size, signed, punned=False):
    """C pointer cast: buffer cursors change their view; ``punned`` marks
    a cast between 32-bit pointees of opposite signedness."""
    if isinstance(value, BufPtr):
        return value.with_type(elem_size, signed)
    if punned and not isinstance(value, NullPtr):
        return PunPtr(value, signed)
    return value


def c_abort():
    raise InterpError("program called abort()")
