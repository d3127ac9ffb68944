"""Runtime value model shared by the MiniC interpreter and the Tempo
specializer.

MiniC memory objects:

* :class:`Cell` — one scalar variable / struct field / array element.
  Cells may carry a synthetic data address (``addr``); addressed cells
  generate LOAD/STORE trace events, unaddressed cells model values a
  compiler would keep in registers.
* :class:`StructVal` — a struct instance: named field cells laid out
  contiguously.
* :class:`ArrayVal` — an array instance: element cells laid out
  contiguously.
* :class:`Buffer` — a byte-addressed region (the XDR output/input
  buffers).  Integer stores are big-endian, matching XDR's on-the-wire
  format (MiniC's abstract machine is big-endian, so ``htonl`` is the
  identity — exactly as on the paper's SPARC platform).

Pointers:

* :class:`CellPtr` — address of a cell (possibly an element of an
  :class:`ArrayVal`, in which case pointer arithmetic moves by elements).
* :class:`BufPtr` — byte-granular cursor into a :class:`Buffer` (the
  ``x_private`` cursor of the XDR code).
"""

import struct

from repro.errors import InterpError
from repro.minic import types as ct


class AddressSpace:
    """Bump allocator handing out synthetic data addresses."""

    STACK_BASE = 0x1000_0000
    HEAP_BASE = 0x2000_0000

    def __init__(self):
        self._next_stack = self.STACK_BASE
        self._next_heap = self.HEAP_BASE

    def alloc_stack(self, size):
        addr = self._next_stack
        self._next_stack += _round_up(size, 4)
        return addr

    def alloc_heap(self, size):
        addr = self._next_heap
        self._next_heap += _round_up(size, 8)
        return addr


def _round_up(value, align):
    return (value + align - 1) // align * align


class Cell:
    """A mutable storage location holding one MiniC value."""

    __slots__ = ("value", "ctype", "addr")

    def __init__(self, value=0, ctype=ct.INT, addr=None):
        self.value = value
        self.ctype = ctype
        self.addr = addr

    def size(self):
        if self.ctype.is_pointer:
            return 4
        try:
            return self.ctype.size()
        except Exception:
            return 4

    def __repr__(self):
        return f"Cell({self.value!r}: {self.ctype})"


class StructVal:
    """A struct instance with contiguously addressed field cells."""

    __slots__ = ("stype", "fields", "addr")

    def __init__(self, stype, space=None, addr=None):
        self.stype = stype
        self.addr = addr
        if addr is None and space is not None:
            self.addr = space.alloc_heap(stype.size())
        self.fields = {}
        offset = 0
        for fname, ftype in stype.fields:
            faddr = None if self.addr is None else self.addr + offset
            if isinstance(ftype, ct.StructType):
                self.fields[fname] = Cell(
                    StructVal(ftype, addr=faddr), ftype, faddr
                )
            elif isinstance(ftype, ct.ArrayType):
                self.fields[fname] = Cell(
                    ArrayVal(ftype, addr=faddr), ftype, faddr
                )
            else:
                self.fields[fname] = Cell(_zero_of(ftype), ftype, faddr)
            offset += ftype.size()

    def field(self, name):
        try:
            return self.fields[name]
        except KeyError:
            raise InterpError(
                f"struct {self.stype.name} has no field {name!r}"
            ) from None

    def __repr__(self):
        return f"StructVal({self.stype.name})"


class ArrayVal:
    """An array instance with contiguously addressed element cells."""

    __slots__ = ("atype", "cells", "addr")

    def __init__(self, atype, space=None, addr=None):
        self.atype = atype
        self.addr = addr
        if addr is None and space is not None:
            self.addr = space.alloc_heap(atype.size())
        elem = atype.base
        elem_size = elem.size()
        base = self.addr
        addrs = (range(base, base + atype.length * elem_size, elem_size)
                 if base is not None else [None] * atype.length)
        if isinstance(elem, ct.StructType):
            self.cells = [Cell(StructVal(elem, addr=eaddr), elem, eaddr)
                          for eaddr in addrs]
        else:
            zero = _zero_of(elem)
            self.cells = [Cell(zero, elem, eaddr) for eaddr in addrs]

    def elem(self, index):
        if not 0 <= index < len(self.cells):
            raise InterpError(
                f"array index {index} out of bounds [0, {len(self.cells)})"
            )
        return self.cells[index]

    def values(self):
        return [cell.value for cell in self.cells]

    def set_values(self, values):
        if len(values) > len(self.cells):
            raise InterpError("too many initializer values")
        for cell, value in zip(self.cells, values):
            cell.value = ct.wrap_int(value, cell.ctype)

    def __len__(self):
        return len(self.cells)

    def __repr__(self):
        return f"ArrayVal({self.atype})"


def _zero_of(ctype):
    if isinstance(ctype, ct.PointerType):
        return NULL
    return 0


class Buffer:
    """A byte-addressed memory region; integer access is big-endian."""

    __slots__ = ("data", "addr", "name")

    def __init__(self, size, space=None, addr=None, name="buf"):
        self.data = bytearray(size)
        self.name = name
        self.addr = addr
        if addr is None and space is not None:
            self.addr = space.alloc_heap(size)
        if self.addr is None:
            self.addr = 0

    def __len__(self):
        return len(self.data)

    def check(self, offset, size):
        if offset < 0 or offset + size > len(self.data):
            raise InterpError(
                f"buffer {self.name!r} access [{offset}, {offset + size})"
                f" out of bounds (size {len(self.data)})"
            )

    def store_int(self, offset, value, size, signed):
        self.check(offset, size)
        value &= (1 << (8 * size)) - 1
        self.data[offset:offset + size] = value.to_bytes(size, "big")

    def load_int(self, offset, size, signed):
        self.check(offset, size)
        value = int.from_bytes(self.data[offset:offset + size], "big")
        if signed:
            limit = 1 << (8 * size - 1)
            if value >= limit:
                value -= limit << 1
        return value

    def store_u32(self, offset, value):
        self.check(offset, 4)
        struct.pack_into(">I", self.data, offset, value & 0xFFFFFFFF)

    def fill_zero(self, offset, size):
        self.check(offset, size)
        self.data[offset:offset + size] = bytes(size)

    def bytes(self):
        return bytes(self.data)

    def __repr__(self):
        return f"Buffer({self.name!r}, {len(self.data)} bytes)"


class Pointer:
    """Base class for MiniC pointer values."""

    __slots__ = ()


class NullPtr(Pointer):
    __slots__ = ()

    def __repr__(self):
        return "NULL"

    def __bool__(self):
        return False


NULL = NullPtr()


class CellPtr(Pointer):
    """Pointer to a cell.  If the cell came from an :class:`ArrayVal`,
    ``array``/``index`` enable element-granular pointer arithmetic."""

    __slots__ = ("cell", "array", "index")

    def __init__(self, cell, array=None, index=0):
        self.cell = cell
        self.array = array
        self.index = index

    def add(self, elems):
        if self.array is None:
            if elems == 0:
                return self
            raise InterpError("pointer arithmetic past a scalar object")
        new_index = self.index + elems
        return CellPtr(self.array.elem(new_index), self.array, new_index)

    def diff(self, other):
        if not isinstance(other, CellPtr) or other.array is not self.array:
            raise InterpError("subtracting unrelated pointers")
        return self.index - other.index

    def mem_addr(self):
        return self.cell.addr or 0

    def __eq__(self, other):
        if isinstance(other, CellPtr):
            return self.cell is other.cell
        return NotImplemented

    def __hash__(self):
        return id(self.cell)

    def __repr__(self):
        return f"CellPtr({self.cell!r})"


class BufPtr(Pointer):
    """Byte-granular cursor into a :class:`Buffer`.

    ``elem_size`` is the size of the pointed-to element as seen through
    the pointer's static type (``caddr_t`` cursors use 1)."""

    __slots__ = ("buffer", "offset", "elem_size", "signed")

    def __init__(self, buffer, offset=0, elem_size=1, signed=True):
        self.buffer = buffer
        self.offset = offset
        self.elem_size = elem_size
        self.signed = signed

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

    def with_type(self, ctype):
        """Reinterpret the cursor through a new pointee type (C cast)."""
        if isinstance(ctype, ct.PointerType) and ctype.base.is_integer:
            return BufPtr(
                self.buffer, self.offset, ctype.base.size(), ctype.base.signed
            )
        return BufPtr(self.buffer, self.offset, 1, True)

    def load(self):
        return self.buffer.load_int(self.offset, self.elem_size, self.signed)

    def store(self, value):
        self.buffer.store_int(self.offset, value, self.elem_size, self.signed)

    def mem_addr(self):
        return self.buffer.addr + self.offset

    def __eq__(self, other):
        if isinstance(other, BufPtr):
            return self.buffer is other.buffer and self.offset == other.offset
        return NotImplemented

    def __hash__(self):
        return hash((id(self.buffer), self.offset))

    def __repr__(self):
        return f"BufPtr({self.buffer.name!r}+{self.offset})"


def make_value(ctype, space=None):
    """Construct a default value/instance for a declared type."""
    if isinstance(ctype, ct.StructType):
        return StructVal(ctype, space=space)
    if isinstance(ctype, ct.ArrayType):
        return ArrayVal(ctype, space=space)
    if isinstance(ctype, ct.PointerType):
        return NULL
    return 0
