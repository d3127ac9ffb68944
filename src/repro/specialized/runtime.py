"""Runtime glue between Python-land values and compiled residual code.

Compiled residual programs (from :mod:`repro.minic.compile_py`) operate
on :mod:`repro.minic.pyruntime` values: generated struct classes, plain
lists for arrays, :class:`~repro.minic.pyruntime.PyBuffer` cursors.
These converters move data between those and the Python stub structs
(or dict/attribute-style values) the application uses.
"""

import threading

from repro.errors import IdlError, XdrError
from repro.minic import pyruntime as rt
from repro.rpcgen import idl_ast as idl


def _get(value, name):
    if isinstance(value, dict):
        return value[name]
    return getattr(value, name)


_UNSIGNED = idl.Prim("u_int")


def _scalar(resolved, value):
    """One scalar as the generic filters take it: ``xdr_u_long`` masks,
    ``xdr_long`` refuses what does not fit."""
    value = int(value)
    if resolved == _UNSIGNED:
        return value & 0xFFFFFFFF
    if not -0x8000_0000 <= value <= 0x7FFF_FFFF:
        raise XdrError(f"long out of range: {value}")
    return value


def _elements(interface, resolved, value):
    """Array elements for compiled code.  Signed ones are copied as they
    are, with no per-element pass: the residual marshaler packs them
    with a signed format, and that pack is the range (and type) check
    — the caller maps its ``struct.error`` to :class:`XdrError`."""
    if interface.resolve(resolved.elem) == _UNSIGNED:
        return [int(item) & 0xFFFFFFFF for item in value]
    return list(value)


def to_compiled(interface, struct_def, module, value):
    """Build a compiled-module struct instance from a Python value.

    This is the boundary of the compiled code's in-range invariant
    (every integer object holds a value of its declared type): scalars
    are checked here, signed array elements by the pack that sends them.
    """
    obj = module.new_struct(struct_def.name)
    for field in struct_def.fields:
        resolved = interface.resolve(field.type)
        if isinstance(resolved, idl.Prim):
            setattr(obj, field.name,
                    _scalar(resolved, _get(value, field.name)))
        elif isinstance(resolved, idl.FixedArray):
            items = _elements(interface, resolved, _get(value, field.name))
            if len(items) != resolved.size:
                raise IdlError(
                    f"{struct_def.name}.{field.name}: expected"
                    f" {resolved.size} items, got {len(items)}"
                )
            getattr(obj, field.name)[:] = items
        elif isinstance(resolved, idl.VarArray):
            items = _elements(interface, resolved, _get(value, field.name))
            if len(items) > resolved.bound:
                raise IdlError(
                    f"{struct_def.name}.{field.name}: {len(items)} items"
                    f" exceed bound {resolved.bound}"
                )
            setattr(obj, f"{field.name}_len", len(items))
            backing = getattr(obj, field.name)
            backing[:len(items)] = items
        elif isinstance(resolved, idl.Named):
            nested_def = interface.struct(resolved.name)
            nested = to_compiled(
                interface, nested_def, module, _get(value, field.name)
            )
            setattr(obj, field.name, nested)
        else:
            raise IdlError(f"unsupported field type {resolved!r}")
    return obj


def from_compiled(interface, struct_def, obj, factory=None):
    """Extract a plain-dict (or ``factory``-built) value from a compiled
    struct instance."""
    result = {}
    for field in struct_def.fields:
        resolved = interface.resolve(field.type)
        if isinstance(resolved, idl.Prim):
            result[field.name] = getattr(obj, field.name)
        elif isinstance(resolved, idl.FixedArray):
            result[field.name] = list(getattr(obj, field.name))
        elif isinstance(resolved, idl.VarArray):
            length = getattr(obj, f"{field.name}_len")
            result[field.name] = list(getattr(obj, field.name)[:length])
        elif isinstance(resolved, idl.Named):
            nested_def = interface.struct(resolved.name)
            result[field.name] = from_compiled(
                interface, nested_def, getattr(obj, field.name)
            )
        else:
            raise IdlError(f"unsupported field type {resolved!r}")
    if factory is not None:
        return factory(**result)
    return result


def fresh_buffer(size):
    """A new :class:`~repro.minic.pyruntime.PyBuffer`.

    ``size`` may also be bytes-like (including a ``memoryview`` over a
    transport receive buffer): the content is copied in, since compiled
    residual code needs the mutable byte-addressed PyBuffer view.
    """
    return rt.PyBuffer(size)


def buffer_cursor(buffer, offset=0):
    return rt.BufPtr(buffer, offset, 1, True)


class ScratchBuffers:
    """A bounded free-list of equal-size PyBuffer scratch buffers.

    The specialized server otherwise allocates a ``bufsize`` output
    buffer per dispatched datagram; steady-state traffic through this
    pool reuses the same one or two.  Residual marshalers write
    sequentially from offset 0 and report an output length, so buffers
    are reused without re-zeroing.
    """

    __slots__ = ("size", "limit", "_free", "_lock")

    def __init__(self, size, limit=4):
        self.size = size
        self.limit = limit
        self._free = []
        self._lock = threading.Lock()

    def acquire(self):
        with self._lock:
            if self._free:
                return self._free.pop()
        return rt.PyBuffer(self.size)

    def release(self, buffer):
        if buffer is None or len(buffer) != self.size:
            return
        with self._lock:
            if len(self._free) < self.limit:
                self._free.append(buffer)
