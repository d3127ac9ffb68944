"""The interface of each fused entry, staged from the stub contract.

A fused entry is the residual function itself (docs/SPECIALIZATION.md,
"Fused entries"): :func:`~repro.minic.compile_py.compile_program`
compiles it as the module's ``entry``, its parameters bound inside it,
its size guard and fault handler around it.  How each parameter is
bound is decided entirely by the interface, so it is decided once,
when a specialization is built: each function here reads the stub
contract (:mod:`repro.rpcgen.contract` — the struct shapes, and by role
the parameters of the entry that was specialized) and returns the
:class:`~repro.minic.compile_py.FusedEntry` that says it.  The
application hands over stub structs (or dict-style values) and bytes:
the argument's fields are converted and checked into the function's
own field locals, the message is read in place, the reply is what the
function packs, and the result is a stub struct built from the
function's field locals.

Every entry returns ``None`` to decline: on a size outside the one the
residual was proved on, and on **any** fault (a value out of range, an
access past a narrowed array, a residual that returns failure).  The
caller then takes the generic path, which serves or refuses the call
as it always has.
"""

from repro.errors import IdlError
from repro.minic.compile_py import FusedEntry

#: the mask a caller's xid is handed to the residual through
_XID = "xid & 0xFFFFFFFF"

#: the temporaries the staged text below uses, nested structs included
_NAMES = {"_v", "_i", *(f"_s{depth}" for depth in range(1, 8)),
          *(f"_r{depth}" for depth in range(1, 8))}


def _bindings(residual, sig, lens, **roles):
    """Each parameter of ``residual``'s function — the residual of the
    emitted entry ``sig`` — bound by its role in ``roles``, an assumed
    length by its count in ``lens``."""
    bound = sig.bind(roles, lens, lambda count: ("value", str(count)))
    try:
        return {name: bound[name] for _ctype, name in residual.residual_params}
    except KeyError as exc:
        raise IdlError(f"{residual.entry_name}: no binding for residual"
                       f" parameter {exc}") from None


def _guard(size):
    return [f"if len(data) != {size}:", "    return None"]


def _fill(shape, lens, src, place, lines, depth=1):
    """Append the statements that convert the Python value ``src``
    (stub struct or dict) field by field, each into ``place(field)``
    (None: checked only).  This is the boundary of the compiled code's
    in-range invariant: scalars are checked here, signed array elements
    by the pack that sends them; an array is handed over as it is."""
    for field in shape.fields:
        name = field.name
        value = (f"({src}[{name!r}] if isinstance({src}, dict)"
                 f" else {src}.{name})")
        target = place(name)
        count = field.size if field.bound is None else lens[name]
        if field.struct is not None:
            nested = f"_s{depth}"
            lines.append(f"{nested} = {value}")
            _fill(field.struct, {}, nested,
                  lambda sub: target and f"{target}.{sub}", lines, depth + 1)
            continue
        local = target if target and target.isidentifier() else "_v"
        if count is not None:
            lines += [f"{local} = {value}",
                      f"if len({local}) != {count}:",
                      "    return None"]
            length = place(f"{name}_len") if field.bound is not None else None
            if length:
                lines.append(f"{length} = {count}")
            if field.kind == "u_int":
                lines.append(f"{local} = [int(_i) & 0xFFFFFFFF"
                             f" for _i in {local}]")
        elif field.kind == "u_int":
            lines.append(f"{local} = int({value}) & 0xFFFFFFFF")
        else:
            lines += [f"{local} = int({value})",
                      f"if not -0x80000000 <= {local} <= 0x7FFFFFFF:",
                      "    return None"]
        if target and local != target:
            lines.append(f"{target} = {local}")


def _build(shape, read, lines, depth=1):
    """Append the statements that build the stub value of ``shape``
    from the fields the residual stored, field ``f`` read as
    ``read(f)``; returns the name that holds it (a fresh object per
    call, its arrays fresh lists)."""
    name, cls = f"_r{depth}", f"stubs.{shape.name}"
    lines.append(f"{name} = {cls}.__new__({cls})")
    for field in shape.fields:
        if field.struct is not None:
            value = _build(field.struct,
                           lambda sub, f=field.name: f"{read(f)}.{sub}",
                           lines, depth + 1)
        elif field.size is not None or field.bound is not None:
            value = f"list({read(field.name)})"
        else:
            value = read(field.name)
        lines.append(f"{name}.{field.name} = {value}")
    return name


def marshal_entry(proc, result, lens, prog, vers, size):
    """``entry(xid, args)``: the ``size``-byte call message for
    ``args``, as ``bytes``, or None: the argument is not of the assumed
    lengths, or holds a value the residual cannot send."""
    def client(place):
        return [f"{target} = {value}" for target, value in (
            (place("cl_prog"), prog), (place("cl_vers"), vers)) if target]

    def args(place):
        lines = []
        _fill(proc.arg, lens, "args", place, lines)
        return lines

    return FusedEntry(
        result.entry_name, "xid, args",
        _bindings(result, proc.marshal, proc.lens(lens, {}),
                  client=("fields", client), xid=("value", _XID),
                  args=("fields", args), outbuf=("fresh", size),
                  outsize=("value", str(size))),
        ("==", size), names=_NAMES)


def recv_entry(proc, result, lens, size):
    """``entry(data, xid, stubs)``: the result decoded from the
    ``size``-byte success reply ``data``, built from the ``stubs``
    module's classes, or None."""
    def build(read):
        lines = []
        return lines, _build(proc.ret, read, lines)

    return FusedEntry(
        result.entry_name, "data, xid, stubs",
        _bindings(result, proc.recv, proc.lens({}, lens),
                  inbuf=("message", "data", size),
                  inlen=("value", str(size)), xid=("value", _XID),
                  result=("result", build)),
        ("!=", 0), guard=_guard(size), names=_NAMES)


def dispatch_entry(sig, result, request_size, reply_size):
    """``entry(data)``: the ``reply_size``-byte reply to the
    ``request_size``-byte call ``data`` — a longer reply faults, a
    shorter one is not this entry's to send: both are left to the
    generic path — or None."""
    return FusedEntry(
        result.entry_name, "data",
        _bindings(result, sig, {},
                  inbuf=("message", "data", request_size),
                  inlen=("value", str(request_size)),
                  outbuf=("fresh", reply_size),
                  outsize=("value", str(reply_size))),
        ("==", reply_size), guard=_guard(request_size), names=_NAMES)
