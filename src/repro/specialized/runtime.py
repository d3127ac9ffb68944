"""Staged glue between Python-land values and compiled residual code.

Compiled residual programs (from :mod:`repro.minic.compile_py`) operate
on :mod:`repro.minic.pyruntime` values: generated struct classes, plain
lists for arrays, :class:`~repro.minic.pyruntime.PyBuffer` cursors.
The application hands over stub structs (or dict-style values) and
bytes.  Moving between the two is decided entirely by the interface, so
it is decided once, when a specialization is built: each function here
reads the stub contract (:mod:`repro.rpcgen.contract` — the struct
shapes, and by role the parameters of the entry that was specialized)
and returns the *source* of one **fused entry** —
guard, conversion, the call of the compiled residual function with its
arguments in place, and the conversion back — which the pipeline hands
to :func:`~repro.minic.compile_py.compile_program` as the module's
glue (docs/SPECIALIZATION.md, "Fused entries").

Every entry returns ``None`` to decline: on a size outside the one the
residual was proved on, and on **any** fault (a value out of range, an
access past a narrowed array, a residual that returns failure).  The
caller then takes the generic path, which serves or refuses the call
as it always has.
"""

from repro.errors import IdlError

_IN = "_rt.BufPtr(_rt.PyBuffer(data), 0, 1, True)"
_OUT = "_rt.BufPtr(out, 0, 1, True)"


def _call(residual, sig, lens, **roles):
    """The call of ``residual``'s compiled entry — the residual of the
    emitted entry ``sig`` — each residual parameter replaced by the
    expression its role has in ``roles``, an assumed length by its
    count in ``lens``."""
    bound = sig.bind(roles, lens, str)
    try:
        args = ", ".join(bound[name] for _ctype, name in
                         residual.residual_params)
    except KeyError as exc:
        raise IdlError(f"{residual.entry_name}: no binding for residual"
                       f" parameter {exc}") from None
    return f"mc_{residual.entry_name}({args})"


def _entry(params, guard, body):
    """Source of ``entry(params)``: ``guard`` lines outside, ``body``
    lines inside the fault-is-a-decline handler."""
    lines = [f"def entry({params}):"]
    lines += [f"    {line}" for line in guard]
    lines.append("    try:")
    lines += [f"        {line}" for line in body]
    lines += ["    except Exception:", "        pass", "    return None"]
    return "\n" + "\n".join(lines) + "\n"


def _fill(shape, lens, src, dst, lines, depth=1):
    """Append the statements that copy the Python value ``src`` (stub
    struct or dict) into the compiled struct ``dst``.  This is the
    boundary of the compiled code's in-range invariant: scalars are
    checked here, signed array elements by the pack that sends them."""
    for field in shape.fields:
        name = field.name
        value = (f"({src}[{name!r}] if isinstance({src}, dict)"
                 f" else {src}.{name})")
        count = field.size if field.bound is None else lens[name]
        if field.struct is not None:
            nested = f"_s{depth}"
            lines.append(f"{nested} = {value}")
            _fill(field.struct, {}, nested, f"{dst}.{name}", lines,
                  depth + 1)
        elif count is not None:
            lines += [f"_v = {value}",
                      f"if len(_v) != {count}:",
                      "    return None"]
            if field.bound is not None:
                lines.append(f"{dst}.{name}_len = {count}")
            if field.kind == "u_int":
                lines.append("_v = [int(_i) & 0xFFFFFFFF for _i in _v]")
            lines.append(f"{dst}.{name}[:{count}] = _v")
        elif field.kind == "u_int":
            lines.append(f"{dst}.{name} = int({value}) & 0xFFFFFFFF")
        else:
            lines += [f"_v = int({value})",
                      "if not -0x80000000 <= _v <= 0x7FFFFFFF:",
                      "    return None",
                      f"{dst}.{name} = _v"]


def _extract(shape, src):
    """The expression that builds the stub value of ``shape`` from the
    compiled struct ``src`` (fresh per call: its lists are handed over,
    a bounded array cut to its decoded length)."""
    fields = []
    for field in shape.fields:
        name = field.name
        if field.bound is not None:
            value = f"{src}.{name}[:{src}.{name}_len]"
        elif field.struct is not None:
            value = _extract(field.struct, f"{src}.{name}")
        else:
            value = f"{src}.{name}"
        fields.append(f"{name}={value}")
    return f"stubs.{shape.name}({', '.join(fields)})"


def marshal_entry(proc, result, lens, prog, vers, size):
    """``entry(xid, args)``: the ``size``-byte call message for
    ``args``, or None — the argument is not of the assumed lengths."""
    body = [f"argsp = S_{proc.arg.name}()"]
    _fill(proc.arg, lens, "args", "argsp", body)
    call = _call(result, proc.marshal, proc.lens(lens, {}),
                 client="_clnt", xid="xid & 0xFFFFFFFF", args="argsp",
                 outbuf=_OUT, outsize=str(size))
    body += [f"out = _rt.PyBuffer({size})",
             f"if {call} == {size}:",
             "    return bytes(out.data)"]
    return (f"\n_clnt = S_CLIENT()\n_clnt.cl_prog = {prog}\n"
            f"_clnt.cl_vers = {vers}\n" + _entry("xid, args", [], body))


def recv_entry(proc, result, lens, size):
    """``entry(data, xid, stubs)``: the result decoded from the
    ``size``-byte success reply ``data``, built from the ``stubs``
    module's classes, or None."""
    call = _call(result, proc.recv, proc.lens({}, lens), inbuf=_IN,
                 inlen=str(size), xid="xid & 0xFFFFFFFF", result="resp")
    return _entry(
        "data, xid, stubs",
        [f"if len(data) != {size}:", "    return None"],
        [f"resp = S_{proc.ret.name}()",
         f"if {call}:",
         f"    return {_extract(proc.ret, 'resp')}"])


def dispatch_entry(sig, result, request_size, reply_size):
    """``entry(data)``: the reply to the ``request_size``-byte call
    ``data``, written into an exact-size buffer — a longer one faults,
    so it is left to the generic path — or None."""
    call = _call(result, sig, {}, inbuf=_IN, inlen=str(request_size),
                 outbuf=_OUT, outsize=str(reply_size))
    return _entry(
        "data",
        [f"if len(data) != {request_size}:", "    return None"],
        [f"out = _rt.PyBuffer({reply_size})",
         f"outlen = {call}",
         "if outlen:",
         "    return bytes(out.data[:outlen])"])
