"""One MiniC function compiled as a fused entry and interpreted: the
harness the lowering tests drive ``compile_py`` through.

Each parameter of the function is bound by its type.  Its one struct
pointer is the *result*: the answer is the tuple of the struct's
integer fields (each array a list), which start at zero.  An integer is a
value.  A ``char *`` is a message of the bytes passed for it, its size
fixed at that length, or, when named in ``fresh``, a new reply buffer
of ``fresh[name]`` bytes whose contents follow the fields in the
answer.  The entry answers when the function returns ``value op
literal`` (``accepts``); any other return, and any fault, is ``None``.
The default, :data:`EVERY_RETURN`, answers at every return, so the
answer is what the function leaves where it returns.  The
interpreter's outcome is computed the same way.
"""

import copy
import operator

from repro.errors import InterpError
from repro.minic import types as ct
from repro.minic import values as rv
from repro.minic.compile_py import FusedEntry, compile_program
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program

#: no ``int`` equals it: every return answers
EVERY_RETURN = ("!=", 1 << 32)

_OPS = {"==": operator.eq, "!=": operator.ne}


def _role(param, fresh):
    ctype = param.ctype
    if not isinstance(ctype, ct.PointerType):
        return "value"
    if isinstance(ctype.base, ct.StructType):
        return "result"
    return "fresh" if param.name in fresh else "message"


def _answered(fields):
    """The fields an answer holds: all but the pointers."""
    return [(field, ftype) for field, ftype in fields
            if not isinstance(ftype, ct.PointerType)]


def _program(source):
    return parse_program(source) if isinstance(source, str) else source


def compile_entry(source, *args, name="f", accepts=EVERY_RETURN, fresh=None):
    """``source``'s function ``name`` compiled as a fused entry taking
    ``args`` (the values and messages, in parameter order)."""
    program, fresh = _program(source), fresh or {}
    func = program.func(name)
    params, bindings, guard = [], {}, []
    replies = [param.name for param in func.params
               if _role(param, fresh) == "fresh"]
    sizes = iter(len(arg) for arg in args if isinstance(arg, bytes))
    for param in func.params:
        role = _role(param, fresh)
        if role == "result":
            fields = _answered(param.ctype.base.fields)

            def build(read, fields=fields):
                parts = [f"list({read(field)})"
                         if isinstance(ftype, ct.ArrayType) else read(field)
                         for field, ftype in fields]
                parts += [f"bytes({reply})" for reply in replies]
                return [], f"({', '.join(parts)},)"
            bindings[param.name] = ("result", build)
        elif role == "fresh":
            bindings[param.name] = ("fresh", fresh[param.name])
        else:
            params.append(param.name)
            if role == "value":
                bindings[param.name] = ("value", param.name)
                continue
            size = next(sizes)
            bindings[param.name] = ("message", param.name, size)
            guard += [f"if len({param.name}) != {size}:", "    return None"]
    return compile_program(program, FusedEntry(
        name, ", ".join(params), bindings, accepts, guard))


def interpret(source, *args, name="f", accepts=EVERY_RETURN, fresh=None):
    """The outcome the entry must have: what the interpreter's call of
    ``name`` on the same values, messages and a zeroed struct leaves
    (None for a fault or a return that does not answer)."""
    program, fresh = _program(source), fresh or {}
    interp = Interpreter(program)
    values, result, replies, given = [], None, [], iter(args)
    for param in program.func(name).params:
        role = _role(param, fresh)
        if role == "result":
            result = interp.make_struct(param.ctype.base.name)
            values.append(interp.ptr_to(result))
        elif role == "value":
            values.append(next(given))
        else:
            data = bytes(fresh[param.name]) if role == "fresh" else next(given)
            buffer = interp.make_buffer(max(len(data), 1))
            for offset, byte in enumerate(data):
                buffer.store_int(offset, byte, 1, False)
            if role == "fresh":
                replies.append(buffer)
            values.append(rv.BufPtr(buffer, 0, 1))
    try:
        value = interp.call(name, values)
    except InterpError:
        return None
    op, literal = accepts
    if not _OPS[op](value, literal):
        return None
    fields = [] if result is None else [
        result.field(field).value
        for field, _ftype in _answered(result.stype.fields)]
    return tuple([field.values() if hasattr(field, "values") else field
                  for field in fields]
                 + [buffer.bytes() for buffer in replies])


def run_both(source, *args, name="f", accepts=EVERY_RETURN, fresh=None,
             rewrite=None):
    """``(interpreter outcome, entry outcome, module)`` of one call; the
    entry's Python put through ``rewrite`` first, if given."""
    program = _program(source)
    module = compile_entry(program, *args, name=name, accepts=accepts,
                           fresh=fresh)
    if rewrite is not None:
        module = relowered(module, rewrite)
    expected = interpret(program, *args, name=name, accepts=accepts,
                         fresh=fresh)
    return expected, module.entry(*args), module


def relowered(module, rewrite):
    """``module`` with its generated Python put through ``rewrite``."""
    clone = copy.copy(module)
    clone.source = rewrite(module.source)
    clone.namespace = {}
    exec(compile(clone.source, "<relowered>", "exec"), clone.namespace)
    return clone


def body(source):
    """The text of the entry function in a module's ``source``."""
    return source[source.index("def entry("):]
