"""Cursor-batching peephole tests for the Python backend.

The batching pass turns runs of residual ``*(long *)p = v; p = p + 4;``
pairs into single ``struct.pack_into`` calls.  It must fire on the
residual shapes and must never change the bytes produced.
"""

from repro.minic import pyruntime as rt
from repro.minic import values as rv
from repro.minic.compile_py import compile_program
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program


def _store_program(n):
    lines = [
        "struct XDR { caddr_t x_private; };",
        "int f(struct XDR *xdrs, int *a)",
        "{",
    ]
    for index in range(n):
        lines.append(
            f"    *(long *)xdrs->x_private ="
            f" (long)htonl((u_long)a[{index}]);"
        )
        lines.append("    xdrs->x_private = xdrs->x_private + 4;")
    lines.append("    return 0;")
    lines.append("}")
    return parse_program("\n".join(lines))


def _load_program(n):
    lines = [
        "struct XDR { caddr_t x_private; };",
        "int f(struct XDR *xdrs, int *a)",
        "{",
    ]
    for index in range(n):
        lines.append(
            f"    a[{index}] ="
            " (long)ntohl((u_long)*(long *)xdrs->x_private);"
        )
        lines.append("    xdrs->x_private = xdrs->x_private + 4;")
    lines.append("    return 0;")
    lines.append("}")
    return parse_program("\n".join(lines))


def test_store_run_becomes_single_pack():
    module = compile_program(_store_program(8))
    assert module.source.count("pack_into") == 1
    # ``(u_long)`` of an ``int``: the same four bytes, packed signed
    assert "'>8i'" in module.source


def test_store_batch_bytes_match_interpreter():
    program = _store_program(8)
    values = [0, -1, 2**31 - 1, -(2**31), 7, 8, 9, 10]
    interp = Interpreter(program)
    xdrs_i = interp.make_struct("XDR")
    buf_i = interp.make_buffer(64)
    xdrs_i.field("x_private").value = rv.BufPtr(buf_i, 0, 1)
    arr = interp.make_array("int", 8)
    arr.set_values(values)
    interp.call("f", [interp.ptr_to(xdrs_i),
                      rv.CellPtr(arr.elem(0), arr, 0)])

    module = compile_program(program)
    xdrs_c = module.new_struct("XDR")
    buf_c = module.new_buffer(64)
    xdrs_c.x_private = rt.BufPtr(buf_c, 0, 1)
    module.call("f", xdrs_c, rt.ElemPtr(list(values), 0))
    assert buf_i.bytes() == buf_c.bytes()
    # Cursor advanced by the whole run.
    assert xdrs_c.x_private.offset == 32


def test_load_run_becomes_single_unpack():
    module = compile_program(_load_program(8))
    assert module.source.count("unpack_from") == 1


def test_load_batch_values_match():
    program = _load_program(6)
    raw = [11, -22, 33, -44, 55, 2**31 - 1]
    module = compile_program(program)
    xdrs = module.new_struct("XDR")
    buf = module.new_buffer(64)
    import struct as st

    st.pack_into(">6i", buf.data, 0, *raw)
    xdrs.x_private = rt.BufPtr(buf, 0, 1)
    out = [0] * 6
    module.call("f", xdrs, rt.ElemPtr(out, 0))
    assert out == raw


def test_short_runs_are_batched_too():
    # no minimum length: through the pointer runtime one word costs two
    # cursor objects, through ``struct`` one
    for words in (1, 2):
        module = compile_program(_store_program(words))
        assert module.source.count("pack_into") == 1
        assert f"'>{words}i'" in module.source
        assert "ptr_add(xdrs.x_private" not in module.source


def test_mixed_header_and_payload_batch_together():
    """Literal header words and dynamic payload words share a run."""
    source = """
    struct XDR { caddr_t x_private; };
    int f(struct XDR *xdrs, int *a)
    {
        *(long *)xdrs->x_private = 17;
        xdrs->x_private = xdrs->x_private + 4;
        *(long *)xdrs->x_private = 2;
        xdrs->x_private = xdrs->x_private + 4;
        *(long *)xdrs->x_private = (long)htonl((u_long)a[0]);
        xdrs->x_private = xdrs->x_private + 4;
        *(long *)xdrs->x_private = (long)htonl((u_long)a[1]);
        xdrs->x_private = xdrs->x_private + 4;
        return 0;
    }
    """
    program = parse_program(source)
    module = compile_program(program)
    assert module.source.count("pack_into") == 1
    xdrs = module.new_struct("XDR")
    buf = module.new_buffer(32)
    xdrs.x_private = rt.BufPtr(buf, 0, 1)
    module.call("f", xdrs, rt.ElemPtr([5, -6], 0))
    import struct as st

    assert buf.bytes()[:16] == st.pack(">iiii", 17, 2, 5, -6)


def test_interleaved_statements_break_runs():
    source = """
    struct XDR { caddr_t x_private; };
    int f(struct XDR *xdrs, int *a, int *count)
    {
        *(long *)xdrs->x_private = (long)htonl((u_long)a[0]);
        xdrs->x_private = xdrs->x_private + 4;
        *count = *count + 1;
        *(long *)xdrs->x_private = (long)htonl((u_long)a[1]);
        xdrs->x_private = xdrs->x_private + 4;
        return 0;
    }
    """
    module = compile_program(parse_program(source))
    # two runs of one word each, the increment between them
    assert module.source.count("pack_into") == 2
    assert "'>2I'" not in module.source
    xdrs = module.new_struct("XDR")
    buf = module.new_buffer(16)
    xdrs.x_private = rt.BufPtr(buf, 0, 1)
    count = [0]
    module.call(
        "f", xdrs, rt.ElemPtr([1, 2], 0), rt.VarPtr(count)
    )
    assert count[0] == 1
    import struct as st

    assert buf.bytes()[:8] == st.pack(">ii", 1, 2)
