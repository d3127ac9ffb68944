"""Cursor-batching tests for the Python backend.

The batching pass turns runs of residual ``*(long *)p = v; p = p + 4;``
pairs, ``p`` a promoted cursor into a buffer parameter, into single
``struct`` calls.  It must fire on the residual shapes and must never
change the bytes produced.  Each function is a fused entry of the
harness in :mod:`tests.minic.entries`, checked against the interpreter.
"""

import struct

from tests.minic.entries import body, compile_entry, run_both

RESULT = "struct R { int off; int a[8]; int count; };\n"


def _store_program(n):
    """``f(r, out, a0, ...)``: ``n`` words stored through the cursor
    ``p`` into a 64-byte reply; ``r->off`` is where ``p`` ends."""
    params = "".join(f", int a{index}" for index in range(n))
    lines = [RESULT, f"int f(struct R *r, char *out{params})", "{",
             "    char *p; char *q;", "    p = out; q = out;"]
    for index in range(n):
        lines.append(f"    *(long *)p = (long)htonl((u_long)a{index});")
        lines.append("    p = p + 4;")
    lines += ["    r->off = (int)(p - q);", "    return 0;", "}"]
    return "\n".join(lines)


def _load_program(n):
    """``f(r, w)``: ``n`` words loaded through the cursor ``p`` from the
    message ``w`` into ``r->a``."""
    lines = [RESULT, "int f(struct R *r, char *w)", "{", "    char *p;",
             "    p = w;"]
    for index in range(n):
        lines.append(f"    r->a[{index}] ="
                     " (long)ntohl((u_long)*(long *)p);")
        lines.append("    p = p + 4;")
    lines += ["    return 0;", "}"]
    return "\n".join(lines)


def _stores(source, *values):
    interp, compiled, module = run_both(source, *values, fresh={"out": 64})
    assert interp == compiled, module.source
    return compiled, module


def test_store_run_becomes_single_pack():
    module = compile_entry(_store_program(8), fresh={"out": 64})
    assert body(module.source).count("pack_into") == 1
    # ``(u_long)`` of an ``int``: the same four bytes, packed signed
    assert "'>8i'" in module.source


def test_store_batch_bytes_match_interpreter():
    values = [0, -1, 2**31 - 1, -(2**31), 7, 8, 9, 10]
    outcome, _module = _stores(_store_program(8), *values)
    assert outcome[-1][:32] == struct.pack(">8i", *values)
    # the cursor advanced by the whole run
    assert outcome[0] == 32


def test_load_run_becomes_single_unpack():
    module = compile_entry(_load_program(8), bytes(32))
    assert module.source.count("unpack_from") == 1


def test_load_batch_values_match():
    raw = [11, -22, 33, -44, 55, 2**31 - 1]
    interp, compiled, module = run_both(_load_program(6),
                                        struct.pack(">6i", *raw))
    assert interp == compiled, module.source
    assert compiled[1][:6] == raw


def test_short_runs_are_batched_too():
    # no minimum length: one word is one ``struct`` call too
    for words in (1, 2):
        module = compile_entry(_store_program(words), fresh={"out": 64})
        assert body(module.source).count("pack_into") == 1
        assert f"'>{words}i'" in module.source


def test_mixed_header_and_payload_batch_together():
    """Literal header words and dynamic payload words share a run."""
    source = RESULT + """
    int f(struct R *r, char *out, int a0, int a1)
    {
        char *p;
        p = out;
        *(long *)p = 17;
        p = p + 4;
        *(long *)p = 2;
        p = p + 4;
        *(long *)p = (long)htonl((u_long)a0);
        p = p + 4;
        *(long *)p = (long)htonl((u_long)a1);
        p = p + 4;
        return 0;
    }
    """
    outcome, module = _stores(source, 5, -6)
    assert body(module.source).count("pack_into") == 1
    assert outcome[-1][:16] == struct.pack(">iiii", 17, 2, 5, -6)


def test_interleaved_statements_break_runs():
    source = RESULT + """
    int f(struct R *r, char *out, int a0, int a1)
    {
        char *p;
        p = out;
        *(long *)p = (long)htonl((u_long)a0);
        p = p + 4;
        r->count = r->count + 1;
        *(long *)p = (long)htonl((u_long)a1);
        p = p + 4;
        return 0;
    }
    """
    outcome, module = _stores(source, 1, 2)
    # two runs of one word each, the increment between them
    assert body(module.source).count("pack_into") == 2
    assert "'>2I'" not in module.source
    assert outcome[-2] == 1
    assert outcome[-1][:8] == struct.pack(">ii", 1, 2)
