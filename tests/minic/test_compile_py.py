"""Python backend tests: a fused entry must agree with the interpreter.

Each function is compiled as a fused entry by the harness of
:mod:`tests.minic.entries` and interpreted on the same values.  A
function outside the residual subset — a call, an address-of, a
pointer, a ``for`` / ``break`` / ``continue``, a division — is refused
with a :class:`~repro.errors.CompileError` naming the construct; its
row runs on the interpreter alone, as the generic stack would serve it.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompileError, InterpError
from repro.minic import values as rv
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program

from tests.minic.entries import (body, compile_entry, interpret,
                                 run_both)

#: the result struct of the scalar rows: ``f`` stores what it returns
R = "struct R { int v; };\n"


def both(source, entry, *args):
    """Run ``entry`` — which stores its value into ``r->v`` — as a fused
    entry and through the interpreter; the outcomes must agree; returns
    the common value."""
    interp, compiled, module = run_both(R + source, *args, name=entry)
    assert interp == compiled, (
        f"interp={interp!r} compiled={compiled!r}\n{module.source}")
    return compiled[0]


def refused(source, construct, entry, *args):
    """``entry`` is outside the residual subset, by ``construct``;
    returns what the interpreter (the generic stack) makes of it."""
    program = parse_program(source)
    with pytest.raises(CompileError, match=construct):
        compile_entry(program, name=entry)
    return Interpreter(program).call(entry, list(args))


class TestScalars:
    def test_arithmetic(self):
        assert both(
            "int f(struct R *r, int a, int b) { r->v = (a + b) * (a - b);"
            " return 0; }", "f", 9, 4) == 65

    def test_wrapping(self):
        both("int f(struct R *r, int a) { r->v = a + 1; return 0; }", "f",
             0x7FFFFFFF)
        both("struct U { u_long v; };\n"
             "u_long f(struct U *r, u_long a) { r->v = a * 3; return 0; }",
             "f", 0xF0000000)

    def test_division_semantics(self):
        # outside the subset: C's truncating division is the
        # interpreter's alone
        source = "int f(int a, int b) { return a / b + a % b; }"
        for (a, b), value in zip(((7, 2), (-7, 2), (7, -2), (-9, 4)),
                                 (4, -4, -2, -3)):
            assert refused(source, "division", "f", a, b) == value

    def test_shifts(self):
        both("int f(struct R *r, int a) { r->v = a >> 2; return 0; }", "f",
             -64)
        both("struct U { u_long v; };\n"
             "u_long f(struct U *r, u_long a) { r->v = a >> 2; return 0; }",
             "f", 0x80000000)

    def test_short_circuit_effects(self):
        src = """
        int g(int *c) { *c = *c + 1; return 1; }
        int f(int cond) {
            int count = 0;
            int r = cond && g(&count);
            return count * 10 + r;
        }
        """
        assert refused(src, "call to g|effect right of &&", "f", 0) == 0
        assert refused(src, "call to g|effect right of &&", "f", 1) == 11

    def test_conditional_with_effects(self):
        src = """
        int g(int *c) { *c = *c + 1; return 5; }
        int f(int cond) {
            int count = 0;
            int r = cond ? g(&count) : 7;
            return count * 100 + r;
        }
        """
        assert refused(src, "conditional|call to g", "f", 1) == 105
        assert refused(src, "conditional|call to g", "f", 0) == 7

    def test_incdec(self):
        src = """
        int f(struct R *r, int a) {
            int b = a++;
            int c = ++a;
            r->v = a * 100 + b * 10 + c;
            return 0;
        }
        """
        assert both(src, "f", 3) == 535

    def test_collatz(self):
        src = """
        int f(int n) {
            int steps = 0;
            while (n != 1) {
                if (n % 2 == 0)
                    n = n / 2;
                else
                    n = 3 * n + 1;
                steps++;
            }
            return steps;
        }
        """
        assert refused(src, "division", "f", 27) == 111


class TestAggregates:
    def test_struct_roundtrip(self):
        src = """
        struct point { int x; int y; };
        int f(struct R *r) {
            struct point p;
            p.x = 2;
            p.y = 40;
            r->v = p.x + p.y;
            return 0;
        }
        """
        assert both(src, "f") == 42
        assert "S_point" not in compile_entry(R + src).source

    def test_local_array(self):
        src = """
        int f(struct R *r, int n) {
            int a[16];
            for (int i = 0; i < n; i++)
                a[i] = i * i;
            int s = 0;
            for (int i = 0; i < n; i++)
                s += a[i];
            r->v = s;
            return 0;
        }
        """
        assert both(src, "f", 10) == 285

    def test_break_in_for(self):
        src = """
        int f(int n) {
            int i;
            int s = 0;
            for (i = 0; i < 100; i++) {
                if (i == n)
                    break;
                s += i;
            }
            return s * 1000 + i;
        }
        """
        assert refused(src, "a break", "f", 7) == 21007

    def test_continue_in_for_runs_step(self):
        src = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 3 == 0)
                    continue;
                s += i;
            }
            return s;
        }
        """
        assert refused(src, "a for|a continue|division", "f", 12) == 48

    def test_marshaling_pair(self):
        # ``putlong`` has two call sites: it is not inlined, so the
        # residual keeps a call and a pointer handle — outside the subset
        src = """
        struct XDR { int x_op; int x_handy; caddr_t x_private; };
        struct pair { int int1; int int2; };
        bool_t putlong(struct XDR *xdrs, long *lp)
        {
            if ((xdrs->x_handy -= sizeof(long)) < 0)
                return 0;
            *(long *)(xdrs->x_private) = (long)htonl((u_long)*lp);
            xdrs->x_private = xdrs->x_private + sizeof(long);
            return 1;
        }
        bool_t xdr_pair(struct XDR *xdrs, struct pair *objp)
        {
            if (!putlong(xdrs, (long *)&objp->int1))
                return 0;
            if (!putlong(xdrs, (long *)&objp->int2))
                return 0;
            return 1;
        }
        """
        program = parse_program(src)
        with pytest.raises(CompileError, match="call to putlong|pointer"):
            compile_entry(program, name="xdr_pair")
        interp = Interpreter(program)
        xdrs = interp.make_struct("XDR")
        buf = interp.make_buffer(16)
        xdrs.field("x_handy").value = 16
        xdrs.field("x_private").value = rv.BufPtr(buf, 0, 1)
        pair = interp.make_struct("pair")
        pair.field("int1").value = -1
        pair.field("int2").value = 0x01020304
        assert interp.call(
            "xdr_pair", [interp.ptr_to(xdrs), interp.ptr_to(pair)]) == 1
        assert buf.bytes()[:8] == struct.pack(">ii", -1, 0x01020304)

    def test_overflow_path_matches(self):
        src = """
        struct XDR { int x_handy; caddr_t x_private; };
        int f(struct XDR *x, int handy) {
            x->x_handy = handy;
            if ((x->x_handy -= 4) < 0)
                return 0;
            return 1;
        }
        """
        for handy in (8, 4, 3, 0, -1):
            for literal in (0, 1):
                interp, compiled, _module = run_both(
                    src, handy, accepts=("==", literal))
                assert interp == compiled
                assert (compiled is not None) == ((handy >= 4) == literal)


class TestScalarReplacement:
    """Inlining, struct splitting and dead-store removal
    (``repro.minic.scalar``) against the interpreter."""

    @pytest.mark.parametrize("source, arg", [
        # a callee local shadows a parameter: no substitution
        ("int g(int x) { int r; r = x; { int x; x = 7; r = r + x; }"
         " return r + x; }", 5),
        # nested shadowing survives the flat renaming
        ("int g(int x) { int y; y = 1; { int y; y = 2; x = x + y; }"
         " return x + y; }", 5),
        # returns inside loops leave through a flag
        ("int g(int n) { int i; i = 0; while (i < 10) {"
         " if (i == n) return i * 3; i = i + 1; } return -1; }", 4),
        ("int g(int n) { int i; int j; for (i = 0; i < 5; i++) {"
         " for (j = 0; j < 5; j++) { if (i * j == n) return i * 10 + j; }"
         " } return -1; }", 6),
        # a boxed out-parameter becomes the local
        ("int g(int *p, int n) { *p = n * 2; if (n <= 3) *p = *p + 1;"
         " return n <= 3; }", 2),
    ])
    def test_inlined_callee_agrees(self, source, arg):
        caller = ("int f(struct R *r, int a) { int v; int w; v = 0;"
                  " w = g(&v, a); r->v = w * 1000 + v; return 0; }"
                  if "*p" in source else
                  "int f(struct R *r, int a) { int v; v = g(a); r->v = v;"
                  " return 0; }")
        if "return i" in source:
            # the flag's exits are a break out of the callee's loop:
            # outside the subset, the interpreter's
            with pytest.raises(CompileError, match="a break"):
                compile_entry(R + source + caller)
            assert interpret(R + source + caller, arg) is not None
            return
        module = compile_entry(R + source + caller)
        assert "def entry(" in module.source
        assert "g(" not in body(module.source)  # inlined, not called
        both(source + caller, "f", arg)

    @pytest.mark.parametrize("arg", [3, -3])
    def test_struct_local_split_through_an_inlined_callee(self, arg):
        source = """
        struct S { int a; int b; };
        void g(struct S *s, int n) { if (n >= 0) { s->a = n;
                                     s->b = n + 1; } }
        int f(struct R *r, int a) { struct S t; t.a = 9; t.b = 9; g(&t, a);
                                    r->v = t.a * 100 + t.b; return 0; }"""
        assert "S_S()" not in compile_entry(R + source).source
        both(source, "f", arg)

    def test_a_global_the_callee_reads_is_not_captured(self):
        source = """
        int k;
        int g(int n) { return n + k; }
        int f(int a) { int k; int v; k = 50; v = g(a); return v + k; }"""
        assert refused(source, "the global k", "f", 1) == 51

    @pytest.mark.parametrize("second", ["b", "b + 4"])
    def test_a_called_function_takes_pointers(self, second):
        # ``get`` has two call sites, so it is not inlined: its caller
        # hands it a pointer, not bytes — outside the subset
        source = f"""
        long get(caddr_t b) {{ caddr_t p; p = b; return *(long *)p; }}
        long f(caddr_t b) {{
            *(long *)b = 5; *(long *)(b + 4) = 7;
            return get(b) + get({second});
        }}"""
        program = parse_program(source)
        with pytest.raises(CompileError, match="call to get|pointer"):
            compile_entry(program, b"\0" * 8)
        interp = Interpreter(program)
        value = interp.call("f", [rv.BufPtr(interp.make_buffer(8), 0, 1)])
        assert value == (10 if second == "b" else 12)

    def test_an_escaping_struct_stays_a_struct(self):
        source = """
        struct S { int a; };
        int h(struct S *s) { return s->a; }
        int f(int a) { struct S t; int v; int w; t.a = a; v = h(&t);
                       w = h(&t); return v + w; }"""
        assert refused(source, "struct object|call to h|address-of",
                       "f", 3) == 6


def on_buffers(source, sizes, *args, offset=0):
    """``f(p0, p1, ..., *args)`` in the interpreter over fresh zeroed
    buffers of ``sizes`` (each pointer at ``offset``): ``(result or
    "fault", the buffers' bytes)``."""
    interp = Interpreter(parse_program(source))
    buffers = [interp.make_buffer(size) for size in sizes]
    try:
        result = interp.call("f", [rv.BufPtr(buf, offset, 1)
                                   for buf in buffers] + list(args))
    except InterpError:
        result = "fault"
    return result, [buf.bytes() for buf in buffers]


class TestBufferBounds:
    """A byte range past a buffer faults, never resizes it.  ``bzero``
    and ``memcpy`` are calls: outside the subset, the interpreter's."""

    @pytest.mark.parametrize("source, sizes", [
        # zeroing past the end once grew the buffer to 10 bytes
        ("int f(caddr_t p) { bzero(p + 6, 4); return 1; }", (8,)),
        # a short source once shrank the destination to 6 bytes
        ("int f(caddr_t d, caddr_t s) { memcpy(d, s, 8); return 1; }",
         (8, 6)),
        # ... and a short destination grew
        ("int f(caddr_t d, caddr_t s) { memcpy(d, s, 8); return 1; }",
         (6, 8)),
    ])
    def test_out_of_range_copies_fault(self, source, sizes):
        with pytest.raises(CompileError, match="call to (bzero|memcpy)"):
            compile_entry(source, *(bytes(size) for size in sizes))
        result, data = on_buffers(source, sizes)
        assert result == "fault"
        assert [len(each) for each in data] == list(sizes)

    def test_in_range_copies_agree(self):
        result, data = on_buffers("""
        int f(caddr_t d, caddr_t s) {
            *(long *)s = 0x01020304; *(long *)(s + 4) = (-1);
            memcpy(d + 2, s, 6); bzero(d + 3, 2); return 1;
        }""", (8, 8))
        assert result == 1
        assert data[0] == bytes([0, 0, 1, 0, 0, 4, 255, 255])

    def test_a_pointer_before_its_buffer_faults(self):
        result, _data = on_buffers(
            "int f(caddr_t p) { return *(long *)p; }", (8,), offset=-4)
        assert result == "fault"

    def test_a_run_through_a_cursor_before_its_buffer_faults(self):
        # the cursor lives in a struct: outside the subset (a pointer
        # field); the interpreter faults on a read before the buffer
        source = """
        struct S { caddr_t cur; int x; int y; };
        int f(struct S *s) {
            s->x = (long)ntohl((u_long)*(long *)s->cur); s->cur = s->cur + 4;
            s->y = (long)ntohl((u_long)*(long *)s->cur); s->cur = s->cur + 4;
            return s->x + s->y;
        }"""
        program = parse_program(source)
        with pytest.raises(CompileError, match="pointer"):
            compile_entry(program)
        interp = Interpreter(program)
        s_interp = interp.make_struct("S")
        s_interp.field("cur").value = rv.BufPtr(interp.make_buffer(12), -4, 1)
        with pytest.raises(InterpError):
            interp.call("f", [interp.ptr_to(s_interp)])

    def test_a_cursor_that_steps_back_is_not_promoted(self):
        # an offset that may go negative is no cursor: a pointer,
        # outside the subset; the interpreter faults on the read
        source = """
        int f(caddr_t buf) {
            caddr_t p;
            p = buf; p = p + 4; p = p - 8;
            return *(long *)p;
        }"""
        with pytest.raises(CompileError, match="pointer"):
            compile_entry(source, bytes(8))
        assert on_buffers(source, (8,))[0] == "fault"


class TestNetworkHook:
    """``net_sendrecv`` is a call: outside the subset, the interpreter
    routes it to its pluggable network."""

    SOURCE = """
        int f(caddr_t out, caddr_t in_) {
            *(long *)out = 99;
            return net_sendrecv(out, 4, in_, 16);
        }
        """

    def test_attach_network(self):
        program = parse_program(self.SOURCE)
        with pytest.raises(CompileError, match="call to net_sendrecv"):
            compile_entry(program, bytes(16), bytes(16))
        interp = Interpreter(program)
        interp.network = lambda req: req * 2
        got = interp.call("f", [rv.BufPtr(interp.make_buffer(16), 0, 1),
                                rv.BufPtr(interp.make_buffer(16), 0, 1)])
        assert got == 8

    def test_no_network_raises(self):
        src = ("int f(caddr_t o, caddr_t i) {"
               " return net_sendrecv(o, 4, i, 4); }")
        with pytest.raises(CompileError, match="call to net_sendrecv"):
            compile_entry(src, bytes(4), bytes(4))
        interp = Interpreter(parse_program(src))
        with pytest.raises(InterpError, match="network"):
            interp.call("f", [rv.BufPtr(interp.make_buffer(4), 0, 1),
                              rv.BufPtr(interp.make_buffer(4), 0, 1)])


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-(2**31), 2**31 - 1),
    b=st.integers(-(2**31), 2**31 - 1),
    c=st.integers(-100, 100),
)
def test_property_mixed_expression(a, b, c):
    src = """
    int f(struct R *o, int a, int b, int c) {
        int r = 0;
        if (a > b)
            r = a - b;
        else
            r = (b - a) ^ c;
        r += (a & 0xFF) * (c | 1);
        o->v = r >> 1;
        return 0;
    }
    """
    both(src, "f", a, b, c)


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1,
                       max_size=16))
def test_property_array_fold(values):
    # the array arrives as the message of its words, read through a
    # cursor into a local array: the fold is the same loop
    src = """
    int f(struct R *r, char *w, int n) {
        char *p;
        int a[16];
        int k;
        p = w;
        k = 0;
        while (k < n) {
            a[k] = (long)ntohl((u_long)*(long *)p);
            p = p + 4;
            k = k + 1;
        }
        int s = 0;
        for (int i = 0; i < n; i++)
            s = (s ^ a[i]) + 1;
        r->v = s;
        return 0;
    }
    """
    wire = struct.pack(f">{len(values)}i", *values)
    interp, compiled, module = run_both(R + src, wire, len(values))
    assert interp == compiled, module.source
