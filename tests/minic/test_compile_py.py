"""Python backend tests: compiled code must agree with the interpreter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpError
from repro.minic import pyruntime as rt
from repro.minic import values as rv
from repro.minic.compile_py import compile_program
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program


def both(source, entry, *args):
    """Run through the interpreter and the compiled module; values must
    agree; returns the common result."""
    program = parse_program(source)
    interp_result = Interpreter(program).call(entry, list(args))
    compiled_result = compile_program(program).call(entry, *args)
    assert interp_result == compiled_result, (
        f"interp={interp_result!r} compiled={compiled_result!r}"
    )
    return compiled_result


class TestScalars:
    def test_arithmetic(self):
        assert both(
            "int f(int a, int b) { return (a + b) * (a - b); }", "f", 9, 4
        ) == 65

    def test_wrapping(self):
        both("int f(int a) { return a + 1; }", "f", 0x7FFFFFFF)
        both("u_long f(u_long a) { return a * 3; }", "f", 0xF0000000)

    def test_division_semantics(self):
        for a, b in ((7, 2), (-7, 2), (7, -2), (-9, 4)):
            both("int f(int a, int b) { return a / b + a % b; }", "f", a, b)

    def test_shifts(self):
        both("int f(int a) { return a >> 2; }", "f", -64)
        both("u_long f(u_long a) { return a >> 2; }", "f", 0x80000000)

    def test_short_circuit_effects(self):
        src = """
        int g(int *c) { *c = *c + 1; return 1; }
        int f(int cond) {
            int count = 0;
            int r = cond && g(&count);
            return count * 10 + r;
        }
        """
        assert both(src, "f", 0) == 0
        assert both(src, "f", 1) == 11

    def test_conditional_with_effects(self):
        src = """
        int g(int *c) { *c = *c + 1; return 5; }
        int f(int cond) {
            int count = 0;
            int r = cond ? g(&count) : 7;
            return count * 100 + r;
        }
        """
        assert both(src, "f", 1) == 105
        assert both(src, "f", 0) == 7

    def test_incdec(self):
        src = """
        int f(int a) {
            int b = a++;
            int c = ++a;
            return a * 100 + b * 10 + c;
        }
        """
        both(src, "f", 3)

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
        assert both(src, "f", 27) == 111


class TestAggregates:
    def test_struct_roundtrip(self):
        src = """
        struct point { int x; int y; };
        int f(void) {
            struct point p;
            p.x = 2;
            p.y = 40;
            return p.x + p.y;
        }
        """
        assert both(src, "f") == 42

    def test_local_array(self):
        src = """
        int f(int n) {
            int a[16];
            for (int i = 0; i < n; i++)
                a[i] = i * i;
            int s = 0;
            for (int i = 0; i < n; i++)
                s += a[i];
            return s;
        }
        """
        both(src, "f", 10)

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
        both(src, "f", 7)

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
        both(src, "f", 12)

    def test_marshaling_pair(self):
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
        # Interpreter side.
        interp = Interpreter(program)
        xdrs_i = interp.make_struct("XDR")
        buf_i = interp.make_buffer(16)
        xdrs_i.field("x_handy").value = 16
        xdrs_i.field("x_private").value = rv.BufPtr(buf_i, 0, 1)
        pair_i = interp.make_struct("pair")
        pair_i.field("int1").value = -1
        pair_i.field("int2").value = 0x01020304
        status_i = interp.call(
            "xdr_pair", [interp.ptr_to(xdrs_i), interp.ptr_to(pair_i)]
        )
        # Compiled side.
        module = compile_program(program)
        xdrs_c = module.new_struct("XDR")
        buf_c = module.new_buffer(16)
        xdrs_c.x_handy = 16
        xdrs_c.x_private = rt.BufPtr(buf_c, 0, 1)
        pair_c = module.new_struct("pair")
        pair_c.int1 = -1
        pair_c.int2 = 0x01020304
        status_c = module.call("xdr_pair", xdrs_c, pair_c)
        assert status_i == status_c == 1
        assert buf_i.bytes()[:8] == buf_c.bytes()[:8]

    def test_overflow_path_matches(self):
        src = """
        struct XDR { int x_handy; caddr_t x_private; };
        int f(struct XDR *x) {
            if ((x->x_handy -= 4) < 0)
                return 0;
            return 1;
        }
        """
        program = parse_program(src)
        interp = Interpreter(program)
        module = compile_program(program)
        for handy in (8, 4, 3, 0, -1):
            xi = interp.make_struct("XDR")
            xi.field("x_handy").value = handy
            xc = module.new_struct("XDR")
            xc.x_handy = handy
            assert interp.call("f", [interp.ptr_to(xi)]) == module.call(
                "f", xc
            )


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
        ("int g(int *p, int n) { *p = n * 2; if (n > 3) return 0;"
         " *p = *p + 1; return 1; }", 2),
    ])
    def test_inlined_callee_agrees(self, source, arg):
        caller = ("int f(int a) { int v; int r; v = 0; r = g(&v, a);"
                  " return r * 1000 + v; }" if "*p" in source else
                  "int f(int a) { int v; v = g(a); return v; }")
        module = compile_program(parse_program(source + caller))
        assert "mc_g" not in module.namespace  # inlined, not emitted
        with pytest.raises(KeyError, match="inlined"):
            module.call("g", arg)
        both(source + caller, "f", arg)

    @pytest.mark.parametrize("arg", [3, -3])
    def test_struct_local_split_through_an_inlined_callee(self, arg):
        source = """
        struct S { int a; int b; };
        void g(struct S *s, int n) { if (n < 0) return; s->a = n;
                                     s->b = n + 1; }
        int f(int a) { struct S t; t.a = 9; t.b = 9; g(&t, a);
                       return t.a * 100 + t.b; }"""
        assert "S_S()" not in compile_program(parse_program(source)).source
        both(source, "f", arg)

    def test_a_global_the_callee_reads_is_not_captured(self):
        both("""
        int k;
        int g(int n) { return n + k; }
        int f(int a) { int k; int v; k = 50; v = g(a); return v + k; }""",
             "f", 1)

    @pytest.mark.parametrize("second", ["b", "b + 4"])
    def test_a_called_function_takes_pointers(self, second):
        # ``get`` has two call sites, so it is not inlined: its caller
        # hands it a pointer, not bytes, so ``b`` is no buffer parameter
        source = f"""
        long get(caddr_t b) {{ caddr_t p; p = b; return *(long *)p; }}
        long f(caddr_t b) {{
            *(long *)b = 5; *(long *)(b + 4) = 7;
            return get(b) + get({second});
        }}"""
        module = compile_program(parse_program(source))
        assert module.buffers == {"get": {}, "f": {}}
        interp, compiled = on_buffers(source, (8,))
        assert compiled == interp
        assert interp[0] == (10 if second == "b" else 12)

    def test_an_escaping_struct_stays_a_struct(self):
        source = """
        struct S { int a; };
        int h(struct S *s) { return s->a; }
        int f(int a) { struct S t; int v; int w; t.a = a; v = h(&t);
                       w = h(&t); return v + w; }"""
        assert "S_S()" in compile_program(parse_program(source)).source
        both(source, "f", 3)


def on_buffers(source, sizes, *args, offset=0):
    """``f(p0, p1, ..., *args)`` over fresh zeroed buffers of ``sizes``
    (each pointer at ``offset``) in the interpreter and compiled:
    ``(result or "fault", the buffers' bytes)`` per side."""
    program = parse_program(source)
    interp = Interpreter(program)
    module = compile_program(program)
    sides = []
    for make, pointer, call in (
            (interp.make_buffer, rv.BufPtr,
             lambda ptrs: interp.call("f", ptrs + list(args))),
            (rt.PyBuffer, rt.BufPtr,
             lambda ptrs: module.call("f", *ptrs, *args))):
        buffers = [make(size) for size in sizes]
        try:
            result = call([pointer(buf, offset, 1) for buf in buffers])
        except InterpError:
            result = "fault"
        sides.append((result, [buf.bytes() for buf in buffers]))
    return sides


class TestBufferBounds:
    """A byte range past a buffer faults compiled as it does in the
    interpreter: never a resized buffer, never the buffer's tail."""

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
        interp, compiled = on_buffers(source, sizes)
        assert compiled == interp
        assert interp[0] == "fault"
        assert [len(data) for data in compiled[1]] == list(sizes)

    def test_in_range_copies_agree(self):
        interp, compiled = on_buffers("""
        int f(caddr_t d, caddr_t s) {
            *(long *)s = 0x01020304; *(long *)(s + 4) = (-1);
            memcpy(d + 2, s, 6); bzero(d + 3, 2); return 1;
        }""", (8, 8))
        assert compiled == interp and interp[0] == 1

    def test_a_pointer_before_its_buffer_faults(self):
        pointer = rt.BufPtr(rt.PyBuffer(b"\0\0\0\x07"), 0, 4, True)
        assert pointer.get() == 7
        with pytest.raises(InterpError, match="before the start"):
            pointer.add(-1).get()

    def test_a_run_through_a_cursor_before_its_buffer_faults(self):
        # the cursor lives in a struct (not a promotable local), so the
        # run goes through ``unpack_from(data, offset)``, which reads
        # the buffer's tail at a negative offset
        source = """
        struct S { caddr_t cur; int x; int y; };
        int f(struct S *s) {
            s->x = (long)ntohl((u_long)*(long *)s->cur); s->cur = s->cur + 4;
            s->y = (long)ntohl((u_long)*(long *)s->cur); s->cur = s->cur + 4;
            return s->x + s->y;
        }"""
        program = parse_program(source)
        interp = Interpreter(program)
        s_interp = interp.make_struct("S")
        s_interp.field("cur").value = rv.BufPtr(interp.make_buffer(12), -4, 1)
        with pytest.raises(InterpError):
            interp.call("f", [interp.ptr_to(s_interp)])
        module = compile_program(program)
        assert "unpack_from" in module.source
        s_compiled = module.new_struct("S")
        s_compiled.cur = rt.BufPtr(rt.PyBuffer(bytes(range(12))), -4, 1)
        with pytest.raises(InterpError, match="before the start"):
            module.call("f", s_compiled)

    def test_a_cursor_that_steps_back_is_not_promoted(self):
        # an offset that may go negative stays a runtime pointer, whose
        # read before the start faults
        source = """
        int f(caddr_t buf) {
            caddr_t p;
            p = buf; p = p + 4; p = p - 8;
            return *(long *)p;
        }"""
        interp, compiled = on_buffers(source, (8,))
        assert compiled == interp and interp[0] == "fault"
        assert compile_program(parse_program(source)).buffers["f"] == {}


class TestNetworkHook:
    def test_attach_network(self):
        src = """
        int f(caddr_t out, caddr_t in_) {
            *(long *)out = 99;
            return net_sendrecv(out, 4, in_, 16);
        }
        """
        module = compile_program(parse_program(src))
        module.attach_network(lambda req: req * 2)
        out = module.new_buffer(16)
        inb = module.new_buffer(16)
        got = module.call("f", rt.BufPtr(out, 0, 1), rt.BufPtr(inb, 0, 1))
        assert got == 8

    def test_no_network_raises(self):
        src = "int f(caddr_t o, caddr_t i) { return net_sendrecv(o, 4, i, 4); }"
        module = compile_program(parse_program(src))
        out = module.new_buffer(4)
        inb = module.new_buffer(4)
        with pytest.raises(Exception, match="network"):
            module.call("f", rt.BufPtr(out, 0, 1), rt.BufPtr(inb, 0, 1))


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-(2**31), 2**31 - 1),
    b=st.integers(-(2**31), 2**31 - 1),
    c=st.integers(-100, 100),
)
def test_property_mixed_expression(a, b, c):
    src = """
    int f(int a, int b, int c) {
        int r = 0;
        if (a > b)
            r = a - b;
        else
            r = (b - a) ^ c;
        r += (a & 0xFF) * (c | 1);
        return r >> 1;
    }
    """
    both(src, "f", a, b, c)


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1,
                       max_size=16))
def test_property_array_fold(values):
    src = """
    int f(int *a, int n) {
        int s = 0;
        for (int i = 0; i < n; i++)
            s = (s ^ a[i]) + 1;
        return s;
    }
    """
    program = parse_program(src)
    interp = Interpreter(program)
    arr = interp.make_array("int", len(values))
    arr.set_values(values)
    expected = interp.call(
        "f", [rv.CellPtr(arr.elem(0), arr, 0), len(values)]
    )
    module = compile_program(program)
    got = module.call("f", rt.ElemPtr(list(values), 0), len(values))
    assert got == expected
