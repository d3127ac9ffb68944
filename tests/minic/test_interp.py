"""Reference interpreter semantics tests."""

import pytest

from repro.errors import InterpError
from repro.minic import values as rv
from repro.minic.cost import Trace
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program


def run(source, entry, *args, **kwargs):
    interp = Interpreter(parse_program(source))
    return interp.call(entry, list(args), **kwargs)


class TestArithmetic:
    def test_basic(self):
        assert run("int f(int a, int b) { return a * b + 1; }", "f", 6, 7) == 43

    def test_division_truncates_toward_zero(self):
        src = "int f(int a, int b) { return a / b; }"
        assert run(src, "f", 7, 2) == 3
        assert run(src, "f", -7, 2) == -3
        assert run(src, "f", 7, -2) == -3

    def test_modulo_sign_follows_dividend(self):
        src = "int f(int a, int b) { return a % b; }"
        assert run(src, "f", 7, 3) == 1
        assert run(src, "f", -7, 3) == -1

    def test_division_by_zero(self):
        with pytest.raises(InterpError, match="zero"):
            run("int f(int a) { return a / 0; }", "f", 1)

    def test_modulo_by_zero_is_the_compiled_codes_error(self):
        # one rule for ``/`` and ``%``: repro.minic.pyruntime's
        with pytest.raises(InterpError, match="^division by zero$"):
            run("int f(int a) { return a % 0; }", "f", 1)

    def test_signed_overflow_wraps(self):
        src = "int f(int a) { return a + 1; }"
        assert run(src, "f", 0x7FFFFFFF) == -0x80000000

    def test_unsigned_wraps(self):
        src = "u_long f(u_long a) { return a + 1; }"
        assert run(src, "f", 0xFFFFFFFF) == 0

    def test_shifts(self):
        assert run("int f(int a) { return a << 4; }", "f", 1) == 16
        assert run("int f(int a) { return a >> 1; }", "f", -8) == -4
        assert run("u_long f(u_long a) { return a >> 1; }", "f",
                   0x80000000) == 0x40000000

    def test_bitwise(self):
        src = "int f(int a, int b) { return (a & b) | (a ^ b); }"
        assert run(src, "f", 0b1100, 0b1010) == 0b1110

    def test_comparisons_return_01(self):
        assert run("int f(int a) { return a < 3; }", "f", 2) == 1
        assert run("int f(int a) { return a < 3; }", "f", 5) == 0

    def test_logical_short_circuit(self):
        src = """
        int g(int *c) { *c = *c + 1; return 1; }
        int f(void) {
            int count = 0;
            int r = 0 && g(&count);
            return count * 10 + r;
        }
        """
        assert run(src, "f") == 0  # g never ran

    def test_logical_or_short_circuit(self):
        src = """
        int g(int *c) { *c = *c + 1; return 0; }
        int f(void) {
            int count = 0;
            int r = 1 || g(&count);
            return count * 10 + r;
        }
        """
        assert run(src, "f") == 1

    def test_conditional_expression(self):
        src = "int f(int a) { return a > 0 ? a : -a; }"
        assert run(src, "f", -5) == 5

    def test_unary_ops(self):
        assert run("int f(int a) { return -a; }", "f", 3) == -3
        assert run("int f(int a) { return ~a; }", "f", 0) == -1
        assert run("int f(int a) { return !a; }", "f", 0) == 1


class TestControlFlow:
    def test_while_loop(self):
        src = """
        int f(int n) {
            int s = 0;
            while (n > 0) { s += n; n--; }
            return s;
        }
        """
        assert run(src, "f", 5) == 15

    def test_for_loop_with_continue(self):
        src = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0)
                    continue;
                s += i;
            }
            return s;
        }
        """
        assert run(src, "f", 10) == 1 + 3 + 5 + 7 + 9

    def test_break(self):
        src = """
        int f(int n) {
            int i;
            for (i = 0; i < 100; i++)
                if (i == n)
                    break;
            return i;
        }
        """
        assert run(src, "f", 7) == 7

    def test_nested_loops(self):
        src = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                for (int j = 0; j < i; j++)
                    s++;
            return s;
        }
        """
        assert run(src, "f", 5) == 10

    def test_infinite_loop_guard(self):
        src = "int f(void) { while (1) { } return 0; }"
        interp = Interpreter(parse_program(src), max_steps=10_000)
        with pytest.raises(InterpError, match="steps"):
            interp.call("f", [])

    def test_falling_off_nonvoid(self):
        src = "int f(int a) { if (a) return 1; }"
        with pytest.raises(InterpError, match="fell off"):
            run(src, "f", 0)


class TestPointersAndAggregates:
    def test_address_of_local(self):
        src = """
        void bump(int *p) { *p = *p + 1; }
        int f(void) { int x = 41; bump(&x); return x; }
        """
        assert run(src, "f") == 42

    def test_array_sum_via_pointer(self):
        src = """
        int f(int *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                s += a[i];
            return s;
        }
        """
        interp = Interpreter(parse_program(src))
        arr = interp.make_array("int", 6)
        arr.set_values([1, 2, 3, 4, 5, 6])
        assert interp.call("f", [rv.CellPtr(arr.elem(0), arr, 0), 6]) == 21

    def test_pointer_arithmetic_on_elements(self):
        src = """
        int f(int *a) {
            int *p = a + 2;
            return *p;
        }
        """
        interp = Interpreter(parse_program(src))
        arr = interp.make_array("int", 4)
        arr.set_values([10, 20, 30, 40])
        assert interp.call("f", [rv.CellPtr(arr.elem(0), arr, 0)]) == 30

    def test_struct_field_access(self):
        src = """
        struct point { int x; int y; };
        int f(struct point *p) { return p->x * 10 + p->y; }
        """
        interp = Interpreter(parse_program(src))
        point = interp.make_struct("point")
        point.field("x").value = 3
        point.field("y").value = 4
        assert interp.call("f", [interp.ptr_to(point)]) == 34

    def test_local_struct(self):
        src = """
        struct point { int x; int y; };
        int f(void) {
            struct point p;
            p.x = 1;
            p.y = 2;
            return p.x + p.y;
        }
        """
        assert run(src, "f") == 3

    def test_struct_with_array_field(self):
        src = """
        struct buf { int len; int vals[4]; };
        int f(void) {
            struct buf b;
            b.len = 4;
            for (int i = 0; i < b.len; i++)
                b.vals[i] = i * i;
            return b.vals[3];
        }
        """
        assert run(src, "f") == 9

    def test_array_out_of_bounds(self):
        src = """
        int f(int *a) { return a[10]; }
        """
        interp = Interpreter(parse_program(src))
        arr = interp.make_array("int", 4)
        with pytest.raises(InterpError, match="out of bounds"):
            interp.call("f", [rv.CellPtr(arr.elem(0), arr, 0)])

    def test_null_dereference(self):
        src = "int f(int *p) { return *p; }"
        with pytest.raises(InterpError, match="NULL"):
            run(src, "f", rv.NULL)

    def test_buffer_big_endian_store(self):
        src = """
        void f(caddr_t out, long v) {
            *(long *)out = v;
        }
        """
        interp = Interpreter(parse_program(src))
        buf = interp.make_buffer(8)
        interp.call("f", [rv.BufPtr(buf, 0, 1), 0x01020304])
        assert buf.bytes()[:4] == bytes([1, 2, 3, 4])

    def test_buffer_cursor_walk(self):
        src = """
        int f(caddr_t buf, int n) {
            caddr_t p = buf;
            int s = 0;
            for (int i = 0; i < n; i++) {
                s += *(long *)p;
                p = p + 4;
            }
            return s;
        }
        """
        interp = Interpreter(parse_program(src))
        buf = interp.make_buffer(16)
        for index, value in enumerate([5, 6, 7, 8]):
            buf.store_u32(index * 4, value)
        assert interp.call("f", [rv.BufPtr(buf, 0, 1), 4]) == 26

    def test_buffer_overflow_detected(self):
        src = "void f(caddr_t p) { *(long *)p = 1; }"
        interp = Interpreter(parse_program(src))
        buf = interp.make_buffer(2)
        with pytest.raises(InterpError, match="out of bounds"):
            interp.call("f", [rv.BufPtr(buf, 0, 1)])


class TestBuiltins:
    def test_htonl_is_identity_mask(self):
        assert run("u_long f(u_long x) { return htonl(x); }", "f",
                   0x11223344) == 0x11223344

    def test_bzero_on_buffer(self):
        src = "void f(caddr_t p, int n) { bzero(p, n); }"
        interp = Interpreter(parse_program(src))
        buf = interp.make_buffer(8)
        buf.data[:] = b"\xff" * 8
        interp.call("f", [rv.BufPtr(buf, 0, 1), 6])
        assert buf.bytes() == b"\x00" * 6 + b"\xff\xff"

    def test_memcpy(self):
        src = "void f(caddr_t d, caddr_t s, int n) { memcpy(d, s, n); }"
        interp = Interpreter(parse_program(src))
        src_buf = interp.make_buffer(4)
        dst_buf = interp.make_buffer(4)
        src_buf.data[:] = b"abcd"
        interp.call(
            "f", [rv.BufPtr(dst_buf, 0, 1), rv.BufPtr(src_buf, 0, 1), 4]
        )
        assert dst_buf.bytes() == b"abcd"

    def test_net_sendrecv_roundtrip(self):
        src = """
        int f(caddr_t out, caddr_t in_) {
            *(long *)out = 7;
            return net_sendrecv(out, 4, in_, 64);
        }
        """
        interp = Interpreter(parse_program(src))
        interp.network = lambda req: req + req
        out = interp.make_buffer(64)
        inb = interp.make_buffer(64)
        got = interp.call(
            "f", [rv.BufPtr(out, 0, 1), rv.BufPtr(inb, 0, 1)]
        )
        assert got == 8
        assert inb.bytes()[:8] == out.bytes()[:4] * 2

    def test_net_sendrecv_without_network(self):
        src = "int f(caddr_t o, caddr_t i) { return net_sendrecv(o, 1, i, 1); }"
        interp = Interpreter(parse_program(src))
        out = interp.make_buffer(4)
        inb = interp.make_buffer(4)
        with pytest.raises(InterpError, match="no network"):
            interp.call("f", [rv.BufPtr(out, 0, 1), rv.BufPtr(inb, 0, 1)])

    def test_abort(self):
        with pytest.raises(InterpError, match="abort"):
            run("void f(void) { abort(); }", "f")


class TestTracing:
    def test_trace_records_events(self):
        src = """
        int f(int *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                s += a[i];
            return s;
        }
        """
        interp = Interpreter(parse_program(src))
        arr = interp.make_array("int", 8)
        trace = Trace()
        interp.call("f", [rv.CellPtr(arr.elem(0), arr, 0), 8], trace=trace)
        counts = trace.counts()
        assert counts["load"] == 8  # one per element; locals in registers
        assert counts["branch"] == 9  # loop condition, incl. final test
        assert counts["ifetch"] > 20

    def test_trace_scales_with_work(self):
        src = """
        int f(int *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                s += a[i];
            return s;
        }
        """
        interp = Interpreter(parse_program(src))
        arr = interp.make_array("int", 64)
        small, large = Trace(), Trace()
        interp.call("f", [rv.CellPtr(arr.elem(0), arr, 0), 4], trace=small)
        interp.call("f", [rv.CellPtr(arr.elem(0), arr, 0), 64], trace=large)
        assert len(large) > 10 * len(small) / 2

    def test_memory_traffic(self):
        src = "void f(caddr_t p) { bzero(p, 800); }"
        interp = Interpreter(parse_program(src))
        buf = interp.make_buffer(800)
        trace = Trace()
        interp.call("f", [rv.BufPtr(buf, 0, 1)], trace=trace)
        assert trace.memory_traffic() == 800

    def test_untraced_run_has_no_trace_cost(self):
        src = "int f(int a) { return a + 1; }"
        interp = Interpreter(parse_program(src))
        assert interp.call("f", [1]) == 2
        assert interp.trace is None
