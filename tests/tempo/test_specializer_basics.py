"""Core specializer behaviours on small programs."""

import itertools

import pytest

from repro.errors import SpecializationError
from repro.minic import ast
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program
from repro.tempo import Dyn, DynPtr, Known, PtrTo, StructOf, specialize
from repro.tempo.specializer import Options


def spec(source, entry, assumptions, **kwargs):
    return specialize(parse_program(source), entry, assumptions, **kwargs)


def run(program, entry, *args):
    return Interpreter(program).call(entry, list(args))


def residual_text(result):
    return result.pretty()


class TestConstantFolding:
    def test_fully_static_computation(self):
        result = spec(
            "int f(int a, int b) { return a * b + a; }",
            "f",
            {"a": Known(6), "b": Known(7)},
        )
        assert run(result.program, "f_spec") == 48
        body = result.program.func("f_spec").body
        (ret,) = body.stmts
        assert isinstance(ret.value, ast.IntLit)

    def test_mixed_static_dynamic(self):
        result = spec(
            "int f(int a, int b) { return a * 10 + b; }",
            "f",
            {"a": Known(4), "b": Dyn()},
        )
        assert result.residual_params == [(result.program.funcs[0].params[0].ctype, "b")]
        assert run(result.program, "f_spec", 2) == 42

    def test_static_branch_selected(self):
        source = """
        int f(int mode, int x) {
            if (mode == 1)
                return x + 1;
            if (mode == 2)
                return x + 2;
            return 0;
        }
        """
        result = spec(source, "f", {"mode": Known(2), "x": Dyn()})
        body_text = residual_text(result)
        assert "x + 2" in body_text
        assert "x + 1" not in body_text
        assert run(result.program, "f_spec", 10) == 12

    def test_dead_static_branch_errors_do_not_fire(self):
        source = """
        int f(int mode, int x) {
            if (mode)
                return x / 0;
            return x;
        }
        """
        result = spec(source, "f", {"mode": Known(0), "x": Dyn()})
        assert run(result.program, "f_spec", 5) == 5

    def test_sizeof_and_defines_fold(self):
        source = """
        #define K 3
        int f(int x) { return x + sizeof(long) * K; }
        """
        result = spec(source, "f", {"x": Dyn()})
        assert "12" in residual_text(result)


class TestLoops:
    def test_static_loop_unrolls(self):
        source = """
        int f(int n, int *a) {
            int s = 0;
            for (int i = 0; i < n; i++)
                s += a[i];
            return s;
        }
        """
        from repro.tempo.assumptions import ArrayOf

        result = spec(
            source, "f", {"n": Known(4), "a": PtrTo(ArrayOf(4))}
        )
        text = residual_text(result)
        assert "a[3]" in text
        assert "for" not in text

    def test_unrolled_loop_correct(self):
        source = """
        int f(int n, int *a) {
            int s = 0;
            for (int i = 0; i < n; i++)
                s += a[i] * (i + 1);
            return s;
        }
        """
        from repro.minic import values as rv
        from repro.tempo.assumptions import ArrayOf

        program = parse_program(source)
        result = specialize(
            program, "f", {"n": Known(3), "a": PtrTo(ArrayOf(3))}
        )
        interp = Interpreter(result.program)
        arr = interp.make_array("int", 3)
        arr.set_values([5, 6, 7])
        got = interp.call("f_spec", [rv.CellPtr(arr.elem(0), arr, 0)])
        assert got == 5 * 1 + 6 * 2 + 7 * 3

    def test_dynamic_loop_residualized(self):
        source = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                s += i;
            return s;
        }
        """
        result = spec(source, "f", {"n": Dyn()})
        text = residual_text(result)
        assert "while" in text or "for" in text
        assert run(result.program, "f_spec", 10) == 45

    def test_max_unroll_residualizes_large_loops(self):
        source = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                s += i;
            return s;
        }
        """
        result = spec(
            source, "f", {"n": Known(100)},
            options=Options(max_unroll=10),
        )
        text = residual_text(result)
        assert "while" in text
        assert run(result.program, "f_spec") == 4950

    def test_static_while_with_break(self):
        source = """
        int f(void) {
            int i = 0;
            while (1) {
                i++;
                if (i == 5)
                    break;
            }
            return i;
        }
        """
        result = spec(source, "f", {})
        assert run(result.program, "f_spec") == 5
        assert "while" not in residual_text(result)

    def test_dynamic_break_inside_static_loop_demotes(self):
        source = """
        int f(int limit) {
            int i = 0;
            while (i < 10) {
                if (i == limit)
                    break;
                i++;
            }
            return i;
        }
        """
        result = spec(source, "f", {"limit": Dyn()})
        for limit in (0, 3, 10, 99):
            expected = run(parse_program(source), "f", limit)
            assert run(result.program, "f_spec", limit) == expected

    def test_nested_static_loops(self):
        source = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                for (int j = 0; j <= i; j++)
                    s += 1;
            return s;
        }
        """
        result = spec(source, "f", {"n": Known(4)})
        assert run(result.program, "f_spec") == 10


class TestCalls:
    def test_static_call_fully_evaluated(self):
        source = """
        int square(int x) { return x * x; }
        int f(int a) { return square(a) + 1; }
        """
        result = spec(source, "f", {"a": Known(9)})
        assert run(result.program, "f_spec") == 82

    def test_polyvariant_specialization(self):
        """The same function called with different static arguments
        produces different residual constants (context sensitivity)."""
        source = """
        int scale(int k, int x) { return k * x; }
        int f(int x) { return scale(2, x) + scale(5, x); }
        """
        result = spec(source, "f", {"x": Dyn()})
        text = residual_text(result)
        assert "2 * x" in text and "5 * x" in text
        assert run(result.program, "f_spec", 3) == 21

    def test_recursion_rejected(self):
        source = """
        int f(int n) {
            if (n)
                return f(n - 1);
            return 0;
        }
        """
        with pytest.raises(SpecializationError, match="recursive"):
            spec(source, "f", {"n": Dyn()})

    def test_void_function_call(self):
        source = """
        struct box { int v; };
        void bump(struct box *b) { b->v = b->v + 1; }
        int f(struct box *b) { bump(b); bump(b); return b->v; }
        """
        result = spec(source, "f", {"b": PtrTo(StructOf(v=Known(5)))})
        interp = Interpreter(result.program)
        box = interp.make_struct("box")
        assert interp.call("f_spec", [interp.ptr_to(box)]) == 7

    def test_call_chain_through_layers(self):
        source = """
        int l3(int x) { return x + 1; }
        int l2(int x) { return l3(x) * 2; }
        int l1(int x) { return l2(x) + 3; }
        int f(int x) { return l1(x); }
        """
        result = spec(source, "f", {"x": Known(10)})
        assert run(result.program, "f_spec") == 25


class TestPartiallyStaticStructs:
    SOURCE = """
    struct config { int mode; int limit; caddr_t buffer; };
    int f(struct config *c, int x) {
        if (c->mode == 0)
            return x;
        if (x > c->limit)
            return c->limit;
        return x;
    }
    """

    def test_static_fields_fold(self):
        result = spec(
            self.SOURCE, "f",
            {
                "c": PtrTo(StructOf(mode=Known(1), limit=Known(100),
                                    buffer=Dyn())),
                "x": Dyn(),
            },
        )
        text = residual_text(result)
        assert "mode" not in text.split("};")[-1]

        def call(x):
            interp = Interpreter(result.program)
            struct = interp.make_struct("config")
            return interp.call("f_spec", [interp.ptr_to(struct), x])

        assert call(150) == 100
        assert call(50) == 50

    def test_dynamic_field_stays(self):
        result = spec(
            self.SOURCE, "f",
            {
                "c": PtrTo(StructOf(mode=Known(1), limit=Dyn())),
                "x": Dyn(),
            },
        )
        body = residual_text(result).split("};")[-1]
        assert "limit" in body

    def test_ablation_partially_static_off(self):
        result = spec(
            self.SOURCE, "f",
            {
                "c": PtrTo(StructOf(mode=Known(1), limit=Known(100))),
                "x": Dyn(),
            },
            options=Options(partially_static=False),
        )
        # Semantics must still hold even with the refinement disabled.
        interp = Interpreter(result.program)
        struct = interp.make_struct("config")
        struct.field("mode").value = 1
        struct.field("limit").value = 100
        got = interp.call("f_spec", [interp.ptr_to(struct), 150])
        assert got == 100


class TestStructMutation:
    def test_static_field_updates_tracked(self):
        source = """
        struct acc { int total; };
        void add(struct acc *a, int v) { a->total = a->total + v; }
        int f(struct acc *a) {
            add(a, 10);
            add(a, 20);
            return a->total;
        }
        """
        result = spec(source, "f", {"a": PtrTo(StructOf(total=Known(1)))})
        interp = Interpreter(result.program)
        acc = interp.make_struct("acc")
        assert interp.call("f_spec", [interp.ptr_to(acc)]) == 31

    def test_address_taken_locals(self):
        source = """
        void put(long *p, long v) { *p = v; }
        int f(void) {
            long tmp;
            put(&tmp, 5);
            return (int)tmp;
        }
        """
        result = spec(source, "f", {})
        assert run(result.program, "f_spec") == 5


#: the inputs every parameter ranges over below, Known or Dyn
VALUES = (-2, 0, 1, 3)


def agrees_with_source(source, params):
    """Specialize ``f`` under every Known/Dyn mix of ``params`` (each
    Known one at every value of :data:`VALUES`) and run the residual
    on every input of its Dyn ones: each run must return what the
    source returns.  Returns the residuals checked."""
    program = parse_program(source)
    checked = 0
    for mask in itertools.product((True, False), repeat=len(params)):
        known = [p for p, k in zip(params, mask) if k]
        dyn = [p for p, k in zip(params, mask) if not k]
        for fixed in itertools.product(VALUES, repeat=len(known)):
            env = dict(zip(known, fixed))
            assumptions = {p: Known(env[p]) if p in env else Dyn()
                           for p in params}
            result = spec(source, "f", assumptions)
            for values in itertools.product(VALUES, repeat=len(dyn)):
                env.update(zip(dyn, values))
                want = run(program, "f", *[env[p] for p in params])
                assert run(result.program, "f_spec", *values) == want, (
                    assumptions, values, result.pretty())
            checked += 1
    return checked


class TestShortCircuitAndConditional:
    """``&&`` / ``||`` and ``?:`` under every Known/Dyn mix — with a
    static variable assigned on the side that may not run, so a
    dynamic left operand or condition must branch rather than
    evaluate both sides."""

    def test_logical_operators_agree_with_the_source(self):
        source = """
        int f(int a, int b, int c) {
            int r = 0;
            int k = 0;
            if (a > 0 && b > 0) r += 1;
            if (a > 0 || c > 0) r += 2;
            if (b < 0 && c < 0) r += 4;
            if (b == 0 || c == 0) r += 8;
            if (b > 0 && (k = k + 1) > 0) r += 64;
            if (c > 0 || (k = k + 10) > 0) r += 128;
            return r + (a && b) * 16 + (b || c) * 32 + k * 256;
        }
        """
        assert agrees_with_source(source, "abc") == 125

    def test_static_operands_fold_away(self):
        result = spec("int f(int a, int b) { return (a && b) + (a || b); }",
                      "f", {"a": Known(0), "b": Dyn()})
        text = residual_text(result)
        assert "&&" not in text and "||" not in text
        assert run(result.program, "f_spec", 3) == 1

    def test_conditional_expression_agrees_with_the_source(self):
        source = """
        int f(int a, int b, int c) {
            int k = 0;
            int d = a > b ? a - b : b - a;
            int e = c ? (k = 3) : (k = 4);
            return d * 100 + e * 10 + k + (a ? (b ? 1 : 2) : 3) * 1000;
        }
        """
        assert agrees_with_source(source, "abc") == 125

    def test_static_condition_selects_one_arm(self):
        result = spec("int f(int a, int x) { return a ? x + 7 : x - 9; }",
                      "f", {"a": Known(1), "x": Dyn()})
        text = residual_text(result)
        assert "7" in text and "9" not in text
        assert run(result.program, "f_spec", 5) == 12


class TestContinue:
    def test_static_loop_continue_unrolls_away(self):
        source = """
        int f(int x) {
            int s = 0;
            for (int i = 0; i < 6; i++) {
                if (i % 2)
                    continue;
                s += i * x;
            }
            return s;
        }
        """
        result = spec(source, "f", {"x": Dyn()})
        text = residual_text(result)
        assert "continue" not in text and "while" not in text
        for x in VALUES:
            assert (run(result.program, "f_spec", x)
                    == run(parse_program(source), "f", x))

    def test_residual_while_loop_keeps_its_continue(self):
        source = """
        int f(int n, int x) {
            int s = 0;
            int i = 0;
            while (i < n) {
                i++;
                if (x == i)
                    continue;
                s += i;
            }
            return s;
        }
        """
        result = spec(source, "f", {"n": Dyn(), "x": Dyn()})
        assert "continue" in residual_text(result)
        assert agrees_with_source(source, "nx") == 25

    @pytest.mark.parametrize("assumptions", [
        {"n": Dyn(), "x": Known(2)},  # a dynamic bound: residual for
        {"n": Known(4), "x": Dyn()},  # a dynamic continue demotes it
    ], ids=["dynamic-bound", "dynamic-continue"])
    def test_continue_in_a_residual_for_loop_is_refused_typed(
            self, assumptions):
        source = """
        int f(int n, int x) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (x == i)
                    continue;
                s += i;
            }
            return s;
        }
        """
        with pytest.raises(SpecializationError,
                           match="continue inside a residualized for loop"):
            spec(source, "f", assumptions)
