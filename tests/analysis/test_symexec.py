"""The 32-bit symbolic domain underneath the equivalence verifier."""

import pytest

from repro.analysis.symexec import (MASK32, SymbolicInterpreter, SymBuffer,
                                    Undecidable, is_sym, sym, sym_bin,
                                    sym_byte, sym_cat, values_equal)
from repro.minic import types as ct
from repro.minic.parser import parse_program


class TestAlgebra:
    def test_concrete_folding(self):
        assert sym_bin("+", 3, 4) == 7
        assert sym_bin("*", 5, 0) == 0

    def test_identity_mask_folds_away(self):
        x = sym("x")
        assert (x & MASK32) is x
        assert sym_bin("&", x, MASK32) is x

    def test_nested_mask_folds(self):
        x = sym("x")
        masked = sym_bin("&", x, 0xFFFF)
        assert sym_bin("&", masked, 0xFFFF) == masked

    def test_structural_equality_is_semantic(self):
        a = sym_bin("+", sym("x"), 1)
        b = sym_bin("+", sym("x"), 1)
        assert a == b
        assert values_equal(a, b)
        assert not values_equal(a, sym_bin("+", sym("y"), 1))

    def test_byte_reassembly_roundtrip(self):
        x = sym("x")
        parts = [sym_byte(x, shift) for shift in (24, 16, 8, 0)]
        assert sym_cat(parts) is x

    def test_byte_of_cat_selects_part(self):
        x, y = sym("x"), sym("y")
        word = sym_cat([sym_byte(x, 24), sym_byte(x, 16),
                        sym_byte(y, 8), sym_byte(y, 0)])
        assert sym_byte(word, 24) == sym_byte(x, 24)

    def test_comparison_folds_only_on_structural_equality(self):
        x = sym("x")
        assert sym_bin("==", x, x) == 1
        assert sym_bin("!=", x, x) == 0
        # x == y is genuinely unknown: stays symbolic.
        assert is_sym(sym_bin("==", x, sym("y")))

    def test_int_coercion_fails_closed(self):
        with pytest.raises(Undecidable):
            int(sym("x"))

    def test_wrap_keeps_the_residue_and_the_sign(self):
        # a 32-bit wrap is the identity on a residue; narrowing to a
        # signed char sign-extends, which a mask alone does not
        x = sym("x")
        wrap = SymbolicInterpreter.wrap
        assert (x & 0xFFFFFFFF) is x
        assert wrap(x, ct.INT) is x and wrap(x, ct.U_LONG) is x
        assert wrap(x, ct.IntType("u_char", 1, False)) == sym_bin("&", x, 255)
        assert not values_equal(wrap(x, ct.CHAR), sym_bin("&", x, 255))
        assert wrap(-1, ct.CHAR) == -1


class TestSymBuffer:
    def test_store_load_roundtrip(self):
        buf = SymBuffer(16)
        x = sym("x")
        buf.store_int(4, x, 4, False)
        assert buf.load_int(4, 4, signed=False) is x
        assert buf.covered(0)

    def test_covered_reports_unwritten_ranges(self):
        buf = SymBuffer(12)
        buf.store_int(0, 7, 4, False)
        buf.store_int(8, 9, 4, False)
        assert buf.covered(8) is False
        assert not buf.covered(12)
        buf.store_int(4, 8, 4, False)
        assert buf.covered(12)

    def test_concrete_bytes_render(self):
        buf = SymBuffer(8)
        buf.store_int(0, 0x01020304, 4, False)
        assert buf.bytes()[:4] == bytes([1, 2, 3, 4])


class TestInterpreter:
    SRC = """
    int pick(int flag) {
        if (flag) {
            return 1;
        }
        return 2;
    }

    u_int mask_low(u_int value) {
        return value & 0xFF;
    }
    """

    def _interp(self):
        return SymbolicInterpreter(parse_program(self.SRC))

    def test_symbolic_branch_is_undecidable(self):
        interp = self._interp()
        with pytest.raises(Undecidable):
            interp.call("pick", [sym("flag")])

    def test_concrete_branch_still_runs(self):
        interp = self._interp()
        assert interp.call("pick", [0]) == 2
        assert interp.call("pick", [5]) == 1

    def test_symbolic_arithmetic_flows_through(self):
        interp = self._interp()
        out = interp.call("mask_low", [sym("value")])
        assert out == sym_bin("&", sym("value"), 0xFF)


class TestSignedness:
    """A signed operator and its unsigned twin differ on negative
    inputs, so their symbolic results must not compare equal: the
    verifier would otherwise accept a residual that swapped one for the
    other.  Each pair is (generic, residual, witness input)."""

    PAIRS = {
        "shift": ("x >> 4", "(int)((unsigned)x >> 4)", -32),
        "divide": ("x / 16", "(int)((unsigned)x / (unsigned)16)", -32),
        "remainder": ("x % 16", "(int)((unsigned)x % (unsigned)16)", -1),
        "narrow": ("(char)x", "x & 255", -1),
    }

    @staticmethod
    def _run(expr, value):
        program = parse_program(f"int f(int x) {{ return {expr}; }}")
        return SymbolicInterpreter(program).call("f", [value])

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_signed_and_unsigned_twins_differ(self, pair):
        generic, residual, witness = self.PAIRS[pair]
        assert self._run(generic, witness) != self._run(residual, witness)
        assert not values_equal(self._run(generic, sym("x")),
                                self._run(residual, sym("x")))

    def test_same_signedness_still_proves_equal(self):
        for expr in ("x >> 4", "(char)x", "(unsigned)x / (unsigned)16"):
            assert values_equal(self._run(expr, sym("x")),
                                self._run(expr, sym("x")))
        assert values_equal(self._run("(int)((unsigned)x >> 0)", sym("x")),
                            self._run("x >> 0", sym("x")))

    def test_signed_comparison_is_tagged(self):
        program = parse_program("""
            int s(int x) { return x < 5; }
            int u(int x) { return (unsigned)x < (unsigned)5; }
        """)
        interp = SymbolicInterpreter(program)
        assert not values_equal(interp.call("s", [sym("x")]),
                                interp.call("u", [sym("x")]))

    def test_a_signed_byte_load_sign_extends(self):
        buf = SymBuffer(4)
        buf.store_int(0, sym("x"), 4, False)
        assert buf.load_int(3, 1, signed=False) == sym_cat(
            [sym_byte(sym("x"), 0)])
        assert not values_equal(buf.load_int(3, 1, signed=True),
                                buf.load_int(3, 1, signed=False))
