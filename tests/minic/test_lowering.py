"""The type-directed lowering of ``compile_py`` against the interpreter.

Three layers:

* a seeded generator of small MiniC functions — integer arithmetic over
  ``int``/``unsigned``/``char`` objects at the edges of their ranges,
  nested conditions, loops of every shape the backend treats
  specially, and a run of cursor loads with early-return tests between
  its words — whose compiled form must return what the interpreter
  returns *and* leave the same memory (and cursor) behind;
* hand-written cases for the counted-loop matcher: every refusal it
  must make, and the edges of the loops it accepts — and a Hypothesis
  property for the map loops it lowers to one comprehension;
* golden assertions on the real n=1000 residual codecs: the shapes the
  performance ledger's counts depend on.
"""

import copy
import random
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpError
from repro.minic import pyruntime as rt
from repro.minic import values as rv
from repro.minic.compile_py import compile_program
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program

INT_MAX, INT_MIN = 0x7FFFFFFF, -0x80000000
EDGES = (0, 1, 2, 7, -1, -2, INT_MAX, INT_MIN, INT_MAX - 1, INT_MIN + 1,
         0x12345678, -0x12345678)

PRELUDE = """
struct S {
    int n;
    int a[8];
    unsigned u[4];
    char c[4];
    int x; int y; unsigned p; unsigned q; char ch;
    int i; int j; int k; int old; int cnt;
    caddr_t cur;
};

int g(int *count, int v)
{
    *count = *count + 1;
    return v;
}
"""


S_FIELDS = ("n", "a", "u", "c", "x", "y", "p", "q", "ch", "i", "j", "k",
            "old", "cnt", "cur")

#: what ``s->cur`` points at in :func:`run_both`: sixteen words, small
#: ones first so that the generated tests on them fire now and then
WIRE_WORDS = (0, 1, 2, 7, 1, 0, 3, 2) + EDGES[4:]


class Gen:
    """One random function ``int f(struct S *s, int a, int b, int n)``.

    Loop counters (``i``/``j``/``k``), ``n`` and ``t.n`` are never
    assignment targets inside a loop body, so every loop terminates
    and every ``t.a[i]`` stays in bounds (``n``, ``t.n`` <= 8)."""

    SCALARS = ("x", "y", "p", "q", "ch")

    def __init__(self, seed):
        self.r = random.Random(seed)
        self.lines = []
        self.depth = 1

    def emit(self, text):
        self.lines.append("    " * self.depth + text)

    # -- expressions ---------------------------------------------------

    def leaf(self, index=None):
        r = self.r
        pick = r.randrange(10)
        if pick < 3:
            value = r.choice(EDGES)
            return f"(-{-value})" if value < 0 else str(value)
        if pick < 6:
            return r.choice(self.SCALARS + ("a", "b", "n", "t.n"))
        where = index if index and r.random() < 0.6 else None
        if pick < 8:
            return f"t.a[{where or r.randrange(8)}]"
        if pick == 8:
            return f"t.u[{r.randrange(4)}]"
        return f"t.c[{r.randrange(4)}]"

    def expr(self, depth, index=None, calls=True):
        r = self.r
        if depth <= 0 or r.random() < 0.2:
            return self.leaf(index)

        def sub():
            return self.expr(depth - 1, index, calls)

        pick = r.randrange(14)
        if pick < 5:
            op = r.choice(("+", "-", "*", "&", "|", "^"))
            return f"({sub()} {op} {sub()})"
        if pick < 7:
            op = r.choice(("==", "!=", "<", "<=", ">", ">="))
            return f"({sub()} {op} {sub()})"
        if pick == 7:
            return f"({sub()} {r.choice(('&&', '||'))} {sub()})"
        if pick == 8:
            return f"{r.choice(('-', '~', '!'))}({sub()})"
        if pick == 9:
            return f"({sub()} {r.choice(('<<', '>>'))} ({sub()} & 31))"
        if pick == 10:
            return f"({sub()} {r.choice(('/', '%'))} ({sub()} | 1))"
        if pick == 11:
            cast = r.choice(("int", "long", "u_long", "unsigned", "char"))
            return f"({cast})({sub()})"
        if pick == 12:
            return f"({sub()} ? {sub()} : {sub()})"
        if calls:
            return f"g(&cnt, {sub()})"
        return self.leaf(index)

    # -- statements ----------------------------------------------------

    def target(self, index=None):
        r = self.r
        pick = r.randrange(6)
        if pick < 3:
            return r.choice(self.SCALARS)
        if pick == 3:
            return f"t.a[{index or r.randrange(8)}]"
        if pick == 4:
            return f"t.u[{r.randrange(4)}]"
        return f"t.c[{r.randrange(4)}]"

    def assign(self, index=None, calls=True):
        r = self.r
        target = self.target(index)
        pick = r.randrange(6)
        if pick == 0:
            self.emit(f"{target}{r.choice(('++', '--'))};")
        elif pick == 1:
            op = r.choice(("+", "-", "*", "&", "|", "^"))
            self.emit(f"{target} {op}= {self.expr(2, index, calls)};")
        elif pick == 2:
            # a bare copy across types: where a wrongly elided wrap shows
            unsigned = target[0] in "pq" or target.startswith("t.u")
            pool = (("x", "y", "a", "b", "ch", "t.c[1]", "t.a[3]", "t.a[5]")
                    if unsigned else ("p", "q", "t.u[0]", "t.u[2]"))
            self.emit(f"{target} = {r.choice(pool)};")
        else:
            self.emit(f"{target} = {self.expr(3, index, calls)};")

    def block(self, budget, index=None, calls=True):
        for _ in range(self.r.randrange(1, budget + 1)):
            self.stmt(budget - 1, index, calls)

    def stmt(self, budget, index=None, calls=True):
        r = self.r
        pick = r.randrange(10)
        if budget <= 0 or pick < 4:
            self.assign(index, calls)
        elif pick < 6:
            self.emit(f"if ({self.expr(2, index, calls)}) {{")
            self.depth += 1
            self.block(budget, index, calls)
            self.depth -= 1
            if r.random() < 0.5:
                self.emit("} else {")
                self.depth += 1
                self.block(budget, index, calls)
                self.depth -= 1
            self.emit("}")
        else:
            self.loop(budget)

    def bound(self):
        return self.r.choice(("n", "t.n", str(self.r.randrange(9))))

    def loop(self, budget):
        """One loop, of a shape chosen among those the backend lowers
        differently; nested loops take the next counter."""
        r = self.r
        counters = [c for c in ("i", "j", "k") if c not in self.active]
        if not counters:
            self.assign()
            return
        i = counters[0]
        self.active.append(i)
        start = r.choice(("0", "0", "1", "3", "n"))
        shape = r.choice(("counted", "tempo", "for", "for-jumps",
                          "calls", "compound-test"))
        calls = shape == "calls"
        if shape in ("for", "for-jumps"):
            self.emit(f"for ({i} = {start}; {i} < {self.bound()}; {i}++) {{")
        else:
            test = f"{i} < {self.bound()}"
            if shape == "compound-test":
                test = f"{test} && {self.expr(1, i, False)}"
            self.emit(f"{i} = {start};")
            self.emit(f"while ({test}) {{")
        self.depth += 1
        self.block(budget, i, calls)
        if shape == "for-jumps":
            jump = r.choice(("break", "continue"))
            self.emit(f"if ({self.expr(1, i, False)}) {jump};")
            self.assign(i, False)
        if shape == "tempo":
            self.emit(f"old = {i};")
            self.emit(f"{i} = old + 1;")
        elif shape in ("counted", "calls", "compound-test"):
            self.emit(f"{i} = {i} + 1;")
        self.depth -= 1
        self.emit("}")
        self.active.pop()

    def guarded_run(self):
        """Lines of a run of loads through ``s->cur``, most followed by
        an early-return test on the word just loaded — the shape of a
        residual header check.  Its own generator: the bodies above are
        what they were before the shape was added."""
        r = random.Random(self.r.random())
        lines = []
        for _ in range(r.randrange(2, 6)):
            target = r.choice(("x", "y", "p", "q", "ch",
                               f"s->a[{r.randrange(8)}]"))
            lines.append(f"    {target} ="
                         " (long)ntohl((u_long)*(long *)s->cur);")
            lines.append("    s->cur = s->cur + 4;")
            if r.random() < 0.7 and "[" not in target:
                other = r.choice(("a", "n", "x", "y", str(r.randrange(4)),
                                  "(-1)"))
                op = r.choice(("==", "!=", "<", ">="))
                test = r.choice((f"{target} {op} {other}",
                                 f"({target} & 3) {op} {other}",
                                 f"(u_long){target} {op} (u_long){other}"))
                lines.append(f"    if ({test}) return {r.randrange(90, 99)};")
        return "\n".join(lines)

    def source(self):
        self.active = []
        self.block(4)
        body = "\n".join(self.lines)
        copy_out = "\n".join(
            [f"    s->a[{k}] = t.a[{k}];" for k in range(8)]
            + [f"    s->u[{k}] = t.u[{k}]; s->c[{k}] = t.c[{k}];"
               for k in range(4)]
            + [f"    s->{name} = {name};" for name in
               ("x", "y", "p", "q", "ch", "i", "j", "k", "old", "cnt")]
        )
        return PRELUDE + f"""
int f(struct S *s, int a, int b, int n)
{{
    struct S t;
    int x; int y; unsigned p; unsigned q; char ch;
    int i; int j; int k; int old; int cnt;
    int r;
    x = a; y = b; p = (unsigned)a; q = 3000000000; ch = (char)b;
    i = 0; j = 0; k = 0; old = 0; cnt = 0;
    t.n = n;
    t.a[0] = a; t.a[1] = b; t.a[2] = {INT_MAX}; t.a[3] = (-{-INT_MIN});
    t.a[4] = 0; t.a[5] = (-1); t.a[6] = 5; t.a[7] = a;
    t.u[0] = 4294967295; t.u[1] = 0; t.u[2] = (unsigned)b; t.u[3] = 7;
    t.c[0] = 127; t.c[1] = (-128); t.c[2] = (char)a; t.c[3] = 0;
{body}
    s->n = t.n;
{copy_out}
{self.guarded_run()}
    s->x = x; s->y = y; s->p = p; s->q = q; s->ch = ch;
    r = x + y;
    return r;
}}
"""


def _interp_memory(struct_val):
    out = []
    for name, _ctype in struct_val.stype.fields:
        value = struct_val.field(name).value
        out.append(value.values() if hasattr(value, "values")
                   else None if value is rv.NULL
                   else getattr(value, "offset", value))
    return out


def _compiled_memory(obj):
    # a cursor reads as its offset, NULL as None
    return [None if value is rt.NULL else getattr(value, "offset", value)
            for value in (getattr(obj, name) for name in obj.__slots__)]


def relowered(module, rewrite):
    """``module`` with its generated Python put through ``rewrite``."""
    clone = copy.copy(module)
    clone.source = rewrite(module.source)
    clone.namespace = {}
    exec(compile(clone.source, "<relowered>", "exec"), clone.namespace)
    return clone


def run_both(source, *args, wire=None, rewrite=None):
    """Call ``f(&s, *args)`` both ways, ``s->cur`` at the start of the
    ``wire`` bytes; returns the two (value, memory) outcomes — an
    exception's type name for a value that was not returned."""
    wire = struct.pack(">16i", *WIRE_WORDS) if wire is None else wire
    program = parse_program(source)
    interp = Interpreter(program)
    s_interp = interp.make_struct("S")
    buf = interp.make_buffer(max(len(wire), 1))
    for offset, byte in enumerate(wire):
        buf.store_int(offset, byte, 1, False)
    if "cur" in s_interp.fields:
        s_interp.field("cur").value = rv.BufPtr(buf, 0, 1)
    try:
        value = interp.call("f", [interp.ptr_to(s_interp), *args])
    except InterpError:
        value = "fault"
    module = compile_program(program)
    if rewrite is not None:
        module = relowered(module, rewrite)
    s_compiled = module.new_struct("S")
    if "cur" in s_compiled.__slots__:
        s_compiled.cur = rt.BufPtr(rt.PyBuffer(wire), 0, 1, True)
    try:
        compiled = module.call("f", s_compiled, *args)
    except (InterpError, struct.error):
        compiled = "fault"
    return ((value, _interp_memory(s_interp)),
            (compiled, _compiled_memory(s_compiled)), module)


@pytest.mark.parametrize("seed", range(120))
def test_generated_function_matches_interpreter(seed):
    source = Gen(seed).source()
    rng = random.Random(seed * 7919)
    for _ in range(4):
        a, b = rng.choice(EDGES), rng.choice(EDGES)
        n = rng.randrange(9)
        interp, compiled, _module = run_both(source, a, b, n)
        assert compiled == interp, (
            f"seed={seed} a={a} b={b} n={n}\n{source}"
        )


def test_generator_reaches_every_lowering():
    """The corpus is only a test of the lowering if it exercises it."""
    sources = [
        compile_program(parse_program(Gen(seed).source())).source
        for seed in range(120)
    ]
    text = "\n".join(sources)
    assert sum("for i in range(" in s for s in sources) >= 20
    assert sum("while True:" in s for s in sources) >= 10
    assert "for _once in (0,):" in text
    assert "+ 0x80000000) & 0xFFFFFFFF) - 0x80000000" in text
    assert "+ 0x80) & 0xFF) - 0x80" in text
    assert " and " in text and " or " in text and "not " in text
    assert sum(GUARDED_HEAD.search(s) is not None for s in sources) >= 40


#: the head of a guarded run: batch only if every word is there
GUARDED_HEAD = re.compile(
    r"if (_t\d+)\.offset \+ \d+ <= len\(\1\.buffer\.data\):")


def corpus_disagreements(rewrite=None):
    """Seeds of the generated corpus on which the compiled function
    (its Python put through ``rewrite``) and the interpreter differ."""
    bad = []
    for seed in range(120):
        source = Gen(seed).source()
        rng = random.Random(seed * 7919)
        for _ in range(4):
            a, b = rng.choice(EDGES), rng.choice(EDGES)
            interp, compiled, _module = run_both(
                source, a, b, rng.randrange(9), rewrite=rewrite)
            if compiled != interp:
                bad.append(seed)
                break
    return bad


def drop_cursor_restore(source):
    """Mutant: an early return inside a guarded run leaves the cursor
    where the run began."""
    return re.sub(r"\n +s\.cur = _t\d+\.add\(\d+\)(\n +return 9\d)",
                  r"\1", source)


def hoist_guard(source):
    """Mutant: a guard is evaluated before the assignment of the word
    it tests."""
    return re.sub(
        r"(\n +[a-z]+ = [^\n]*_t\d+\[\d+\][^\n]*)"
        r"(\n +if [^\n]+:\n +s\.cur = [^\n]+\n +return 9\d)",
        r"\2\1", source)


@pytest.mark.parametrize("mutant", [drop_cursor_restore, hoist_guard],
                         ids=lambda fn: fn.__name__)
def test_the_corpus_catches_a_wrong_guarded_run(mutant):
    assert corpus_disagreements() == []
    assert corpus_disagreements(mutant)


# -- the counted-loop matcher ------------------------------------------------


def loop_case(body, setup="", decls=""):
    return PRELUDE + f"""
int f(struct S *s, int a, int b, int n)
{{
    struct S t;
    int i; int old; int m; int *ip; {decls}
    i = 0; old = (-7); m = n;
    t.n = n;
    {setup}
    {body}
    s->i = i; s->old = old; s->n = t.n; s->x = m;
    s->a[0] = t.a[0]; s->a[1] = t.a[1]; s->a[2] = t.a[2]; s->a[3] = t.a[3];
    return i;
}}
"""


def assert_agree(source, counted, args=((0, 0, 0), (1, 2, 4), (5, 5, 8))):
    for call_args in args:
        interp, compiled, module = run_both(source, *call_args)
        assert compiled == interp, f"args={call_args}\n{module.source}"
    assert ("for i in range(" in module.source) == counted, module.source
    return module


class TestCountedLoopAccepts:
    def test_tempo_shape_restores_i_and_old(self):
        module = assert_agree(loop_case(
            "while (i < t.n) { t.a[i & 3] = i + a; old = i; i = old + 1; }"
        ), counted=True)
        assert "while" not in module.source.split("def mc_f")[1]

    def test_plain_increment_and_literal_bound(self):
        assert_agree(loop_case(
            "while (i < 4) { t.a[i] = t.a[i] + i; i = i + 1; }"
        ), counted=True)

    def test_for_loop_with_postincrement(self):
        assert_agree(loop_case(
            "for (i = 1; i < n; i++) { t.a[i & 3] = a * i; }"
        ), counted=True)

    def test_zero_trips_leave_i_and_old_alone(self):
        source = loop_case(
            "i = 9; while (i < n) { t.a[0] = 1; old = i; i = old + 1; }"
        )
        assert_agree(source, counted=True)
        interp, compiled, _ = run_both(source, 0, 0, 8)
        assert compiled == interp and compiled[0] == 9  # a >= BOUND
        assert compiled[1][S_FIELDS.index("old")] == -7  # untouched

    def test_negative_bound_is_zero_trips(self):
        assert_agree(loop_case(
            "m = (-3); while (i < m) { t.a[0] = 1; i = i + 1; }"
        ), counted=True)

    def test_old_read_after_the_loop(self):
        assert_agree(loop_case(
            "while (i < n) { t.a[0] = i; old = i; i = old + 1; }"
            " t.a[1] = old; t.a[2] = i;"
        ), counted=True)

    def test_sibling_fields_of_the_bound_may_be_written(self):
        assert_agree(loop_case(
            "while (i < t.n) { t.a[0] = i; t.x = 1; i = i + 1; }"
        ), counted=True)

    def test_nested_counted_loops(self):
        assert_agree(loop_case(
            "while (i < n) { k = 0;"
            " while (k < 3) { t.a[k] = t.a[k] + i; k = k + 1; }"
            " i = i + 1; } t.a[3] = k;", decls="int k;"
        ), counted=True)

    def test_wrap_still_applied_inside_the_loop(self):
        source = loop_case(
            "t.a[0] = 2147483647; while (i < 2) {"
            " t.a[i + 1] = t.a[i] + 1; i = i + 1; }"
        )
        assert_agree(source, counted=True)
        _interp, compiled, _ = run_both(source, 0, 0, 0)
        assert compiled[1][S_FIELDS.index("a")][:3] == [
            INT_MAX, INT_MIN, INT_MIN + 1]


class TestCountedLoopRefuses:
    """Each of these must keep the general ``while`` form — and still
    agree with the interpreter."""

    @pytest.mark.parametrize("body", [
        # the body assigns the counter
        "while (i < n) { if (i == 2) i = i + 2; i = i + 1; }",
        "while (i < n) { i += 1; i = i + 1; }",
        # the body assigns the bound
        "while (i < m) { m = m - 1; i = i + 1; }",
        "while (i < t.n) { t.n = t.n - 1; i = i + 1; }",
        # the bound is read through a pointer
        "while (i < s->n) { t.a[0] = i; i = i + 1; }",
        "ip = &m; while (i < *ip) { t.a[0] = i; i = i + 1; }",
        # the body stores through a pointer (which may alias the bound)
        "ip = &m; while (i < m) { *ip = *ip - 1; i = i + 1; }",
        "while (i < n) { s->a[0] = i; i = i + 1; }",
        # jumps and calls
        "while (i < n) { if (i == 2) break; i = i + 1; }",
        "while (i < n) { if (a) { i = i + 3; continue; } i = i + 1; }",
        "while (i < n) { if (i == 3) return 77; i = i + 1; }",
        "while (i < n) { t.a[0] = g(&t.a[1], i); i = i + 1; }",
        # ``old`` is live inside the body
        "while (i < n) { t.a[0] = old; old = i; i = old + 1; }",
        # not a ``<`` test, not a unit step, not an int bound
        "while (i <= n) { t.a[0] = i; i = i + 1; }",
        "while (i < n) { t.a[0] = i; i = i + 2; }",
        "while (i < t.p) { t.a[0] = i; i = i + 1; }",
        "while (i < n + 1) { t.a[0] = i; i = i + 1; }",
        # a whole-struct store may rebind what the bound reads
        "while (i < t.n) { t = *s; i = i + 1; }",
    ])
    def test_refused(self, body):
        setup = "s->n = n; s->a[0] = 0; t.p = 3;"
        assert_agree(loop_case(body, setup=setup), counted=False)

    def test_address_taken_counter(self):
        assert_agree(loop_case(
            "ip = &i; while (i < n) { t.a[0] = i; i = i + 1; }"
        ), counted=False)

    def test_global_counter(self):
        source = "int i;\n" + loop_case(
            "while (i < n) { t.a[0] = i; i = i + 1; }"
        ).replace("int i; int old;", "int old;")
        assert_agree(source, counted=False)


# -- map loops: one comprehension, the wrap deferred -------------------------

#: the values a wrong wrap, a check on the wrong side or a dropped
#: re-wrap gets wrong
MAP_EDGES = (INT_MIN, INT_MAX, -1, 0)

MAP_STRUCT = """
struct S { int a[8]; int b[8]; int d[8]; int i; int old; };
"""


def map_case(value, a, b, d, store="t.d[i]"):
    """``f(s, start, n)``: the Tempo-shaped counted loop ``store =
    value`` over a local struct whose arrays start as ``a``, ``b``,
    ``d``; everything it leaves behind is copied out to ``*s``."""
    def fill(name, values):
        return " ".join(f"t.{name}[{k}] = {f'(-{-v})' if v < 0 else v};"
                        for k, v in enumerate(values))

    copy_out = " ".join(f"s->{name}[{k}] = t.{name}[{k}];"
                        for name in "abd" for k in range(8))
    return MAP_STRUCT + f"""
int f(struct S *s, int start, int n)
{{
    struct S t; int i; int old;
    {fill("a", a)} {fill("b", b)} {fill("d", d)}
    old = (-7);
    i = start;
    while (i < n) {{ {store} = {value}; old = i; i = old + 1; }}
    {copy_out}
    s->i = i; s->old = old;
    return i;
}}
"""


MAP_VALUES = ("t.a[i] + 1", "t.a[i] + (-1)", "t.a[i] + 2147483647",
              "t.a[i] - 1", "t.a[i] * 3", "t.a[i] ^ 1515870810",
              "-t.a[i]", "~t.a[i]", "t.a[i] + t.b[i]",
              "(t.b[i] - t.a[i]) * 2 + t.b[i]")

_words = st.lists(st.sampled_from(MAP_EDGES) | st.integers(INT_MIN, INT_MAX),
                  min_size=8, max_size=8)


class TestMapLoops:
    @settings(max_examples=40, deadline=None)
    @given(value=st.sampled_from(MAP_VALUES), a=_words, b=_words, d=_words,
           start=st.integers(0, 8), n=st.integers(0, 8))
    def test_matches_the_interpreter(self, value, a, b, d, start, n):
        interp, compiled, module = run_both(map_case(value, a, b, d),
                                            start, n)
        assert compiled == interp, module.source
        body = _function(module.source, "f")
        assert " for _e1" in body and " in range(" not in body
        if start >= n:  # zero trips: i and old untouched
            assert compiled[0] == start
            assert compiled[1][S_MAP_FIELDS.index("old")] == -7

    @pytest.mark.parametrize("value", MAP_VALUES)
    def test_every_shape_at_the_edges(self, value):
        a, b = MAP_EDGES * 2, MAP_EDGES[::-1] * 2
        for start, n in ((0, 8), (3, 8), (2, 5), (8, 8), (6, 2)):
            interp, compiled, _ = run_both(map_case(value, a, b, [5] * 8),
                                           start, n)
            assert compiled == interp, (value, start, n)

    @pytest.mark.parametrize("value, tests", [
        # only the side the interval can leave by is tested
        ("t.a[i] + 1", ["max(_t1) > 0x7FFFFFFF"]),
        ("t.a[i] - 1", ["min(_t1) < -0x80000000"]),
        ("-t.a[i]", ["max(_t1) > 0x7FFFFFFF"]),
        # no interval: both sides
        ("t.a[i] * 3", ["max(_t1) > 0x7FFFFFFF", "min(_t1) < -0x80000000"]),
        # an interval inside the range: no test, no wrap
        ("t.a[i] + 0", []),
        ("~t.a[i]", []),
    ])
    def test_the_range_check_tests_only_the_sides_left(self, value, tests):
        body = _function(
            compiled_source(map_case(value, [0] * 8, [0] * 8, [0] * 8)), "f")
        checks = [line.strip() for line in body.splitlines()
                  if "max(" in line or "min(" in line]
        assert checks == ([f"if {' or '.join(tests)}:"] if tests else [])
        assert ("0xFFFFFFFF" in body) == bool(tests)

    @pytest.mark.parametrize("store, value", [
        # dst is src: kept as a loop
        ("t.a[i]", "t.a[i] + 1"),
        # reads the counter itself, or another element, or a variable
        ("t.d[i]", "t.a[i] + i"),
        ("t.d[i]", "t.a[0] + 1"),
        ("t.d[i]", "t.a[i] + n"),
        # an operator that can fault
        ("t.d[i]", "t.a[i] / 3"),
        # reads nothing indexed by the counter
        ("t.d[i]", "5"),
    ])
    def test_other_bodies_keep_the_for_form(self, store, value):
        a = MAP_EDGES * 2
        interp, compiled, module = run_both(
            map_case(value, a, a, a, store=store), 1, 7)
        assert compiled == interp
        body = _function(module.source, "f")
        assert "for i in range(i, n):" in body and " for _e" not in body

    @pytest.mark.parametrize("short", ["self.a", "self.d"])
    def test_a_short_array_faults_as_its_elements_would(self, short):
        # a list one element short of its C array: the element loop
        # faults reading or storing the last element; a bare slice
        # store would grow (or shrink) the list and carry on
        module = compile_program(parse_program(MAP_STRUCT + """
        int f(struct S *s, int n) {
            struct S t; int i;
            i = 0;
            while (i < n) { t.d[i] = t.a[i] + 1; i = i + 1; }
            s->d[0] = t.d[0];
            return i;
        }"""))
        assert module.call("f", module.new_struct("S"), 8) == 8
        # ``t`` is scalar-replaced: its fields are the locals ``t__a``...
        local = short.replace("self.", "t__")
        assert f"{local} = [0] * 8" in module.source
        bad = relowered(module, lambda source: source.replace(
            f"{local} = [0] * 8", f"{local} = [0] * 7"))
        with pytest.raises(InterpError, match="past the end"):
            bad.call("f", bad.new_struct("S"), 8)


S_MAP_FIELDS = ("a", "b", "d", "i", "old")


# -- a rolled element loop joins the cursor run ------------------------------


def span_case(loop, tail=""):
    return PRELUDE + f"""
int f(struct S *s, caddr_t buf, int n)
{{
    caddr_t p; int k; int m;
    m = 8;
    p = buf;
    *(long *)p = 7;
    p = p + 4;
    *(long *)p = (long)htonl((u_long)n);
    p = p + 4;
    k = 0;
    {loop}
    {tail}
    return (int)(p - buf);
}}
"""


STORE = "*(long *)p = (long)htonl((u_long)s->a[k]); p = p + 4;"
LOAD = "s->a[k] = (long)ntohl((u_long)*(long *)p); p = p + 4;"


def run_span(source):
    """``f(&s, buf, n)`` both ways over the same memory; returns the
    compiled module after asserting value, buffer and struct agree."""
    from repro.minic import pyruntime as rt
    from repro.minic import values as rv

    program = parse_program(source)
    wire = bytes(range(1, 65))
    interp = Interpreter(program)
    s_interp = interp.make_struct("S")
    s_interp.field("a").value.set_values(list(EDGES[:8]))
    buf = interp.make_buffer(64)
    for offset, byte in enumerate(wire):
        buf.store_int(offset, byte, 1, False)
    value = interp.call(
        "f", [interp.ptr_to(s_interp), rv.BufPtr(buf, 0, 1), 5])
    module = compile_program(program)
    s_compiled = module.new_struct("S")
    s_compiled.a = list(EDGES[:8])
    buffer = rt.PyBuffer(wire)
    compiled = module.call("f", s_compiled, rt.BufPtr(buffer, 0, 1, True), 5)
    assert (compiled, bytes(buffer.data), _compiled_memory(s_compiled)) == (
        value, buf.bytes(), _interp_memory(s_interp)), module.source
    return module


class TestLoopAsSpan:
    def test_store_loop_joins_the_header_words_in_one_pack(self):
        module = run_span(span_case(f"while (k < 8) {{ {STORE} k = k + 1; }}"))
        body = _function(module.source, "f")
        # the literal packs unsigned, ``n`` (an ``int``) signed as the
        # array does: the same bytes as ``(u_long)n``
        assert "_struct.Struct('>1I9i')" in module.source
        assert body.count("pack_into") == 1 and "*s.a[0:8])" in body
        assert "while" not in body and "for " not in body
        assert "k = " not in body  # the dead counter is gone, init and all

    def test_load_loop_is_one_unpack_into_a_slice(self):
        module = run_span(span_case(f"while (k < 8) {{ {LOAD} k = k + 1; }}")
                          .replace("*(long *)p = 7;", "m = *(long *)p;")
                          .replace("*(long *)p = (long)htonl((u_long)n);",
                                   "m = *(long *)p;"))
        body = _function(module.source, "f")
        assert body.count("unpack_from") == 1 and "s.a[0:8] = " in body
        assert "while" not in body and "for " not in body
        # into a list shorter than its C array: a fault, as the element
        # stores fault, not a longer list
        short = module.new_struct("S")
        short.a = [0] * 7
        with pytest.raises(InterpError, match="past the end"):
            module.call("f", short, rt.BufPtr(rt.PyBuffer(64), 0, 1, True),
                        5)
        assert short.a == [0] * 7

    @pytest.mark.parametrize("loop, tail", [
        # a second statement in the body
        (f"while (k < 8) {{ {STORE} m = m + 1; k = k + 1; }}", ""),
        # a bound that is not a literal
        (f"while (k < m) {{ {STORE} k = k + 1; }}", ""),
        # an index other than the counter
        (f"while (k < 7) {{ {STORE.replace('a[k]', 'a[k + 1]')}"
         " k = k + 1; }", ""),
        # the counter is read after the loop
        (f"while (k < 8) {{ {STORE} k = k + 1; }}", "s->n = k;"),
    ])
    def test_declines_to_a_plain_loop(self, loop, tail):
        module = run_span(span_case(loop, tail))
        assert "while k < " in _function(module.source, "f")
        assert "8i" not in module.source and "7i" not in module.source

    def test_past_the_end_of_the_array_is_not_a_span(self):
        # the loop faults at a[8]; a slice would quietly stop short
        source = span_case(f"while (k < 9) {{ {STORE} k = k + 1; }}")
        assert "while k < 9:" in compile_program(parse_program(source)).source


# -- early-return tests between the words of a load run -----------------------


def guarded_case(stmts):
    return PRELUDE + f"""
int f(struct S *s, int a, int b, int n)
{{
    int x; int y; unsigned p;
    x = 0; y = 0; p = 0;
    {stmts}
    s->x = x; s->y = y; s->p = p;
    return 1;
}}
"""


LOAD_WORD = "(long)ntohl((u_long)*(long *)s->cur); s->cur = s->cur + 4;"
#: four words, a test after each of the first three
HEADER = (f"x = {LOAD_WORD} if (x != a) return 0;"
          f" y = {LOAD_WORD} if ((y & 3) != 1) return 3;"
          f" p = {LOAD_WORD} if (p == (u_long)b) return 2;"
          f" s->a[5] = {LOAD_WORD}")


def wire_of(*words):
    return struct.pack(f">{len(words)}i", *words)


class TestGuardedRuns:
    def test_the_run_is_one_unpack_with_the_tests_in_order(self):
        _i, _c, module = run_both(guarded_case(HEADER), 7, 0, 0)
        body = _function(module.source, "f")
        batched, by_word = body.split("    else:\n")
        assert GUARDED_HEAD.search(batched)
        assert "offset + 16 <=" in batched
        assert batched.count("unpack_from") == 1
        lines = [line.strip() for line in batched.splitlines()]
        at = lines.index("x = _t2[0]")
        assert lines[at + 1:at + 5] == [
            "if x != a:", "s.cur = _t1.add(4)", "return 0", "y = _t2[1]"]
        assert lines[-1] == "s.cur = _t1.add(16)"
        # the other arm is the run as it lowers without the rule
        assert by_word.count("unpack_from") == 4
        assert not re.search(r"\b_t1\b", by_word)

    @pytest.mark.parametrize("words, a, b, outcome", [
        ((6, 1, 9, 4), 7, 0, 0),      # the first test fires
        ((7, 2, 9, 4), 7, 0, 3),      # the second
        ((7, 5, 9, 4), 7, 9, 2),      # the third
        ((7, 5, 9, 4), 7, 0, 1),      # none: the run completes
        ((7, 5, -1, 4), 7, -1, 2),    # unsigned compare of a wrapped word
    ])
    def test_a_guard_firing_at_each_position(self, words, a, b, outcome):
        interp, compiled, _module = run_both(
            guarded_case(HEADER), a, b, 0, wire=wire_of(*words, 0, 0))
        assert compiled == interp and compiled[0] == outcome
        fired = {0: 1, 3: 2, 2: 3, 1: 4}[outcome]
        assert compiled[1][S_FIELDS.index("cur")] == 4 * fired

    @pytest.mark.parametrize("words, a, outcome", [
        ((6, 1, 9), 7, 0),            # returns before the missing word
        ((7, 5, 9), 7, "fault"),      # reads it: both fault
        ((7,), 7, "fault"),
        ((), 7, "fault"),
    ])
    def test_a_short_buffer_goes_word_by_word(self, words, a, outcome):
        # one unpack of the four words would fault where word by word an
        # earlier test returns
        interp, compiled, _module = run_both(
            guarded_case(HEADER), a, 0, 0, wire=wire_of(*words))
        assert compiled == interp and compiled[0] == outcome

    @pytest.mark.parametrize("test", [
        # reads the cursor, which the batched form stores late
        "if (s->cur == s->cur) return 0;",
        "if (*(long *)s->cur == 5) return 0;",
        # reads memory
        "if (s->n != 0) return 0;",
        "if (s->a[0] != 0) return 0;",
        # has an effect
        "if (g(&y, x) == 3) return 0;",
        "if ((x = x + 1) == 3) return 0;",
        # does more than return a literal
        "if (x != a) return x;",
        "if (x != a) return (-1);",
        "if (x != a) { y = 1; return 0; }",
        "if (x != a) return 0; else y = 2;",
    ])
    def test_refused_guards_end_the_run(self, test):
        source = guarded_case(
            f"x = {LOAD_WORD} {test} y = {LOAD_WORD} p = {LOAD_WORD}")
        interp, compiled, module = run_both(source, 0, 0, 0)
        assert compiled == interp
        assert not GUARDED_HEAD.search(module.source)

    def test_a_test_after_the_last_word_is_outside_the_run(self):
        source = guarded_case(
            f"x = {LOAD_WORD} y = {LOAD_WORD} if (y != 1) return 0;")
        interp, compiled, module = run_both(source, 0, 0, 0)
        assert compiled == interp and compiled[0] == 1
        assert not GUARDED_HEAD.search(module.source)
        assert module.source.count("unpack_from") == 1

    def test_a_local_cursor_may_not_be_read_by_a_guard(self):
        source = PRELUDE + f"""
int f(struct S *s, int a, int b, int n)
{{
    caddr_t p; int x; int y;
    p = s->cur;
    x = (long)ntohl((u_long)*(long *)p); p = p + 4;
    if (p == s->cur) return 0;
    y = (long)ntohl((u_long)*(long *)p); p = p + 4;
    if (x == 0) return 5;
    y = (long)ntohl((u_long)*(long *)p); p = p + 4;
    s->cur = p; s->y = y;
    return 1;
}}
"""
        interp, compiled, module = run_both(source, 0, 0, 0)
        assert compiled == interp and compiled[0] == 5
        # only the second test joined a run: the first names the cursor
        assert module.source.count(".offset + 8 <=") == 1


# -- entry functions whose buffers have a known length -----------------------

#: an entry reading eight words into ``b`` through a cursor, then the
#: map loop ``a[i] = b[i] + 1`` written in ``LOOP``
KNOWN_LENGTH = """
int f(char *inbuf, struct S *s, int n)
{{
    char *p;
    int i;
    int k;
    int a[8];
    int b[8];
    {before}
    p = inbuf;
    k = 0;
    while (k < 8) {{
        b[k] = (long)ntohl((u_long)*(long *)p);
        p = p + 4;
        k = k + 1;
    }}
    {loop}
    s->x = a[0]; s->y = a[4]; s->i = i;
    return a[7];
}}
"""

KNOWN_WORDS = (10, 20, 30, 40, 50, 60, 70, 80)


def known_length_call(before, loop, n=0):
    """``f`` of :data:`KNOWN_LENGTH` compiled with its buffer's length
    fixed at 32 bytes, called on :data:`KNOWN_WORDS`: (its value, s.x,
    s.y, s.i), and the module."""
    module = compile_program(
        parse_program(PRELUDE + KNOWN_LENGTH.format(before=before,
                                                    loop=loop)),
        sizes={"inbuf": 32})
    s = module.new_struct("S")
    value = module.call("f", wire_of(*KNOWN_WORDS), s, n)
    return (value, s.x, s.y, s.i), module


class TestKnownLengthLoops:
    """A map loop is emitted with no test only from a literal its
    counter holds where the loop is entered — after a ``for``'s init,
    whatever the counter held before it."""

    @pytest.mark.parametrize("before, loop, mapped", [
        # the counter holds another literal before the loop's init
        ("i = 5;", "for (i = 0; i < 8; i++) a[i] = b[i] + 1;", True),
        ("i = 5;", "i = 0; while (i < 8) { a[i] = b[i] + 1; i = i + 1; }",
         True),
        # a loop-scoped counter shadowing a local that holds a literal
        ("i = 5;", "for (int i = 0; i < 8; i++) a[i] = b[i] + 1; i = 8;",
         True),
        # set in both arms of a branch to the same literal
        ("if (n) i = 0; else i = 0;",
         "while (i < 8) { a[i] = b[i] + 1; i = i + 1; }", True),
    ])
    def test_the_map_starts_where_the_counter_does(self, before, loop,
                                                   mapped):
        outcome, module = known_length_call(before, loop)
        assert outcome == (81, 11, 51, 8), module.source
        body = _function(module.source, "f")
        # ``b`` is the request's words, read once: read in place
        assert ("a = [_e1 + 1 for _e1 in _w_inbuf]" in body) == mapped
        if mapped:  # from a known start: no test of the trip count
            assert "if i < 8:" not in body

    def test_a_for_is_lowered_as_its_while_spelling(self):
        bodies = {_function(known_length_call("i = 5;", loop)[1].source, "f")
                  for loop in (
                      "for (i = 0; i < 8; i++) a[i] = b[i] + 1;",
                      "i = 0; while (i < 8) { a[i] = b[i] + 1; i = i + 1; }")}
        assert len(bodies) == 1, bodies

    def test_a_store_a_for_init_overwrites_is_dropped(self):
        # a for that keeps its continue is not rewritten as a while:
        # its init kills the counter, so the store ahead of it is dead
        loop = ("for (i = 0; i < 8; i++) { if (b[i] == 30) continue;"
                " a[i] = b[i] + 1; }")
        found, module = known_length_call("i = 5;", loop)
        assert "i = 5" not in _function(module.source, "f"), module.source
        program = parse_program(PRELUDE + KNOWN_LENGTH.format(
            before="i = 5;", loop=loop))
        interp = Interpreter(program)
        s = interp.make_struct("S")
        buf = interp.make_buffer(32)
        for offset, byte in enumerate(wire_of(*KNOWN_WORDS)):
            buf.store_int(offset, byte, 1, False)
        value = interp.call("f", [rv.BufPtr(buf, 0, 1), interp.ptr_to(s), 0])
        assert found == (value, *(s.field(name).value
                                  for name in ("x", "y", "i")))

    @pytest.mark.parametrize("before, n, outcome", [
        # nothing known of the counter: the map tests its trip count
        ("", 0, (81, 11, 51, 8)),
        ("", 3, (81, 0, 51, 8)),
        ("i = n;", 6, (81, 0, 0, 8)),
        # the arms disagree: unknown
        ("if (n) i = 3; else i = 0;", 1, (81, 0, 51, 8)),
        ("if (n) i = 3; else i = 0;", 0, (81, 11, 51, 8)),
    ])
    def test_an_unknown_start_keeps_the_test(self, before, n, outcome):
        loop = "while (i < 8) { a[i] = b[i] + 1; i = i + 1; }"
        if not before:
            before = "i = n;"  # a parameter's value: nothing is known
        found, module = known_length_call(before, loop, n)
        assert found == outcome, module.source
        assert "if i < 8:" in _function(module.source, "f")

    def test_a_loop_first_in_the_function(self):
        # nothing at all is known where the loop is entered
        module = compile_program(parse_program(PRELUDE + """
        int f(char *inbuf, struct S *s, int i)
        {
            char *p;
            int a[8];
            while (i < 8) { a[i] = s->a[i] + 1; i = i + 1; }
            p = inbuf;
            s->x = (long)ntohl((u_long)*(long *)p);
            return a[2];
        }"""), sizes={"inbuf": 4})
        s = module.new_struct("S")
        s.a[:] = list(range(8))
        assert module.call("f", wire_of(9), s, 0) == 3
        assert s.x == 9
        assert module.call("f", wire_of(9), s, 5) == 0

    def test_a_short_source_still_faults(self):
        # a map from a source shorter than the array it fills binds
        # nothing: the comprehension's short list faults as the element
        # reads past the source's end would
        module = compile_program(parse_program(PRELUDE + """
        int f(char *inbuf, struct S *s)
        {
            char *p;
            int i;
            int a[8];
            int c[4];
            p = inbuf;
            c[0] = (long)ntohl((u_long)*(long *)p);
            s->x = c[0];
            i = 0;
            while (i < 8) { a[i] = c[i] + 1; i = i + 1; }
            return a[7];
        }"""), sizes={"inbuf": 4})
        body = _function(module.source, "f")
        assert "[_e1 + 1 for _e1 in c[0:8]]" in body
        assert not re.search(r"^ *a = _t", body, re.M)
        with pytest.raises(InterpError, match="past the end"):
            module.call("f", wire_of(9), module.new_struct("S"))


# -- the pack as the range check of a map it alone reads -------------------

#: an entry reading eight words into ``b``, mapping ``a[i] = b[i] + 1``
#: and packing ``a`` into the reply; ``{tail}`` may read ``a`` too
PACKED_MAP = """
int f(char *inbuf, char *outbuf, struct S *s)
{{
    char *p; char *q; char *r; int i; int j; int k; int a[8]; int b[8];
    p = inbuf;
    k = 0;
    while (k < 8) {{
        b[k] = (long)ntohl((u_long)*(long *)p); p = p + 4; k = k + 1;
    }}
    i = 0;
    while (i < 8) {{ a[i] = b[i] + 1; i = i + 1; }}
    q = outbuf;
    r = outbuf;
    j = 0;
    while (j < 8) {{
        *(long *)q = (long)htonl((u_long)a[j]); q = q + 4; j = j + 1;
    }}
    {tail}
    return (int)(q - r);
}}
"""


def packed_map(tail, words):
    """``f`` of :data:`PACKED_MAP` on ``words`` compiled (both buffers
    of a known 32 bytes) and interpreted: asserts the two agree on the
    value, the reply and ``s.x``; returns the compiled ``f``."""
    program = parse_program(PRELUDE + PACKED_MAP.format(tail=tail))
    module = compile_program(program, sizes={"inbuf": 32, "outbuf": 32})
    s, out = module.new_struct("S"), bytearray(32)
    compiled = (module.call("f", wire_of(*words), out, s), bytes(out), s.x)
    interp = Interpreter(program)
    s_interp = interp.make_struct("S")
    inbuf, outbuf = interp.make_buffer(32), interp.make_buffer(32)
    for offset, byte in enumerate(wire_of(*words)):
        inbuf.store_int(offset, byte, 1, False)
    value = interp.call("f", [rv.BufPtr(inbuf, 0, 1), rv.BufPtr(outbuf, 0, 1),
                              interp.ptr_to(s_interp)])
    assert compiled == (value, outbuf.bytes(), s_interp.field("x").value), \
        module.source
    return _function(module.source, "f")


class TestPackChecksTheRange:
    """A map result that only a signed pack reads is range-checked by
    the pack: on ``struct.error`` it is wrapped and packed again (a
    wrap is the identity on a value in range).  Read anywhere else, it
    keeps its scan."""

    @pytest.mark.parametrize("words", [
        (0, 1, 2, 3, 4, 5, 6, 7),
        (INT_MAX, 0, INT_MIN, -1, INT_MAX, 5, INT_MAX - 1, 9),
    ])
    def test_a_result_only_packed_has_no_scan(self, words):
        body = packed_map("", words)
        assert "max(" not in body and "min(" not in body
        assert body.count("except _struct.error:") == 1
        assert body.count(".pack_into(") == 2

    @pytest.mark.parametrize("words", [
        (0, 1, 2, 3, 4, 5, 6, 7),
        (0, 1, 2, INT_MAX, 4, 5, 6, 7),
    ])
    def test_a_result_read_elsewhere_keeps_its_scan(self, words):
        body = packed_map("s->x = a[3];", words)
        assert "if max(a) > 0x7FFFFFFF:" in body
        assert "_struct.error" not in body


# -- guard form: a then-arm's locals spliced into the list around it ---------


class TestStraightenedArms:
    """``if (c) { T } else return R; rest`` becomes ``if (!c) return
    R; T rest``; a local of ``T`` that has the name of a parameter or
    a global stays in a block of its own, or ``rest`` would read it."""

    @pytest.mark.parametrize("source", [
        PRELUDE + """
        int f(struct S *s, int x)
        {
            if (s->n) { int x = 1; s->y = x; } else return 7;
            return x;
        }""",
        PRELUDE + """
        int x;
        int f(struct S *s, int v)
        {
            if (s->n) { int x = 1; s->y = x; } else return 7;
            return x + v;
        }""",
        PRELUDE + """
        int x;
        int f(struct S *s, int v)
        {
            x = v;
            if (s->n) { int x = 1; s->y = x; } else return 7;
            return x;
        }""",
    ])
    @pytest.mark.parametrize("n", [0, 3])
    def test_a_shadowing_local_keeps_its_scope(self, source, n):
        module = compile_program(parse_program(source))
        s = module.new_struct("S")
        s.n = n
        # the parameter ``x`` is 5; the global ``x`` is 0, ``v`` 5
        # (in the last, ``f`` stores ``v`` into the global first)
        assert module.call("f", s, 5) == (5 if n else 7)
        assert s.y == (1 if n else 0)


# -- what the lowering emits ----------------------------------------------


def compiled_source(source):
    return compile_program(parse_program(source)).source


class TestEmittedForms:
    def test_reads_are_not_rewrapped_and_literals_fold(self):
        # each store is read (by a sink called twice, so not inlined):
        # a store nothing reads is dropped
        text = compiled_source("""
        void gi(int x) { }
        void gu(unsigned x) { }
        void gc(char x) { }
        int f(int a, unsigned u) {
            int b; unsigned v; char c;
            b = a; v = u; gi(b); gu(v);
            b = -1; v = -1; gi(b); gu(v);
            c = 200; gc(c); c = (char)a; gc(c);
            b = (int)(long)(u_long)a;
            return b;
        }""")
        body = text.split("def mc_f")[1]
        assert "b = a\n" in body and "v = u\n" in body
        assert "b = -1\n" in body and "v = 4294967295\n" in body
        assert "c = -56\n" in body
        assert "c = ((a + 0x80) & 0xFF) - 0x80\n" in body
        assert body.count("0xFFFFFFFF") == 0  # the cast chain vanished
        assert "_rt.wrap" not in text

    def test_tests_are_python_booleans(self):
        text = compiled_source("""
        int f(int a, int b, int *p) {
            if (a < b && !(a == 3) || !p) { return 1; }
            while (!(a >= b)) { a = a + 2; }
            return a != b;
        }""")
        assert "if ((a < b) and (a != 3)) or (not (_rt.truthy(p))):" in text
        assert "while a < b:" in text
        assert "return (1 if a != b else 0)" in text
        assert "!= 0" not in text

    def test_assignment_statement_emits_no_reread(self):
        text = compiled_source("""
        struct P { int v; };
        int f(struct P *p, int *q, int a) {
            p->v = a; *q = a; q[1] = a;
            return 0;
        }""")
        body = text.split("def mc_f")[1].strip().splitlines()[1:]
        assert [line.strip() for line in body] == [
            "p.v = a", "q.set(a)", "_rt.ptr_add(q, 1).set(a)", "return 0",
        ]

    def test_locals_do_not_shadow_the_builtins_emitted_code_calls(self):
        # a map loop calls len/max/min (and zip for two sources)
        source = MAP_STRUCT + """
        int f(struct S *s, int start, int n) {
            struct S t; int len; int max; int min; int zip;
            t.a[0] = 2147483647; t.b[0] = (-2147483648);
            len = 8; max = 1; min = 2; zip = start;
            while (zip < n) { t.d[zip] = t.a[zip] + t.b[zip] * 3; zip++; }
            s->d[0] = t.d[0]; s->i = len + max + min + zip;
            return zip;
        }"""
        interp, compiled, module = run_both(source, 0, 4)
        assert compiled == interp
        assert "len__2 = 8" in module.source and " in zip(" in module.source

    def test_signedness_punned_pointer_keeps_objects_in_range(self):
        """Sun RPC's ``xdr_u_long`` reads and writes a ``u_long`` through
        a ``long *``; the object must keep an unsigned value."""
        source = PRELUDE + """
        int put(long *lp) { *lp = (-1); return 1; }
        int f(struct S *s, int a, int b, int n) {
            unsigned u; int v;
            u = 5; v = 5;
            put((long *)&u);
            put(&v);
            s->p = u; s->x = v;
            s->q = u / 2;
            return u == 4294967295;
        }"""
        interp, compiled, _module = run_both(source, 0, 0, 0)
        assert compiled == interp and compiled[0] == 1


# -- golden shapes of the real residual codecs ------------------------------

GOLDEN_N = 1000
GOLDEN_IDL = """
const MAXN = 2000;
struct intarr { int vals<MAXN>; };
program XCHG_PROG {
    version XCHG_VERS { intarr SENDRECV(intarr) = 1; } = 1;
} = 0x20000321;
"""
GOLDEN_IMPL = """
void sendrecv_impl(struct intarr *args, struct intarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i] + 1;
}
"""


@pytest.fixture(scope="module")
def golden_pipeline():
    from repro.specialized import SpecializationPipeline

    # verify=False: the subject here is the emitted text
    return SpecializationPipeline(GOLDEN_IDL, impl_sources=[GOLDEN_IMPL],
                                  verify=False)


def _function(source, name):
    start = source.index(f"def mc_{name}(")
    end = source.find("\ndef ", start + 1)
    return source[start:end if end != -1 else None]


def _enclosing(raw, index):
    """The ``if`` / ``else`` headers of the branch that line ``index``
    of ``raw`` sits in, stripped."""
    def indent(line):
        return len(line) - len(line.lstrip())

    other = next(j for j in range(index - 1, -1, -1)
                 if indent(raw[j]) < indent(raw[index]))
    test = next(j for j in range(other - 1, -1, -1)
                if indent(raw[j]) == indent(raw[other])
                and raw[j].lstrip().startswith("if "))
    return [raw[test].strip(), raw[other].strip()]


def _entry(source):
    return source[source.index("def entry("):]


def test_golden_server_handler_loop(golden_pipeline):
    lens = {"vals": GOLDEN_N}
    server = golden_pipeline.specialize_server(
        "SENDRECV", arg_lens=lens, res_lens=lens)
    source = server._module.source
    assert "_rt.wrap_i32(" not in source
    hot = _entry(source)
    lines = [line.strip() for line in hot.splitlines()]
    # the request read whole, in one unpack: its header words compared
    # at once, any other length declined, the 1000 ints one slice
    words = 10 + 1 + GOLDEN_N
    assert "_w_inbuf = _S1.unpack_from(data)" in lines
    assert f"_S1 = _struct.Struct('>{words}i')" in source
    test = next(index for index, line in enumerate(lines) if line.startswith(
        "if _w_inbuf[1:6] != (0, 2, 536871713, 1, 1) or "))
    assert lines[test + 1] == "return None"
    head = lines.index("t_arr = [_e1 + 1 for _e1 in _w_inbuf[11:]]")
    reply = (f"return _S2.pack(_w_inbuf[0], 1, 0, 0, 0, 0, {GOLDEN_N},"
             " *t_arr)")
    assert lines[head + 1:head + 6] == [
        # the reply in one pack, straight from the request's xid word;
        # the pack is the range check of ``src[i] + 1``: on
        # ``struct.error`` the values wrap and pack again
        "try:", reply, "except _struct.error:",
        "t_arr = [((_e + 0x80000000) & 0xFFFFFFFF) - 0x80000000"
        " for _e in t_arr]", reply,
    ]
    # straight-line: no loop, no per-word fallback, no length test on
    # the buffers, no generic element loop for another length, no scan
    assert not [line for line in lines if line.startswith(("while ",
                                                             "for "))]
    for absent in ("<= len(", "ElemPtr", "cast_ptr", "x_handy", "[0] *",
                   "max(", "bytearray("):
        assert absent not in hot
    assert hot.count("unpack_from") == 1


def test_golden_client_marshal_is_one_sliced_pack(golden_pipeline):
    lens = {"vals": GOLDEN_N}
    client = golden_pipeline.specialize_client(
        "SENDRECV", arg_lens=lens, res_lens=lens)
    source = client._marshal_module.source
    assert "pack_into" not in source and source.count(".pack(") == 1
    assert f"_struct.Struct('>11I{GOLDEN_N}i')" in source
    assert f", {GOLDEN_N}, *argsp__vals)" in source
    assert "argsp__vals[1]" not in source
    recv = client._recv_module.source
    assert recv.count("unpack_from") == 1
    assert "_r1.vals = list(_w_inbuf[7:])" in recv
