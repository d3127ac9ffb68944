"""The type-directed lowering of ``compile_py`` against the interpreter.

Every function here is compiled as a fused entry by the harness of
:mod:`tests.minic.entries` (its struct the answer, read at every
return) and interpreted on the same values.  Three layers:

* a seeded generator of small MiniC functions in the residual subset —
  integer arithmetic over ``int``/``unsigned``/``char`` objects at the
  edges of their ranges, nested conditions, loops of every shape the
  backend treats specially, and a run of cursor loads from a message
  with early-return tests between its words — whose entry must answer
  what the interpreter leaves behind at every return;
* hand-written cases for the counted-loop matcher: every refusal it
  must make, and the edges of the loops it accepts — and a Hypothesis
  property for the map loops it lowers to one comprehension;
* golden assertions on the real n=1000 residual codecs: the shapes the
  performance ledger's counts depend on.
"""

import random
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompileError
from tests.minic.entries import (body, compile_entry, interpret,
                                 relowered, run_both)

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


#: the fields of ``struct S`` an answer holds (all but the pointer
#: ``cur``: a function that uses it is outside the subset)
S_FIELDS = ("n", "a", "u", "c", "x", "y", "p", "q", "ch", "i", "j", "k",
            "old", "cnt")

#: the message ``w`` the generated functions read: sixteen words, small
#: ones first so that the generated tests on them fire now and then
WIRE_WORDS = (0, 1, 2, 7, 1, 0, 3, 2) + EDGES[4:]
WIRE = struct.pack(">16i", *WIRE_WORDS)


class Gen:
    """One random function ``int f(struct S *s, int a, int b, int n,
    char *w)``.

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

    def expr(self, depth, index=None):
        r = self.r
        if depth <= 0 or r.random() < 0.2:
            return self.leaf(index)

        def sub():
            return self.expr(depth - 1, index)

        pick = r.randrange(11)
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
        cast = r.choice(("int", "long", "u_long", "unsigned", "char"))
        return f"({cast})({sub()})"

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

    def assign(self, index=None):
        r = self.r
        target = self.target(index)
        pick = r.randrange(6)
        if pick == 0:
            self.emit(f"{target}{r.choice(('++', '--'))};")
        elif pick == 1:
            op = r.choice(("+", "-", "*", "&", "|", "^"))
            self.emit(f"{target} {op}= {self.expr(2, index)};")
        elif pick == 2:
            # a bare copy across types: where a wrongly elided wrap shows
            unsigned = target[0] in "pq" or target.startswith("t.u")
            pool = (("x", "y", "a", "b", "ch", "t.c[1]", "t.a[3]", "t.a[5]")
                    if unsigned else ("p", "q", "t.u[0]", "t.u[2]"))
            self.emit(f"{target} = {r.choice(pool)};")
        else:
            self.emit(f"{target} = {self.expr(3, index)};")

    def block(self, budget, index=None):
        for _ in range(self.r.randrange(1, budget + 1)):
            self.stmt(budget - 1, index)

    def stmt(self, budget, index=None):
        r = self.r
        pick = r.randrange(10)
        if budget <= 0 or pick < 4:
            self.assign(index)
        elif pick < 6:
            self.emit(f"if ({self.expr(2, index)}) {{")
            self.depth += 1
            self.block(budget, index)
            self.depth -= 1
            if r.random() < 0.5:
                self.emit("} else {")
                self.depth += 1
                self.block(budget, index)
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
        shape = r.choice(("counted", "tempo", "for", "compound-test"))
        if shape == "for":
            self.emit(f"for ({i} = {start}; {i} < {self.bound()}; {i}++) {{")
        else:
            test = f"{i} < {self.bound()}"
            if shape == "compound-test":
                test = f"{test} && {self.expr(1, i)}"
            self.emit(f"{i} = {start};")
            self.emit(f"while ({test}) {{")
        self.depth += 1
        self.block(budget, i)
        if shape == "tempo":
            self.emit(f"old = {i};")
            self.emit(f"{i} = old + 1;")
        elif shape in ("counted", "compound-test"):
            self.emit(f"{i} = {i} + 1;")
        self.depth -= 1
        self.emit("}")
        self.active.pop()

    def guarded_run(self):
        """Lines of a run of loads through the cursor ``c`` over ``w``,
        most followed by an early-return test on the word just loaded —
        the shape of a residual header check — from an offset known
        (a run of the words read whole) or not (a run batched only if
        every word is there).  Its own generator: the bodies above are
        what they were before the shape was added."""
        r = random.Random(self.r.random())
        lines = ["    c = w;"]
        if r.random() < 0.5:
            lines.append("    if (n > 4) c = c + 8;")
        for _ in range(r.randrange(2, 6)):
            target = r.choice(("x", "y", "p", "q", "ch",
                               f"s->a[{r.randrange(8)}]"))
            lines.append(f"    {target} ="
                         " (long)ntohl((u_long)*(long *)c);")
            lines.append("    c = c + 4;")
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
        lines = "\n".join(self.lines)
        copy_out = "\n".join(
            [f"    s->a[{k}] = t.a[{k}];" for k in range(8)]
            + [f"    s->u[{k}] = t.u[{k}]; s->c[{k}] = t.c[{k}];"
               for k in range(4)]
            + [f"    s->{name} = {name};" for name in
               ("x", "y", "p", "q", "ch", "i", "j", "k", "old", "cnt")]
        )
        return PRELUDE + f"""
int f(struct S *s, int a, int b, int n, char *w)
{{
    struct S t;
    int x; int y; unsigned p; unsigned q; char ch;
    int i; int j; int k; int old; int cnt;
    int r;
    char *c;
    x = a; y = b; p = (unsigned)a; q = 3000000000; ch = (char)b;
    i = 0; j = 0; k = 0; old = 0; cnt = 0;
    t.n = n;
    t.a[0] = a; t.a[1] = b; t.a[2] = {INT_MAX}; t.a[3] = (-{-INT_MIN});
    t.a[4] = 0; t.a[5] = (-1); t.a[6] = 5; t.a[7] = a;
    t.u[0] = 4294967295; t.u[1] = 0; t.u[2] = (unsigned)b; t.u[3] = 7;
    t.c[0] = 127; t.c[1] = (-128); t.c[2] = (char)a; t.c[3] = 0;
{lines}
    s->n = t.n;
{copy_out}
{self.guarded_run()}
    s->x = x; s->y = y; s->p = p; s->q = q; s->ch = ch;
    r = x + y;
    return r;
}}
"""


def corpus_disagreements(rewrite=None):
    """Seeds of the generated corpus on which the entry (its Python put
    through ``rewrite``) and the interpreter differ."""
    bad = []
    for seed in range(120):
        source = Gen(seed).source()
        module = compile_entry(source, 0, 0, 0, WIRE)
        if rewrite is not None:
            module = relowered(module, rewrite)
        rng = random.Random(seed * 7919)
        for _ in range(4):
            args = (rng.choice(EDGES), rng.choice(EDGES), rng.randrange(9),
                    WIRE)
            if module.entry(*args) != interpret(source, *args):
                bad.append(seed)
                break
    return bad


@pytest.mark.parametrize("seed", range(120))
def test_generated_function_matches_interpreter(seed):
    source = Gen(seed).source()
    module = compile_entry(source, 0, 0, 0, WIRE)
    rng = random.Random(seed * 7919)
    for _ in range(4):
        args = (rng.choice(EDGES), rng.choice(EDGES), rng.randrange(9), WIRE)
        assert module.entry(*args) == interpret(source, *args), (
            f"seed={seed} args={args[:3]}\n{source}\n{module.source}")


def test_generator_reaches_every_lowering():
    """The corpus is only a test of the lowering if it exercises it."""
    sources = [compile_entry(Gen(seed).source(), 0, 0, 0, WIRE).source
               for seed in range(120)]
    text = "\n".join(sources)
    assert sum("for i in range(" in s for s in sources) >= 20
    assert "+ 0x80000000) & 0xFFFFFFFF) - 0x80000000" in text
    assert "+ 0x80) & 0xFF) - 0x80" in text
    assert " and " in text and " or " in text and "not " in text
    assert sum(GUARDED_HEAD.search(s) is not None for s in sources) >= 20
    assert sum("_w_w = " in s for s in sources) >= 20


#: the head of a guarded run: batch only if every word is there
GUARDED_HEAD = re.compile(r"if c \+ \d+ <= len\(w\):")


def hoist_guard(source):
    """Mutant: a guard is evaluated before the assignment of the word
    it tests."""
    return re.sub(
        r"(\n +[a-z]+ = [^\n]*_t\d+\[\d+\][^\n]*)"
        r"(\n +if [^\n]+:\n +return [^\n]+)",
        r"\2\1", source)


def skip_word_test(source):
    """Mutant: a test of the words read whole compares the next word."""
    return re.sub(r"(\n +if [^\n]*_w_w\[)(\d+)\]",
                  lambda m: f"{m.group(1)}{int(m.group(2)) + 1}]", source)


@pytest.mark.parametrize("mutant", [skip_word_test, hoist_guard],
                         ids=lambda fn: fn.__name__)
def test_the_corpus_catches_a_wrong_guarded_run(mutant):
    assert corpus_disagreements(mutant)


# -- the counted-loop matcher ------------------------------------------------


def loop_case(body, setup="", decls=""):
    return PRELUDE + f"""
int f(struct S *s, int a, int b, int n)
{{
    struct S t;
    int i; int old; int m; {decls}
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


def assert_refused(source, construct, args=((0, 0, 0), (1, 2, 4), (5, 5, 8))):
    """``source`` is outside the residual subset, by ``construct``; the
    interpreter, which the generic stack is, still runs it."""
    with pytest.raises(CompileError, match=construct):
        compile_entry(source)
    for call_args in args:
        interpret(source, *call_args)


class TestCountedLoopAccepts:
    def test_tempo_shape_restores_i_and_old(self):
        module = assert_agree(loop_case(
            "while (i < t.n) { t.a[i & 3] = i + a; old = i; i = old + 1; }"
        ), counted=True)
        assert "while" not in body(module.source)

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
        assert compiled == interp
        assert compiled[S_FIELDS.index("i")] == 9  # a >= BOUND
        assert compiled[S_FIELDS.index("old")] == -7  # untouched

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
        assert compiled[S_FIELDS.index("a")][:3] == [
            INT_MAX, INT_MIN, INT_MIN + 1]


#: what puts a row of :class:`TestCountedLoopRefuses` outside the
#: residual subset
_OUTSIDE = {"ip = &m": "address-of|pointer", "break": "a break",
            "continue": "a continue", "g(&": "call to g|pointer|address-of",
            "t = *s": "struct object|pointer"}

#: rows whose pointer the subset does not have: the result struct is
#: scalar-replaced, so ``s->n`` and ``s->a[0]`` are locals and the
#: matcher rightly counts the loop
_LOCAL_IN_THE_SUBSET = ("while (i < s->n)", "{ s->a[0] = i;")


class TestCountedLoopRefuses:
    """Each of these must keep the general ``while`` form — and still
    agree with the interpreter — or be outside the residual subset."""

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
        source = loop_case(body, setup=setup,
                           decls="int *ip;" if "ip" in body else "")
        outside = [what for marker, what in _OUTSIDE.items()
                   if marker in body]
        if outside:
            assert_refused(source, outside[0])
        else:
            assert_agree(source, counted=any(
                marker in body for marker in _LOCAL_IN_THE_SUBSET))

    def test_address_taken_counter(self):
        assert_refused(loop_case(
            "ip = &i; while (i < n) { t.a[0] = i; i = i + 1; }",
            decls="int *ip;"), "address-of|pointer")

    def test_global_counter(self):
        source = "int i;\n" + loop_case(
            "while (i < n) { t.a[0] = i; i = i + 1; }"
        ).replace("int i; int old;", "int old;")
        assert_refused(source, "the global i")


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
        text = body(module.source)
        assert " for _e1" in text and " in range(" not in text
        if start >= n:  # zero trips: i and old untouched
            assert compiled[S_MAP_FIELDS.index("i")] == start
            assert compiled[S_MAP_FIELDS.index("old")] == -7

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
        text = body(compile_entry(
            map_case(value, [0] * 8, [0] * 8, [0] * 8)).source)
        checks = [line.strip() for line in text.splitlines()
                  if "max(" in line or "min(" in line]
        assert checks == ([f"if {' or '.join(tests)}:"] if tests else [])
        assert ("0xFFFFFFFF" in text) == bool(tests)

    @pytest.mark.parametrize("store, value", [
        # dst is src: kept as a loop
        ("t.a[i]", "t.a[i] + 1"),
        # reads the counter itself, or another element, or a variable
        ("t.d[i]", "t.a[i] + i"),
        ("t.d[i]", "t.a[0] + 1"),
        ("t.d[i]", "t.a[i] + n"),
        # an operator that can fault: outside the subset
        ("t.d[i]", "t.a[i] / 3"),
        # reads nothing indexed by the counter
        ("t.d[i]", "5"),
    ])
    def test_other_bodies_keep_the_for_form(self, store, value):
        a = MAP_EDGES * 2
        source = map_case(value, a, a, a, store=store)
        if "/" in value:
            with pytest.raises(CompileError, match="division"):
                compile_entry(source)
            return
        interp, compiled, module = run_both(source, 1, 7)
        assert compiled == interp
        text = body(module.source)
        assert "for i in range(i, n):" in text and " for _e" not in text

    @pytest.mark.parametrize("short", ["self.a", "self.d"])
    def test_a_short_array_faults_as_its_elements_would(self, short):
        # a list one element short of its C array: the element loop
        # faults reading or storing the last element, and the entry
        # declines; a bare slice store would grow (or shrink) the list
        # and carry on
        module = compile_entry(MAP_STRUCT + """
        int f(struct S *s, int n) {
            struct S t; int i;
            i = 0;
            while (i < n) { t.d[i] = t.a[i] + 1; i = i + 1; }
            s->d[0] = t.d[0];
            return i;
        }""")
        assert module.entry(8) is not None
        # ``t`` is scalar-replaced: its fields are the locals ``t__a``...
        local = short.replace("self.", "t__")
        assert f"{local} = [0] * 8" in module.source
        bad = relowered(module, lambda source: source.replace(
            f"{local} = [0] * 8", f"{local} = [0] * 7"))
        assert bad.entry(8) is None


S_MAP_FIELDS = ("a", "b", "d", "i", "old")


# -- a rolled element loop joins the cursor run ------------------------------


def span_case(loop, tail=""):
    fill = " ".join(f"s->a[{k}] = {f'(-{-v})' if v < 0 else v};"
                    for k, v in enumerate(EDGES[:8]))
    return PRELUDE + f"""
int f(struct S *s, caddr_t buf, int n)
{{
    caddr_t p; caddr_t q; int k; int m;
    {fill}
    m = 8;
    p = buf;
    q = buf;
    *(long *)p = 7;
    p = p + 4;
    *(long *)p = (long)htonl((u_long)n);
    p = p + 4;
    k = 0;
    {loop}
    {tail}
    return (int)(p - q);
}}
"""


STORE = "*(long *)p = (long)htonl((u_long)s->a[k]); p = p + 4;"
LOAD = "s->a[k] = (long)ntohl((u_long)*(long *)p); p = p + 4;"


def run_span(source):
    """``f(&s, buf, 5)`` both ways — ``buf`` a 64-byte reply the function
    writes, or the message it reads when it only reads — asserting the
    two agree on ``s`` (its ``a`` set first to ``EDGES[:8]``) and the
    reply; returns the module."""
    reads = "*(long *)p = " not in source
    args, fresh = ((bytes(range(1, 65)),), None) if reads else ((),
                                                                {"buf": 64})
    interp, compiled, module = run_both(source, *args, 5, fresh=fresh)
    assert compiled == interp and compiled is not None, module.source
    return module


class TestLoopAsSpan:
    def test_store_loop_joins_the_header_words_in_one_pack(self):
        module = run_span(span_case(f"while (k < 8) {{ {STORE} k = k + 1; }}"))
        text = body(module.source)
        # the literal packs unsigned, ``n`` (an ``int``) signed as the
        # array does: the same bytes as ``(u_long)n``
        assert "_struct.Struct('>1I9i')" in module.source
        assert text.count("pack_into") == 1 and "*s__a)" in text
        assert "while" not in text and "for " not in text
        assert "k = " not in text  # the dead counter is gone, init and all

    def test_load_loop_is_one_unpack_into_a_slice(self):
        module = run_span(span_case(f"while (k < 8) {{ {LOAD} k = k + 1; }}")
                          .replace("*(long *)p = 7;", "m = *(long *)p;")
                          .replace("*(long *)p = (long)htonl((u_long)n);",
                                   "m = *(long *)p;"))
        text = body(module.source)
        assert text.count("unpack_from") == 1 and "s__a = " in text
        assert "while" not in text and "for " not in text

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
        assert "while k < " in body(module.source)
        assert "8i" not in module.source and "7i" not in module.source

    def test_past_the_end_of_the_array_is_not_a_span(self):
        # the loop faults at a[8]; a slice would quietly stop short
        source = span_case(f"while (k < 9) {{ {STORE} k = k + 1; }}")
        assert "while k < 9:" in compile_entry(
            source, 5, fresh={"buf": 64}).source


# -- early-return tests between the words of a load run -----------------------


def guarded_case(stmts):
    """``f`` reading the message ``w`` through the cursor ``c``, which
    starts at an offset the lowering cannot know (``n`` is 0 in every
    call below): its runs test that every word is there."""
    return PRELUDE + f"""
int f(struct S *s, int a, int b, int n, char *w)
{{
    int x; int y; unsigned p; char *c; char *d;
    x = 0; y = 0; p = 0;
    c = w; d = w;
    if (n) c = c + 4;
    {stmts}
    s->x = x; s->y = y; s->p = p;
    return 1;
}}
"""


LOAD_WORD = "(long)ntohl((u_long)*(long *)c); c = c + 4;"
#: four words, a test after each of the first three
HEADER = (f"x = {LOAD_WORD} if (x != a) return 0;"
          f" y = {LOAD_WORD} if ((y & 3) != 1) return 3;"
          f" p = {LOAD_WORD} if (p == (u_long)b) return 2;"
          f" s->a[5] = {LOAD_WORD}")


def wire_of(*words):
    return struct.pack(f">{len(words)}i", *words)


def returned(source, *args, literals=range(4)):
    """The one of ``literals`` the entry's function returns (answered
    for it, as the interpreter's return is), or None."""
    found = set()
    for literal in literals:
        interp, compiled, _module = run_both(source, *args,
                                             accepts=("==", literal))
        assert compiled == interp
        if compiled is not None:
            found.add(literal)
    assert len(found) <= 1
    return found.pop() if found else None


class TestGuardedRuns:
    def test_the_run_is_one_unpack_with_the_tests_in_order(self):
        _i, _c, module = run_both(guarded_case(HEADER), 7, 0, 0,
                                  wire_of(7, 5, 9, 4))
        text = body(module.source)
        batched, by_word = text.split("        else:\n")
        assert GUARDED_HEAD.search(batched)
        assert "c + 16 <=" in batched
        assert batched.count("unpack_from") == 1
        lines = [line.strip() for line in batched.splitlines()]
        at = lines.index("x = _t1[0]")
        assert lines[at + 1] == "if x != a:"
        assert lines[at + 2].startswith("return (")
        assert lines[at + 3] == "y = _t1[1]"
        assert lines[-1] == "s__a[5:6] = _t1[3:4]"
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
        source = guarded_case(HEADER)
        wire = wire_of(*words, 0, 0)
        assert returned(source, a, b, 0, wire) == outcome
        interp, compiled, _module = run_both(source, a, b, 0, wire)
        assert compiled == interp

    @pytest.mark.parametrize("words, a, outcome", [
        ((6, 1, 9), 7, 0),            # returns before the missing word
        ((7, 5, 9), 7, "fault"),      # reads it: both fault
        ((7,), 7, "fault"),
        ((), 7, "fault"),
    ])
    def test_a_short_buffer_goes_word_by_word(self, words, a, outcome):
        # one unpack of the four words would fault where word by word an
        # earlier test returns
        source = guarded_case(HEADER)
        assert returned(source, a, 0, 0, wire_of(*words)) == (
            None if outcome == "fault" else outcome)

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
        if "s->cur" in test or "g(&" in test:
            # a pointer field, a call: outside the residual subset
            with pytest.raises(CompileError, match="pointer|call"):
                compile_entry(source, 0, 0, 0, WIRE)
            interpret(source, 0, 0, 0, WIRE)
            return
        interp, compiled, module = run_both(source, 0, 0, 0, WIRE)
        assert compiled == interp
        # ``s->n`` is a local in the subset (the result struct is
        # scalar-replaced): a test of it joins the run
        assert bool(GUARDED_HEAD.search(module.source)) == ("s->n" in test)

    def test_a_test_after_the_last_word_is_outside_the_run(self):
        source = guarded_case(
            f"x = {LOAD_WORD} y = {LOAD_WORD} if (y != 1) return 0;")
        assert returned(source, 0, 0, 0, WIRE) == 1
        module = compile_entry(source, 0, 0, 0, WIRE)
        assert not GUARDED_HEAD.search(module.source)
        assert module.source.count("unpack_from") == 1

    def test_a_local_cursor_may_not_be_read_by_a_guard(self):
        source = guarded_case(
            f"x = {LOAD_WORD} if (c - d == 0) return 0;"
            f" y = {LOAD_WORD} if (x == 0) return 5;"
            f" y = {LOAD_WORD}")
        assert returned(source, 0, 0, 0, WIRE, literals=(0, 1, 5)) == 5
        # only the second test joined a run: the first names the cursor
        assert compile_entry(source, 0, 0, 0, WIRE).source.count(
            "c + 8 <=") == 1


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
    fixed at 32 bytes, called on :data:`KNOWN_WORDS`: (its value — 81
    or None —, s.x, s.y, s.i), and the module."""
    source = PRELUDE + KNOWN_LENGTH.format(before=before, loop=loop)
    interp, compiled, module = run_both(source, wire_of(*KNOWN_WORDS), n,
                                        accepts=("==", 81))
    assert compiled == interp, module.source
    if compiled is None:
        return None, module
    return (81, *(compiled[S_FIELDS.index(name)]
                  for name in ("x", "y", "i"))), module


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
        text = body(module.source)
        # ``b`` is the request's words, read once: read in place
        assert ("a = [_e1 + 1 for _e1 in _w_inbuf]" in text) == mapped
        if mapped:  # from a known start: no test of the trip count
            assert "if i < 8:" not in text

    def test_a_for_is_lowered_as_its_while_spelling(self):
        bodies = {body(known_length_call("i = 5;", loop)[1].source)
                  for loop in (
                      "for (i = 0; i < 8; i++) a[i] = b[i] + 1;",
                      "i = 0; while (i < 8) { a[i] = b[i] + 1; i = i + 1; }")}
        assert len(bodies) == 1, bodies

    def test_a_store_a_for_init_overwrites_is_dropped(self):
        # a for that keeps its continue is not rewritten as a while: it
        # is outside the residual subset, which the interpreter serves
        loop = ("for (i = 0; i < 8; i++) { if (b[i] == 30) continue;"
                " a[i] = b[i] + 1; }")
        source = PRELUDE + KNOWN_LENGTH.format(before="i = 5;", loop=loop)
        with pytest.raises(CompileError, match="a for"):
            compile_entry(source, wire_of(*KNOWN_WORDS), 0)
        outcome = interpret(source, wire_of(*KNOWN_WORDS), 0,
                            accepts=("==", 81))
        assert [outcome[S_FIELDS.index(name)] for name in ("x", "y", "i")
                ] == [11, 51, 8]

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
        assert "if i < 8:" in body(module.source)

    def test_a_loop_first_in_the_function(self):
        # nothing at all is known where the loop is entered
        source = PRELUDE + """
        int f(char *inbuf, struct S *s, int i)
        {
            char *p;
            int a[8];
            while (i < 8) { a[i] = i + 1; i = i + 1; }
            p = inbuf;
            s->x = (long)ntohl((u_long)*(long *)p);
            return a[2];
        }"""
        answer = run_both(source, wire_of(9), 0, accepts=("==", 3))
        assert answer[0] == answer[1] and answer[1] is not None
        assert answer[1][S_FIELDS.index("x")] == 9
        answer = run_both(source, wire_of(9), 5, accepts=("==", 0))
        assert answer[0] == answer[1] and answer[1] is not None

    def test_a_short_source_still_faults(self):
        # a map from a source shorter than the array it fills binds
        # nothing: the comprehension's short list faults as the element
        # reads past the source's end would, and the entry declines
        source = PRELUDE + """
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
        }"""
        interp, compiled, module = run_both(source, wire_of(9))
        text = body(module.source)
        assert "[_e1 + 1 for _e1 in c[0:8]]" in text
        assert not re.search(r"^ *a = _t", text, re.M)
        assert compiled is None and interp is None


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
    """``f`` of :data:`PACKED_MAP` on ``words`` (both buffers of a known
    32 bytes) as an entry and interpreted: asserts the two agree on the
    value, the reply and ``s.x``; returns the entry's text."""
    interp, compiled, module = run_both(
        PRELUDE + PACKED_MAP.format(tail=tail), wire_of(*words),
        accepts=("==", 32), fresh={"outbuf": 32})
    assert compiled == interp and compiled is not None, module.source
    return body(module.source)


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
        text = packed_map("", words)
        assert "max(" not in text and "min(" not in text
        assert text.count("except _struct.error:") == 1
        assert text.count(".pack(") == 2

    @pytest.mark.parametrize("words", [
        (0, 1, 2, 3, 4, 5, 6, 7),
        (0, 1, 2, INT_MAX, 4, 5, 6, 7),
    ])
    def test_a_result_read_elsewhere_keeps_its_scan(self, words):
        text = packed_map("s->x = a[3];", words)
        assert "if max(a) > 0x7FFFFFFF:" in text
        assert "_struct.error" not in text


# -- guard form: a then-arm's locals spliced into the list around it ---------


class TestStraightenedArms:
    """``if (c) { T } else return R; rest`` becomes ``if (!c) return
    R; T rest``; a local of ``T`` that has the name of a parameter or
    a global stays in a block of its own, or ``rest`` would read it.
    A function that names a global is outside the residual subset:
    those rows run on the interpreter alone."""

    @pytest.mark.parametrize("source", [
        PRELUDE + """
        int f(struct S *s, int x, int n)
        {
            s->n = n;
            if (s->n) { int x = 1; s->y = x; } else return 7;
            return x;
        }""",
        PRELUDE + """
        int x;
        int f(struct S *s, int v, int n)
        {
            s->n = n;
            if (s->n) { int x = 1; s->y = x; } else return 7;
            return x + v;
        }""",
        PRELUDE + """
        int x;
        int f(struct S *s, int v, int n)
        {
            s->n = n;
            x = v;
            if (s->n) { int x = 1; s->y = x; } else return 7;
            return x;
        }""",
    ])
    @pytest.mark.parametrize("n", [0, 3])
    def test_a_shadowing_local_keeps_its_scope(self, source, n):
        # the parameter ``x`` is 5; the global ``x`` is 0, ``v`` 5
        # (in the last, ``f`` stores ``v`` into the global first)
        accepts = ("==", 5 if n else 7)
        if "int x;\n" in source:
            with pytest.raises(CompileError, match="the global x"):
                compile_entry(source)
            outcome = interpret(source, 5, n, accepts=accepts)
        else:
            outcome, compiled, _module = run_both(source, 5, n,
                                                  accepts=accepts)
            assert compiled == outcome
        assert outcome is not None
        assert outcome[S_FIELDS.index("y")] == (1 if n else 0)


# -- what the lowering emits ----------------------------------------------


def compiled_source(source, *args, **kwargs):
    return compile_entry(source, *args, **kwargs).source


class TestEmittedForms:
    def test_reads_are_not_rewrapped_and_literals_fold(self):
        # each store is read (by the answer): a store nothing reads is
        # dropped
        text = compiled_source("""
        struct R { int b1; unsigned v1; char c1; int b2; unsigned v2;
                   char c2; };
        int f(struct R *r, int a, unsigned u) {
            int b; unsigned v; char c;
            b = a; v = u; r->b1 = b; r->v1 = v;
            b = -1; v = -1; r->b2 = b; r->v2 = v;
            c = 200; r->c1 = c; c = (char)a; r->c2 = c;
            b = (int)(long)(u_long)a;
            return b;
        }""")
        text = body(text)
        assert "b = a\n" in text and "v = u\n" in text
        assert "b = -1\n" in text and "v = 4294967295\n" in text
        assert "c = -56\n" in text
        assert "c = ((a + 0x80) & 0xFF) - 0x80\n" in text
        assert text.count("0xFFFFFFFF") == 0  # the cast chain vanished

    def test_tests_are_python_booleans(self):
        text = compiled_source("""
        struct R { int v; };
        int f(struct R *r, int a, int b, int p) {
            int x;
            if (a < b && !(a == 3) || !p) { return 1; }
            x = a;
            while (!(x >= b)) { x = x + 2; }
            r->v = x != b;
            return 0;
        }""")
        assert "if ((a < b) and (a != 3)) or (not p):" in text
        assert "while x < b:" in text
        assert "r__v = (1 if x != b else 0)" in text
        assert "!= 0" not in text

    def test_assignment_statement_emits_no_reread(self):
        text = compiled_source("""
        struct P { int v; int w[2]; };
        int f(struct P *p, char *q, int a) {
            char *c;
            c = q;
            p->v = a; p->w[1] = a; *(long *)c = a;
            return 0;
        }""", fresh={"q": 4})
        lines = body(text).strip().splitlines()
        assert [line.strip() for line in lines[4:7]] == [
            "p__v = a", "p__w[1] = a", "_S1.pack_into(q, 0, a)"]

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
        a ``long *``; the object must keep an unsigned value.  ``put``
        has two call sites, so it stays a call: outside the residual
        subset, the interpreter is the one that runs it."""
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
        with pytest.raises(CompileError, match="division|call to put"):
            compile_entry(source)
        outcome = interpret(source, 0, 0, 0, accepts=("==", 1))
        assert outcome is not None
        assert outcome[S_FIELDS.index("p")] == 4294967295


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


def test_golden_server_handler_loop(golden_pipeline):
    lens = {"vals": GOLDEN_N}
    server = golden_pipeline.specialize_server(
        "SENDRECV", arg_lens=lens, res_lens=lens)
    source = server._module.source
    hot = body(source)
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
