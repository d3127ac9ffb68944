"""The type-directed lowering of ``compile_py`` against the interpreter.

Three layers:

* a seeded generator of small MiniC functions — integer arithmetic over
  ``int``/``unsigned``/``char`` objects at the edges of their ranges,
  nested conditions, loops of every shape the backend treats
  specially, and a run of cursor loads with early-return tests between
  its words — whose compiled form must return what the interpreter
  returns *and* leave the same memory (and cursor) behind;
* hand-written cases for the counted-loop matcher: every refusal it
  must make, and the edges of the loops it accepts;
* golden assertions on the real n=1000 residual codecs: the shapes the
  performance ledger's counts depend on.
"""

import copy
import random
import re
import struct

import pytest

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
        assert "_struct.Struct('>2I8i')" in module.source
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


# -- what the lowering emits ----------------------------------------------


def compiled_source(source):
    return compile_program(parse_program(source)).source


class TestEmittedForms:
    def test_reads_are_not_rewrapped_and_literals_fold(self):
        text = compiled_source("""
        int f(int a, unsigned u) {
            int b; unsigned v; char c;
            b = a; v = u; b = -1; v = -1; c = 200; c = (char)a;
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


def test_golden_server_handler_loop(golden_pipeline):
    lens = {"vals": GOLDEN_N}
    server = golden_pipeline.specialize_server(
        "SENDRECV", arg_lens=lens, res_lens=lens)
    source = server._module.source
    assert "_rt.wrap_i32(" not in source
    hot = _function(source, "svc_process_xchg_prog_1_spec")
    lines = hot.splitlines()
    head = next(i for i, line in enumerate(lines)
                if "for i in range(i, " in line)
    assert lines[head + 1].strip() == (
        "t_intarr_3.vals[i] = (((t_intarr_2.vals[i] + 1) + 0x80000000)"
        " & 0xFFFFFFFF) - 0x80000000"
    )
    assert lines[head + 2].strip().startswith("if i < ")  # loop is 1 line
    assert "while" not in hot
    # decode and encode of the 1000 ints: one slice each way
    assert f"objp.vals[0:{GOLDEN_N}] = " in source
    assert f".pack_into(_t2.buffer.data, _t2.offset, *objp.vals[0:{GOLDEN_N}])" \
        in source


def test_golden_client_marshal_is_one_sliced_pack(golden_pipeline):
    lens = {"vals": GOLDEN_N}
    client = golden_pipeline.specialize_client(
        "SENDRECV", arg_lens=lens, res_lens=lens)
    source = client._marshal_module.source
    assert source.count("pack_into") == 1
    assert f"_struct.Struct('>11I{GOLDEN_N}i')" in source
    assert f", {GOLDEN_N}, *argsp.vals[0:{GOLDEN_N}])" in source
    assert "argsp.vals[1]" not in source
    recv = client._recv_module.source
    assert recv.count("unpack_from") >= 1
    assert f"objp.vals[0:{GOLDEN_N}] = " in recv
