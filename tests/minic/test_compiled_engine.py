"""The compiled MiniC engine: the walk's work, compiled once per program.

Functions compile to closures on first call and are cached per program,
weakly: the cache must neither outlive a program nor compile it twice.
Steps are ticked where the node-by-node walk ticked them, so the step
budget runs out on exactly the same node.
"""

import gc
import weakref

import pytest

from repro.analysis.verify import verify_server_residual
from repro.bench.workloads import WORKLOAD_IDL, WORKLOAD_IMPL
from repro.errors import InterpError
from repro.minic import interp as engine
from repro.minic import values as rv
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program
from repro.specialized import SpecializationPipeline

SRC = """
struct point { int x; int y; };
int g = 3;
int bump(int *p) { *p = *p + 1; return *p; }
int loops(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i % 3 == 0)
            continue;
        if (i > 7)
            break;
        s += i;
    }
    while (n > 0) { s ^= n << 2; n--; }
    return s;
}
int mix(struct point *p, int n) {
    int x = 41;
    struct point q;
    q.x = bump(&x);
    q.y = p->y * 2 - n / 3;
    p->x = q.x > q.y ? q.x : -q.y;
    return p->x + g + (n && loops(n)) + (0 || !n);
}
"""

#: (result, steps) of ``loops(12)`` and of ``mix(&{5, -7}, 9)``, as the
#: node-by-node tree walker counted them
WALKER = {"loops": (35, 284), "mix": (46, 303)}


def args_for(interp, name):
    if name == "loops":
        return [12]
    point = interp.make_struct("point")
    point.field("x").value = 5
    point.field("y").value = -7
    return [interp.ptr_to(point), 9]


@pytest.mark.parametrize("name", sorted(WALKER))
def test_steps_are_the_walkers(name):
    interp = Interpreter(parse_program(SRC))
    assert (interp.call(name, args_for(interp, name)),
            interp._steps) == WALKER[name]


@pytest.mark.parametrize("name", sorted(WALKER))
def test_the_step_budget_runs_out_on_the_walkers_node(name):
    program = parse_program(SRC)
    _result, steps = WALKER[name]
    exact = Interpreter(program, max_steps=steps)
    assert exact.call(name, args_for(exact, name)) == WALKER[name][0]
    short = Interpreter(program, max_steps=steps - 1)
    with pytest.raises(InterpError, match=f"exceeded {steps - 1} "):
        short.call(name, args_for(short, name))
    assert short._steps == steps


def test_a_stopiteration_from_the_network_is_not_the_step_budgets():
    # the budget's ticks raise StopIteration when spent; one raised by
    # a network callable with budget to spare must pass through as the
    # walker let it, not turn into "exceeded N interpreter steps"
    src = "int f(caddr_t o, caddr_t i) { return net_sendrecv(o, 4, i, 4); }"
    interp = Interpreter(parse_program(src))
    interp.network = lambda request: next(iter(()))
    out, inb = interp.make_buffer(4), interp.make_buffer(4)
    with pytest.raises(StopIteration):
        interp.call("f", [rv.BufPtr(out, 0, 1), rv.BufPtr(inb, 0, 1)])
    steps = interp._steps
    interp.network = lambda request: request
    assert interp.call("f", [rv.BufPtr(out, 0, 1),
                             rv.BufPtr(inb, 0, 1)]) == 4
    assert interp._steps == steps


def test_compiled_code_dies_with_its_program():
    program = parse_program(SRC)
    interp = Interpreter(program)
    assert interp.call("mix", args_for(interp, "mix")) == 46
    code = engine._CACHE[program][Interpreter]
    assert {"mix", "bump", "loops"} <= set(code.funcs)
    program_ref, code_ref = weakref.ref(program), weakref.ref(code)
    # without the collector: compiled code holds no cycle (only a
    # recursive MiniC function would make one), so it goes at once
    # and a process that builds pipelines in turn does not pile it up
    gc.disable()
    try:
        del program, interp, code
        assert program_ref() is None
        assert code_ref() is None
    finally:
        gc.enable()


def test_a_verifier_call_compiles_each_program_it_runs_once(monkeypatch):
    pipeline = SpecializationPipeline(WORKLOAD_IDL,
                                      impl_sources=[WORKLOAD_IMPL],
                                      verify=False)
    lens = {"vals": 20}
    server = pipeline.specialize_server("SENDRECV", arg_lens=lens,
                                        res_lens=lens)
    compiles, runs = [], []
    real_compile, real_call = engine.CompiledProgram, Interpreter.call

    def compile_counted(program, typeinfo, domain):
        compiles.append(program)
        return real_compile(program, typeinfo, domain)

    def call_counted(interp, *args, **kwargs):
        runs.append(interp.program)
        return real_call(interp, *args, **kwargs)

    monkeypatch.setattr(engine, "CompiledProgram", compile_counted)
    monkeypatch.setattr(Interpreter, "call", call_counted)
    assert verify_server_residual(
        pipeline, server.result, pipeline.find_proc("SENDRECV"), lens, lens,
        server.bufsize, module=server._module) == []
    # the generic program and the residual the entry was compiled from
    assert {id(p) for p in compiles} == {id(p) for p in runs}
    assert len(compiles) == 2
    assert len(runs) > 8
