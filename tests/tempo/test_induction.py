"""Loops by induction (``Options(roll=True)``, the live pipeline's default).

The contract under test: a rolled residual is byte-identical to the
unrolled residual and to the generic program for every array length and
content, through the interpreter and through its compiled module; a loop
that is not provably inductive is unrolled exactly as ``roll=False``
unrolls it, down to the names; and the paper path (``Options()``) does
not drift.
"""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minic import values as rv
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program
from repro.minic.typecheck import typecheck_program
from repro.specialized import SpecializationPipeline
from repro.tempo import ArrayOf, Dyn, Known, PtrTo, StructOf, specialize
from repro.tempo import induction
from repro.tempo.specializer import Options

PROG, VERS, PROC = 0x20000999, 1, 1
MAXN = 2000
BUFSIZE = 8800

IDL = f"""
const MAXN = {MAXN};

struct intarr {{
    int vals<MAXN>;
}};

program IND_PROG {{
    version IND_VERS {{
        intarr SENDRECV(intarr) = {PROC};
    }} = {VERS};
}} = {PROG};
"""

IMPL = """
void sendrecv_impl(struct intarr *args, struct intarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i] + 1;
}
"""

#: below three trips nothing rolls; 250 is the paper's re-roll factor
SMALL = (0, 1, 2, 3, 7)
LARGE = (250, 1000, 2000)
EDGE_WORDS = (0x7FFFFFFF, -0x80000000, -1, 0, 1)


@pytest.fixture(scope="module")
def stacks():
    """name -> pipeline: the live default (rolled) and the paper's
    Tempo (unrolled).  The verifier has its own suites."""
    return {
        "rolled": SpecializationPipeline(IDL, impl_sources=[IMPL],
                                         verify=False),
        "unrolled": SpecializationPipeline(IDL, impl_sources=[IMPL],
                                           options=Options(), verify=False),
    }


def lens(n):
    return {"arg_lens": {"vals": n}, "res_lens": {"vals": n}}


def contents(n, head, seed):
    """``n`` signed words: the drawn edge words, then a seeded fill."""
    fill = random.Random(seed)
    words = list(head[:n])
    words.extend(fill.randint(-2**31, 2**31 - 1) for _ in range(n - len(words)))
    return words


def call_message(xid, values):
    return struct.pack(f">11I{len(values)}i", xid, 0, 2, PROG, VERS, PROC,
                       0, 0, 0, 0, len(values), *values)


def reply_message(xid, values):
    return struct.pack(f">7I{len(values)}i", xid, 1, 0, 0, 0, 0,
                       len(values), *values)


class Interpreted:
    """Runs the three entry points of one MiniC program — the generic
    one, or a residual (``names``: the parameters it kept) — on the
    reference interpreter."""

    _typeinfo = {}

    def __init__(self, program, n):
        info = self._typeinfo.get(id(program))
        if info is None:
            info = self._typeinfo[id(program)] = (
                program, typecheck_program(program))
        self.interp = Interpreter(program, typeinfo=info[1])
        self.n = n

    def _call(self, entry, names, values):
        if names is None:
            names = [p.name for p in self.interp.program.func(entry).params]
        return self.interp.call(entry, [values[name] for name in names])

    def _buffer(self, data):
        buf = self.interp.make_buffer(max(len(data), 4))
        for offset, byte in enumerate(data):
            buf.store_int(offset, byte, 1, False)
        return buf

    def marshal(self, entry, names, xid, values):
        interp = self.interp
        out = interp.make_buffer(BUFSIZE)
        clnt = interp.make_struct("CLIENT")
        clnt.field("cl_prog").value = PROG
        clnt.field("cl_vers").value = VERS
        args = interp.make_struct("intarr")
        args.field("vals_len").value = self.n
        args.field("vals").value.set_values(
            values + [0] * (MAXN - len(values)))
        length = self._call(entry, names, {
            "clnt": interp.ptr_to(clnt), "xid": xid,
            "argsp": interp.ptr_to(args), "outbuf": rv.BufPtr(out, 0, 1),
            "outsize": BUFSIZE, "expected_vals_len": self.n,
        })
        return out.bytes()[:length]

    def recv(self, entry, names, xid, data):
        interp = self.interp
        resp = interp.make_struct("intarr")
        status = self._call(entry, names, {
            "inbuf": rv.BufPtr(self._buffer(data), 0, 1),
            "inlen": len(data), "xid": xid, "resp": interp.ptr_to(resp),
            "expected_vals_len": self.n,
        })
        count = resp.field("vals_len").value
        return status, resp.field("vals").value.values()[:count]

    def dispatch(self, entry, names, data):
        interp = self.interp
        out = interp.make_buffer(BUFSIZE)
        length = self._call(entry, names, {
            "inbuf": rv.BufPtr(self._buffer(data), 0, 1),
            "inlen": len(data), "outbuf": rv.BufPtr(out, 0, 1),
            "outsize": BUFSIZE, "expected_inlen": len(data),
            "sendrecv_expected_vals_len": self.n,
            "sendrecv_expected_vals_len_res": self.n,
        })
        return out.bytes()[:length]


def kept(result):
    return [name for _ctype, name in result.residual_params]


def check_identity(stacks, n, xid, values):
    generic = Interpreted(stacks["rolled"].program_ast, n)
    request = call_message(xid, values)
    results = [wrap32(value + 1) for value in values]
    reply = reply_message(xid, results)
    assert generic.marshal("sendrecv_marshal", None, xid, values) == request
    assert generic.recv("sendrecv_recv", None, xid, reply) == (1, results)
    assert generic.dispatch("svc_handle_ind_prog_1", None, request) == reply
    for name, pipeline in stacks.items():
        client = pipeline.specialize_client("SENDRECV", **lens(n))
        server = pipeline.specialize_server("SENDRECV", **lens(n))
        marshal, recv, handle = (client.marshal_result, client.recv_result,
                                 server.result)
        # the residual MiniC on the reference interpreter ...
        assert Interpreted(marshal.program, n).marshal(
            marshal.entry_name, kept(marshal), xid, values) == request, name
        assert Interpreted(recv.program, n).recv(
            recv.entry_name, kept(recv), xid, reply) == (1, results), name
        assert Interpreted(handle.program, n).dispatch(
            handle.entry_name, kept(handle), request) == reply, name
        # ... and its compiled module, through the runtime wrappers
        args = pipeline.stubs.intarr(vals=list(values))
        assert client.build_request(xid, args) == request, name
        matched, value = client.parse_reply(reply, xid)
        assert matched and list(value.vals) == results, name
        assert server.residual_reply(request) == reply, name


def wrap32(value):
    return (value + 2**31) % 2**32 - 2**31


WORDS = st.lists(st.sampled_from(EDGE_WORDS), max_size=8)


@pytest.mark.parametrize("n", SMALL)
@settings(max_examples=12, deadline=None)
@given(xid=st.integers(0, 2**32 - 1), head=WORDS, seed=st.integers(0, 2**16))
def test_rolled_unrolled_generic_identical_small(stacks, n, xid, head, seed):
    check_identity(stacks, n, xid, contents(n, head, seed))


@pytest.mark.parametrize("n", LARGE)
@settings(max_examples=2, deadline=None)
@given(xid=st.integers(0, 2**32 - 1), head=WORDS, seed=st.integers(0, 2**16))
def test_rolled_unrolled_generic_identical_large(stacks, n, xid, head, seed):
    check_identity(stacks, n, xid, contents(n, head, seed))


def test_residual_size_is_flat_in_n(stacks):
    def sizes(n):
        client = stacks["rolled"].specialize_client("SENDRECV", **lens(n))
        server = stacks["rolled"].specialize_server("SENDRECV", **lens(n))
        return (client.marshal_result.source_size()
                + client.recv_result.source_size(),
                server.result.source_size())

    small, large = sizes(100), sizes(1000)
    # equal up to literals: a digit more per size literal
    assert all(0 <= b - a <= 16 for a, b in zip(small, large))
    assert large[0] < 16384 and large[1] < 32768
    assert sizes(3)[1] < sizes(2)[1] + 1024  # three trips roll, two unroll


def test_lowered_python_is_the_unrolled_one(stacks):
    """On the size the residual serves, rolling changes what Tempo
    writes, not what runs: one pack / unpack over header and array."""
    for n in (20, 1000):
        rolled = stacks["rolled"].specialize_client("SENDRECV", **lens(n))
        unrolled = stacks["unrolled"].specialize_client("SENDRECV",
                                                        **lens(n))
        assert (rolled._marshal_module.source
                == unrolled._marshal_module.source)
        assert f"'>11I{n}i'" in rolled._marshal_module.source


# -- the abandon list: not inductive -> exactly the roll=False residual ------

ENCODER = """
struct XDR { int x_handy; caddr_t x_private; };
struct msg { int len; int vals[16]; };

bool_t putlong(struct XDR *xdrs, long *lp)
{
    if ((xdrs->x_handy -= sizeof(long)) < 0)
        return 0;
    *(long *)(xdrs->x_private) = (long)htonl((u_long)*lp);
    xdrs->x_private = xdrs->x_private + sizeof(long);
    return 1;
}

bool_t encode(struct XDR *xdrs, struct msg *m, int limit)
{
    for (int i = 0; i < m->len; i++) {
        if (limit == 3)
            break;
        if (!putlong(xdrs, (long *)&m->vals[i]))
            return 0;
    }
    return 1;
}

void put_squares(struct XDR *xdrs, int n)
{
    for (int i = 0; i < n; i++) {
        *(long *)(xdrs->x_private) = (long)(i * i);
        xdrs->x_private = xdrs->x_private + sizeof(long);
    }
}

int put_last(struct XDR *xdrs, int n)
{
    int seen[2];
    for (int i = 0; i < n; i++) {
        seen[0] = i;
        *(long *)(xdrs->x_private) = (long)n;
        xdrs->x_private = xdrs->x_private + sizeof(long);
    }
    return seen[0];
}

void put_table(struct XDR *xdrs, int *table, int n)
{
    for (int i = 0; i < n; i++) {
        *(long *)(xdrs->x_private) = (long)table[i];
        xdrs->x_private = xdrs->x_private + sizeof(long);
    }
}
"""

_ENCODER = parse_program(ENCODER)


def both(entry, assumptions):
    """The residual text with and without the induction rule."""
    return [
        specialize(_ENCODER, entry, assumptions,
                   options=Options(roll=roll)).pretty()
        for roll in (True, False)
    ]


def encode_assumptions(handy, length, limit=0):
    return {
        "xdrs": PtrTo(StructOf(x_handy=Known(handy), x_private=Dyn())),
        "m": PtrTo(StructOf(len=Known(length))),
        "limit": Known(limit),
    }


class TestAbandon:
    def test_control_the_inductive_loop_rolls(self):
        rolled, unrolled = both("encode", encode_assumptions(64, 8))
        assert "while (k < 8)" in rolled and "m->vals[k]" in rolled
        assert "while" not in unrolled and rolled != unrolled

    def test_flipped_comparison(self):
        # x_handy runs out at the sixth element: the overflow test is
        # false at k = 0 and true at k = 7
        rolled, unrolled = both("encode", encode_assumptions(20, 8))
        assert rolled == unrolled and "while" not in rolled

    def test_product_of_two_affine_values(self):
        assumptions = {"xdrs": PtrTo(StructOf(x_private=Dyn())),
                       "n": Known(8)}
        rolled, unrolled = both("put_squares", assumptions)
        assert rolled == unrolled and "x_private = 49;" in rolled

    def test_static_array_read_at_the_counter(self):
        assumptions = {"xdrs": PtrTo(StructOf(x_private=Dyn())),
                       "table": PtrTo(ArrayOf(8, Known(5))), "n": Known(8)}
        rolled, unrolled = both("put_table", assumptions)
        assert rolled == unrolled and rolled.count("x_private = 5;") == 8

    def test_static_value_of_the_last_trip_outlives_the_loop(self):
        # seen[0] is created by the first trip, so no hypothesis covers
        # it; rolled, it would carry ``k`` out of the loop
        assumptions = {"xdrs": PtrTo(StructOf(x_private=Dyn())),
                       "n": Known(8)}
        rolled, unrolled = both("put_last", assumptions)
        assert rolled == unrolled and "return 7;" in rolled

    def test_static_break(self):
        rolled, unrolled = both("encode", encode_assumptions(64, 8, limit=3))
        assert rolled == unrolled and "while" not in rolled

    def test_fewer_than_three_trips(self):
        rolled, unrolled = both("encode", encode_assumptions(64, 2))
        assert rolled == unrolled and "m->vals[1]" in rolled

    def test_a_wrong_hypothesis_fails_the_step(self, monkeypatch):
        # sabotage the deltas (x_handy: -4 -> -8): the body no longer
        # takes the hypothesis at k to the one at k + 1, so the loop is
        # unrolled — the step check, not the trial, is what is sound
        honest = induction._affine_through

        def doubled(values, ind):
            value = honest(values, ind)
            if isinstance(value, induction.pv.Affine) and value.step < 0:
                value = induction.pv.Affine(value.base, 2 * value.step, ind)
            return value

        monkeypatch.setattr(induction, "_affine_through", doubled)
        rolled, unrolled = both("encode", encode_assumptions(64, 8))
        assert rolled == unrolled and "while" not in rolled


def test_outsize_too_small_keeps_the_declining_residual(stacks):
    # 44 header bytes + 20 elements do not fit 100: the x_handy test
    # flips inside the range, and both residuals decline alike
    texts = []
    for pipeline in stacks.values():
        spec = pipeline.specialize_client("SENDRECV", bufsize=100, **lens(20))
        texts.append(spec.marshal_result.pretty())
        args = pipeline.stubs.intarr(vals=list(range(20)))
        assert spec.build_request(7, args) is None
    assert texts[0] == texts[1] and "return 0" in texts[0]


# -- the paper path does not drift -------------------------------------------

#: sha256 of the pretty-printed ``Options()`` residuals (client marshal,
#: client recv, server dispatch).  The client pair was taken on the
#: commit before the induction rule; the third is the pipeline's
#: ``svc_process`` residual with the request size known (it specialized
#: ``svc_handle`` with a dynamic ``inlen`` until the fused entries)
PAPER_DIGESTS = {
    20: (
        "da3e89e78961337fff4ae914ab8f01034e6c2423eaa6c5ed85b4f4420a1514f0",
        "d127b06a0e333b0304f43d2e1eff2ebdecb543abee54e003bbd39d91a51b12b4",
        "05a7625d4b23d7cc14e9bc05cb9538307c1e2a1d0b37066113bfabd0ddad08ef",
    ),
    250: (
        "3924f224838b51eee300e7422a1d5ae99e4994d4d63894bc3e6676b657860770",
        "c77f689e4ca693c44e9841737c48cbfdfc4bef0c66abd1e19fb8d3fedeab96f8",
        "2b3a50184243ee083497ac4df249426dfb2874d2ddaebb52273d7f0a32cac5f8",
    ),
}

#: the paper path's own server residual — ``repro.bench.workloads``
#: specializes ``svc_handle`` itself, dynamic ``inlen`` and both
#: branches, for Tables 1–4, ``figure6`` and ``ablation`` — taken on
#: the commit before the pipeline stopped sharing that entry
BENCH_SERVER_DIGESTS = {
    20: "092e71300faa03d8af8c61d122babb29ed8f19ba72f7ee9333dc1f4f678c9f03",
    250: "f0764e51c6acbaa71b1c2fea71a06ca5c00455c512077f1bce9880e925627936",
}


@pytest.mark.parametrize("n", sorted(PAPER_DIGESTS))
def test_paper_residuals_are_pinned(stacks, sunrpc_program, n):
    pipeline = stacks["unrolled"]
    client = pipeline.specialize_client("SENDRECV", **lens(n))
    server = pipeline.specialize_server("SENDRECV", **lens(n))
    digests = tuple(
        hashlib.sha256(result.pretty().encode()).hexdigest()
        for result in (client.marshal_result, client.recv_result,
                       server.result)
    )
    assert digests == PAPER_DIGESTS[n]
    bench = sunrpc_program.specialized_server(n)
    assert bench.entry_name == "svc_handle_xchg_prog_1_spec"
    assert hashlib.sha256(
        bench.pretty().encode()).hexdigest() == BENCH_SERVER_DIGESTS[n]
