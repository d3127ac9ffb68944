"""The central correctness property: specialization preserves semantics.

Hypothesis generates marshaling-style workloads (array contents, buffer
capacities, procedure ids) and checks that the residual program produces
bit-identical buffers and results to the original program run on the
full inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minic import values as rv
from repro.minic.interp import Interpreter
from repro.minic.parser import parse_program
from repro.tempo import Dyn, Known, PtrTo, StructOf, specialize

ENCODER = """
struct XDR { int x_op; int x_handy; caddr_t x_private; caddr_t x_base; };
struct msg { int tag; int len; int vals[16]; };

bool_t putlong(struct XDR *xdrs, long *lp)
{
    if ((xdrs->x_handy -= sizeof(long)) < 0)
        return 0;
    *(long *)(xdrs->x_private) = (long)htonl((u_long)*lp);
    xdrs->x_private = xdrs->x_private + sizeof(long);
    return 1;
}

bool_t encode_msg(struct XDR *xdrs, struct msg *m)
{
    long tmp;
    tmp = (long)m->tag;
    if (!putlong(xdrs, &tmp))
        return 0;
    tmp = (long)m->len;
    if (!putlong(xdrs, &tmp))
        return 0;
    for (int i = 0; i < m->len; i++) {
        if (!putlong(xdrs, (long *)&m->vals[i]))
            return 0;
    }
    return 1;
}
"""

_PROGRAM = parse_program(ENCODER)


def _encode_with(program, entry, handy, tag, values, bufsize=128):
    interp = Interpreter(program)
    xdrs = interp.make_struct("XDR")
    buf = interp.make_buffer(bufsize)
    xdrs.field("x_op").value = 0
    xdrs.field("x_handy").value = handy
    xdrs.field("x_private").value = rv.BufPtr(buf, 0, 1)
    xdrs.field("x_base").value = rv.BufPtr(buf, 0, 1)
    msg = interp.make_struct("msg")
    msg.field("tag").value = tag
    msg.field("len").value = len(values)
    msg.field("vals").value.set_values(values)
    status = interp.call(
        entry, [interp.ptr_to(xdrs), interp.ptr_to(msg)]
    )
    return status, buf.bytes()


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.integers(-(2**31), 2**31 - 1), min_size=0, max_size=16
    ),
    tag=st.integers(-(2**31), 2**31 - 1),
    handy=st.sampled_from([128, 64, 12, 8, 4, 0]),
)
def test_residual_matches_original(values, tag, handy):
    result = specialize(
        _PROGRAM,
        "encode_msg",
        {
            "xdrs": PtrTo(
                StructOf(x_op=Known(0), x_handy=Known(handy),
                         x_private=Dyn(), x_base=Dyn())
            ),
            "m": PtrTo(StructOf(len=Known(len(values)))),
        },
    )
    original = _encode_with(
        _PROGRAM, "encode_msg", handy, tag, values
    )
    residual = _encode_with(
        result.program, result.entry_name, handy, tag, values
    )
    assert original == residual


@settings(max_examples=20, deadline=None)
@given(
    dyn_len=st.integers(0, 16),
    expected_len=st.integers(0, 16),
    seed=st.integers(0, 2**31 - 1),
)
def test_guarded_decode_equivalence(dyn_len, expected_len, seed):
    """The §6.2 expected-length guard: both the fast and generic paths
    must decode identically for matching and mismatching lengths."""
    source = """
    struct XDR { int x_op; int x_handy; caddr_t x_private; caddr_t x_base; };
    struct out { int len; int vals[16]; };

    bool_t getlong(struct XDR *xdrs, long *lp)
    {
        if ((xdrs->x_handy -= sizeof(long)) < 0)
            return 0;
        *lp = (long)ntohl((u_long)(*(long *)(xdrs->x_private)));
        xdrs->x_private = xdrs->x_private + sizeof(long);
        return 1;
    }

    bool_t decode(struct XDR *xdrs, struct out *o, int expected)
    {
        long tmp;
        if (!getlong(xdrs, &tmp))
            return 0;
        o->len = (int)tmp;
        if (o->len < 0)
            return 0;
        if (o->len > 16)
            return 0;
        if (o->len == expected) {
            o->len = expected;
            for (int i = 0; i < o->len; i++) {
                if (!getlong(xdrs, (long *)&o->vals[i]))
                    return 0;
            }
            return 1;
        }
        for (int i = 0; i < o->len; i++) {
            if (!getlong(xdrs, (long *)&o->vals[i]))
                return 0;
        }
        return 1;
    }
    """
    program = parse_program(source)
    result = specialize(
        program,
        "decode",
        {
            "xdrs": PtrTo(
                StructOf(x_op=Known(1), x_handy=Known(128),
                         x_private=Dyn(), x_base=Dyn())
            ),
            "o": PtrTo(StructOf()),
            "expected": Known(expected_len),
        },
    )

    def run(prog, entry, extra):
        interp = Interpreter(prog)
        xdrs = interp.make_struct("XDR")
        buf = interp.make_buffer(128)
        buf.store_u32(0, dyn_len & 0xFFFFFFFF)
        for index in range(dyn_len):
            buf.store_u32(4 + index * 4, (seed + index * 7) & 0xFFFFFFFF)
        xdrs.field("x_op").value = 1
        xdrs.field("x_handy").value = 128
        xdrs.field("x_private").value = rv.BufPtr(buf, 0, 1)
        xdrs.field("x_base").value = rv.BufPtr(buf, 0, 1)
        out = interp.make_struct("out")
        status = interp.call(
            entry, [interp.ptr_to(xdrs), interp.ptr_to(out)] + extra
        )
        return (
            status,
            out.field("len").value,
            out.field("vals").value.values(),
        )

    original = run(program, "decode", [expected_len])
    residual = run(result.program, result.entry_name, [])
    assert original == residual
