"""Scalar replacement on the live codecs (docs/SPECIALIZATION.md,
"Scalar replacement"): what the lowering leaves of C's object model,
what it refuses (docs/SPECIALIZATION.md, "The residual subset"), and
the fused entries on hostile messages of exactly the length their
guard admits — each must serve what the generic path serves, or
decline."""

import ast
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompileError
from repro.rpc import SvcRegistry
from repro.rpc.client import RpcClient
from repro.specialized import (OnlinePolicy, OnlineSpecializer,
                               SpecializationPipeline)
from repro.tempo.specializer import Options

from tests.tempo.test_induction import IDL, IMPL, PROC, PROG, VERS, lens

SIZES = (1, 20, 1000)

#: the Python a residual module may be made of (docs/SPECIALIZATION.md,
#: "The residual subset", *Emitted*, and the bindings of "Fused
#: entries"): anything else — C's object model (cursors, boxed
#: out-parameters, the XDR handle), a class, a second function, a loop
#: over anything but ``range`` — is outside it
SUBSET_NODES = (
    ast.Module, ast.Import, ast.alias, ast.Assign, ast.AugAssign,
    ast.FunctionDef, ast.arguments, ast.arg, ast.Try, ast.ExceptHandler,
    ast.Pass, ast.If, ast.While, ast.For, ast.Return, ast.Expr,
    ast.Name, ast.Constant, ast.Load, ast.Store, ast.Attribute, ast.Call,
    ast.Starred, ast.Subscript, ast.Slice, ast.Tuple, ast.List,
    ast.ListComp, ast.comprehension, ast.IfExp, ast.BoolOp, ast.And,
    ast.Or, ast.UnaryOp, ast.Not, ast.USub, ast.Invert, ast.BinOp,
    ast.Add, ast.Sub, ast.Mult, ast.BitAnd, ast.BitOr, ast.BitXor,
    ast.LShift, ast.RShift, ast.Compare, ast.Eq, ast.NotEq, ast.Lt,
    ast.LtE, ast.Gt, ast.GtE)
#: the only calls: these builtins (``isinstance`` is the ``fields``
#: binding's dict test, ``range`` a counted loop's), the packers'
#: methods, ``_struct.Struct`` for a packer and ``__new__`` for the
#: ``result`` binding's fresh stub
SUBSET_CALLS = {"len", "max", "min", "zip", "list", "bytes", "bytearray",
                "range", "isinstance"}
SUBSET_METHODS = {"pack", "pack_into", "unpack_from", "Struct", "__new__"}


def outside_subset(source):
    """What of ``source`` is outside the residual subset (empty when
    it is all inside)."""
    tree = ast.parse(source)
    found = [type(node).__name__ for node in ast.walk(tree)
             if not isinstance(node, SUBSET_NODES)]
    found += [f"import {alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.Import) for alias in node.names
              if alias.name != "struct"]
    functions = [node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    if functions != ["entry"]:
        found.append(f"functions {functions}")
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and not (
                isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name)
                and node.iter.func.id == "range"):
            found.append(f"a for over {ast.unparse(node.iter)}")
        if isinstance(node, ast.Call) and not (
                isinstance(node.func, ast.Name)
                and node.func.id in SUBSET_CALLS
                or isinstance(node.func, ast.Attribute)
                and node.func.attr in SUBSET_METHODS):
            found.append(f"a call to {ast.unparse(node.func)}")
    return found

#: words worth planting anywhere in a header
HOSTILE = (0, 1, 2, 3, 4, 8, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


@pytest.fixture(scope="module")
def pipeline():
    return SpecializationPipeline(IDL, impl_sources=[IMPL])


@pytest.fixture(scope="module")
def generic(pipeline):
    stubs = pipeline.stubs

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[(v + 1 + 2**31) % 2**32 - 2**31
                                      for v in args.vals])

    return (RpcClient(PROG, VERS),
            stubs.register_IND_PROG_1(SvcRegistry(), Impl()))


@pytest.fixture(scope="module")
def specs(pipeline):
    return {n: (pipeline.specialize_client("SENDRECV", **lens(n)),
                pipeline.specialize_server("SENDRECV", **lens(n)))
            for n in SIZES}


@pytest.mark.parametrize("n", SIZES)
def test_no_object_model_is_left(specs, n):
    client, server = specs[n]
    for module in (client._marshal_module, client._recv_module,
                   server._module):
        found = outside_subset(module.source)
        assert not found, f"{found} in\n{module.source}"


@pytest.mark.parametrize("change", [
    ("len(data)", "open(data)"),         # a call outside the subset
    ("_S1.unpack_from(data)", "_S1.unpack_from(data).__reduce__()"),
    ("def entry(", "class S_XDR:\n    pass\n\ndef entry("),
], ids=["builtin-call", "method-call", "class"])
def test_the_subset_check_rejects_what_is_outside_it(specs, change):
    """The check above cannot pass vacuously: a live module changed by
    one construct outside the subset is rejected."""
    source = specs[20][1]._module.source
    assert change[0] in source and not outside_subset(source)
    assert outside_subset(source.replace(*change, 1))


#: the pipelines whose residuals keep what the lowering does not have:
#: without context sensitivity ``xdr_long`` keeps one copy for all its
#: call sites, so it stays a call, and the XDR handle — the cursor in
#: it — escapes to it; with ``max_unroll`` below the array length the
#: rolled element loops reach the arrays through ``long *`` pointers
OUTSIDE = {
    "context-insensitive": (Options(context_sensitive=False), "a pointer"),
    "partly-unrolled": (Options(max_unroll=3), "a pointer|an address-of"),
}


@pytest.mark.parametrize("options, construct", OUTSIDE.values(),
                         ids=list(OUTSIDE))
def test_a_residual_outside_the_subset_is_refused(options, construct):
    pipeline = SpecializationPipeline(IDL, impl_sources=[IMPL],
                                      options=options)
    for build in (pipeline.specialize_client, pipeline.specialize_server):
        with pytest.raises(CompileError, match="outside the residual"
                           f" subset: ({construct})"):
            build("SENDRECV", **lens(20))


@pytest.mark.parametrize("options, construct", OUTSIDE.values(),
                         ids=list(OUTSIDE))
def test_an_online_specializer_skips_it_and_the_generic_stack_answers(
        options, construct):
    pipeline = SpecializationPipeline(IDL, impl_sources=[IMPL],
                                      options=options)
    stubs = pipeline.stubs

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    registry = stubs.register_IND_PROG_1(SvcRegistry(), Impl())
    plain, client = RpcClient(PROG, VERS), RpcClient(PROG, VERS)
    spec = OnlineSpecializer(pipeline, policy=OnlinePolicy(
        min_calls=4, window=8, cooldown_s=0.0), enabled=True)
    spec.attach_server(registry)
    codec = spec.attach_client(client, "SENDRECV")
    args = stubs.intarr(vals=list(range(20)))
    for xid in range(1, 5):
        request = client.build_call(xid, PROC, args, stubs.xdr_intarr)
        assert request == plain.build_call(xid, PROC, args,
                                           stubs.xdr_intarr)
        reply = registry.dispatch_bytes(request)
        assert client.parse_reply(reply, xid, PROC, stubs.xdr_intarr)[1] \
            .vals == [v + 1 for v in range(20)]
    spec.poll_once()
    assert spec.promotions == 0 and spec.builds == 0
    skips = [decision for decision in spec.decisions
             if decision.action == "skip"]
    assert {decision.side for decision in skips} == {"client", "server"}
    for decision in skips:
        assert re.match(f"outside_subset: .* ({construct})", decision.reason)
    assert codec.lens == []
    # still the generic stack: the same bytes as a client with no codec
    request = client.build_call(9, PROC, args, stubs.xdr_intarr)
    assert request == plain.build_call(9, PROC, args, stubs.xdr_intarr)
    assert registry.route_for(PROG, VERS, PROC) is None


def planted(data, word, how, value):
    """``data`` with header word ``word`` replaced by ``value`` or with
    bit ``value % 32`` of it flipped."""
    out = bytearray(data)
    old = int.from_bytes(out[4 * word:4 * word + 4], "big")
    new = old ^ (1 << (value % 32)) if how == "flip" else value
    out[4 * word:4 * word + 4] = new.to_bytes(4, "big")
    return bytes(out)


PLANT = dict(how=st.sampled_from(["flip", "set"]),
             value=st.one_of(st.sampled_from(HOSTILE),
                             st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=40, deadline=None)
# xid, mtype, rpcvers, prog, vers, proc, cred (2), verifier (2), vals_len
@given(word=st.integers(0, 10), **PLANT)
def test_dispatch_entry_on_hostile_requests(pipeline, generic, specs, n,
                                            word, how, value):
    client, registry = generic
    request = client.build_call(0x1234, PROC, pipeline.stubs.intarr(
        vals=list(range(n))), pipeline.stubs.xdr_intarr)
    data = planted(request, word, how, value)
    answer = specs[n][1].residual_reply(data)
    if answer is not None:
        assert answer == registry.dispatch_bytes(data)


def generic_decode(client, stubs, data, xid):
    try:
        matched, value = client.parse_reply(data, xid, PROC,
                                            stubs.xdr_intarr)
    except Exception:  # a refused reply: the entry must have declined
        return None
    return value if matched else None


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=40, deadline=None)
# xid, mtype, reply stat, verifier (2), accept stat, vals_len
@given(word=st.integers(0, 6), **PLANT)
def test_decode_entry_on_hostile_replies(pipeline, generic, specs, n,
                                         word, how, value):
    client, registry = generic
    stubs = pipeline.stubs
    request = client.build_call(0x1234, PROC, stubs.intarr(
        vals=list(range(n))), stubs.xdr_intarr)
    data = planted(registry.dispatch_bytes(request), word, how, value)
    answer = specs[n][0].decode_reply(data, 0x1234)
    if answer is not None:
        expected = generic_decode(client, stubs, data, 0x1234)
        assert expected is not None and answer.vals == expected.vals


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=20, deadline=None)
@given(index=st.integers(0, 999),
       bad=st.sampled_from([2**31, -2**31 - 1, 2**40, 1.5, "7", None]))
def test_encode_entry_on_hostile_arguments(pipeline, generic, specs, n,
                                           index, bad):
    client, _registry = generic
    stubs = pipeline.stubs
    values = list(range(n))
    values[index % n] = bad
    answer = specs[n][0].build_request(9, stubs.intarr(vals=values))
    if answer is not None:
        assert answer == client.build_call(9, PROC, stubs.intarr(
            vals=values), stubs.xdr_intarr)
