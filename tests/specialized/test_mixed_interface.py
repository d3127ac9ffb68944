"""An interface that mixes procedures inside and outside the MiniC stub
subset: the ones inside specialize as if they were alone, the ones
outside are refused with the recorded reason and stay generic."""

import itertools

import pytest

from repro.errors import IdlError
from repro.rpc import SvcRegistry
from repro.rpc.client import RpcClient
from repro.specialized import (
    OnlinePolicy,
    OnlineSpecializer,
    SpecializationPipeline,
)

PROG, VERS, F, G = 0x20007979, 1, 1, 2
HEAD = f"""
struct a {{ int vals<16>; }};
struct b {{ string name<16>; }};
program MIX_PROG {{ version MIX_VERS {{
"""
TAIL = f"}} = {VERS}; }} = {PROG};"
#: (IDL, G's argument and its filter's name, the recorded reason)
INTERFACES = {
    "string-struct-sibling": (
        HEAD + f"a F(a) = {F}; b G(b) = {G};" + TAIL,
        lambda stubs: stubs.b(name="x"), "xdr_b",
        "b: type StringT(bound=16) is outside the MiniC stub subset"),
    "scalar-sibling": (
        HEAD + f"a F(a) = {F}; int G(int) = {G};" + TAIL,
        lambda stubs: 41, "xdr_int",
        "G: MiniC stubs need struct argument/result types"),
}
IMPL = """
void f_impl(struct a *args, struct a *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i] + 1;
}
"""
N = 5
LENS = {"arg_lens": {"vals": N}, "res_lens": {"vals": N}}


@pytest.fixture(scope="module", params=sorted(INTERFACES))
def mixed(request):
    idl, g_arg, g_filter, reason = INTERFACES[request.param]
    pipeline = SpecializationPipeline(idl, impl_sources=[IMPL])
    stubs = pipeline.stubs
    return pipeline, g_arg(stubs), getattr(stubs, g_filter), reason


def make_registry(stubs):
    class Impl:
        def F(self, args):
            return stubs.a(vals=[v + 1 for v in args.vals])

        def G(self, args):
            return args

    return stubs.register_MIX_PROG_1(SvcRegistry(), Impl())


def test_the_in_subset_procedure_specializes(mixed):
    pipeline, _g_arg, _g_filter, _reason = mixed
    stubs = pipeline.stubs
    client, registry = RpcClient(PROG, VERS), make_registry(stubs)
    args = stubs.a(vals=list(range(N)))
    request = client.build_call(9, F, args, stubs.xdr_a)
    reply = registry.dispatch_bytes(request)
    spec = pipeline.specialize_client("F", **LENS)
    server = pipeline.specialize_server("F", **LENS)
    # the three fused entries against the generic client and registry
    assert spec.build_request(9, args) == request
    assert server.residual_reply(request) == reply
    assert spec.decode_reply(reply, 9) == stubs.a(
        vals=[v + 1 for v in range(N)])
    assert "g_marshal" not in pipeline.minic_source


def test_the_other_procedure_is_refused_with_the_reason(mixed):
    pipeline, _g_arg, _g_filter, reason = mixed
    assert pipeline.find_proc("G").refusal.startswith(reason)
    for specialize in (pipeline.specialize_client,
                       pipeline.specialize_server):
        with pytest.raises(IdlError) as refused:
            specialize("G")
        assert str(refused.value).startswith(reason)
    with pytest.raises(IdlError):
        OnlineSpecializer(pipeline, enabled=True).attach_client(
            RpcClient(PROG, VERS), "G")


def test_online_promotes_one_and_leaves_the_other_generic(mixed):
    pipeline, g_arg, g_filter, reason = mixed
    stubs = pipeline.stubs
    client, registry = RpcClient(PROG, VERS), make_registry(stubs)
    online = OnlineSpecializer(
        pipeline, enabled=True, policy=OnlinePolicy(
            min_calls=10, window=8, violation_threshold=4, cooldown_s=0.0))
    online.attach_server(registry)
    xids = itertools.count(1)
    f_call = lambda: client.build_call(  # noqa: E731
        next(xids), F, stubs.a(vals=list(range(N))), stubs.xdr_a)
    g_call = lambda: client.build_call(  # noqa: E731
        next(xids), G, g_arg, g_filter)
    g_generic = registry.dispatch_bytes(g_call())[4:]
    for _ in range(3):
        for _ in range(12):
            registry.dispatch_bytes(f_call())
            assert registry.dispatch_bytes(g_call())[4:] == g_generic
        online.poll_once()  # raises nothing, starves nothing
    assert online.promotions == 1
    assert registry.route_for(PROG, VERS, F).tier == "specialized"
    assert registry.route_for(PROG, VERS, G) is None
    skips = [d for d in online.decisions if d.action == "skip"]
    assert [(d.procedure, d.reason.startswith("unsupported: " + reason))
            for d in skips] == [("G", True)]
    assert [t["procedure"] for t in online.explain()] == ["F"]
    assert online.explain()[0]["pinned"] == []  # the rule's sizes only
