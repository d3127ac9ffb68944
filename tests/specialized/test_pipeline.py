"""End-to-end pipeline tests: IDL -> Tempo -> compiled Python codecs."""

import re

import pytest

from repro.errors import IdlError, VerificationError, XdrError
from repro.rpc import SvcRegistry, UdpClient, UdpServer
from repro.rpc.client import RpcClient
from repro.specialized import SpecializationPipeline

IDL = """
const MAXN = 64;
struct intarr { int vals<MAXN>; };
program XFER_PROG {
    version XFER_VERS { intarr SENDRECV(intarr) = 1; } = 1;
} = 0x20005555;
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

N = 10


@pytest.fixture(scope="module")
def pipeline():
    return SpecializationPipeline(IDL, impl_sources=[IMPL])


@pytest.fixture(scope="module")
def client_spec(pipeline):
    return pipeline.specialize_client(
        "SENDRECV", arg_lens={"vals": N}, res_lens={"vals": N}
    )


@pytest.fixture(scope="module")
def server_spec(pipeline):
    return pipeline.specialize_server(
        "SENDRECV", arg_lens={"vals": N}, res_lens={"vals": N},
        fallback=SvcRegistry(),
    )


def generic_request(pipeline, xid, values):
    stubs = pipeline.stubs
    client = RpcClient(pipeline.prog_number, pipeline.vers_number)
    return client.build_call(
        xid, 1, stubs.intarr(vals=values), stubs.xdr_intarr
    )


def test_request_bytes_match_generic(pipeline, client_spec):
    values = list(range(N))
    specialized = client_spec.build_request(0x42, {"vals": values})
    generic = generic_request(pipeline, 0x42, values)
    assert specialized == generic


@pytest.mark.parametrize("n", [1, 2, N])  # 1, 2: fewer words than a batch
@pytest.mark.parametrize("bad", [2**31, -2**31 - 1, 2**40])
def test_out_of_range_int_is_refused_by_both_tiers(pipeline, n, bad):
    """The residual marshaler once masked: ``2**31`` went out as
    ``0x80000000`` where the generic stub refuses to encode it."""
    spec = pipeline.specialize_client(
        "SENDRECV", arg_lens={"vals": n}, res_lens={"vals": n}
    )
    values = [0] * (n - 1) + [bad]
    with pytest.raises(XdrError, match="long out of range"):
        generic_request(pipeline, 7, values)
    # the fused entry declines; the installed codec then refuses the
    # call as the generic stub does
    assert spec.build_request(7, {"vals": values}) is None
    client = spec.install(RpcClient(pipeline.prog_number,
                                    pipeline.vers_number))
    with pytest.raises(XdrError, match="long out of range"):
        client.build_call(7, 1, pipeline.stubs.intarr(vals=values), None)
    edges = ([2**31 - 1, -2**31] * n)[:n]
    assert spec.build_request(7, {"vals": edges}) == generic_request(
        pipeline, 7, edges)


def test_expected_sizes(pipeline, client_spec):
    values = list(range(N))
    request = client_spec.build_request(1, {"vals": values})
    assert len(request) == client_spec.expected_request


def test_server_codec_round_trip(pipeline, client_spec, server_spec):
    values = [5] * N
    request = client_spec.build_request(0x77, {"vals": values})
    reply = server_spec.dispatch_bytes(request)
    assert reply is not None
    matched, result = client_spec.parse_reply(reply, 0x77)
    assert matched
    assert result.vals == [v + 1 for v in values]
    assert server_spec.handlers_invoked == 1  # the registry's count


def test_stale_xid_not_matched(pipeline, client_spec, server_spec):
    request = client_spec.build_request(0x100, {"vals": [1] * N})
    reply = server_spec.dispatch_bytes(request)
    matched, _value = client_spec.parse_reply(reply, 0x999)
    assert not matched


def test_unexpected_length_falls_back(pipeline, client_spec):
    """A reply of the wrong shape decodes through the generic path."""
    values = list(range(3))  # != N
    registry = SvcRegistry()
    stubs = pipeline.stubs

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    stubs.register_XFER_PROG_1(registry, Impl())
    request = client_spec.build_request(0x55, {"vals": list(range(N))})
    # Mutate nothing: ask the generic server, then shrink the reply by
    # asking with fewer values through a generic client.
    generic = generic_request(pipeline, 0x55, values)
    reply = registry.dispatch_bytes(generic)
    matched, result = client_spec.parse_reply(reply, 0x55)
    assert matched
    assert result.vals == [v + 1 for v in values]
    del request


def test_server_fallback_registry(pipeline, server_spec):
    stubs = pipeline.stubs
    fallback = SvcRegistry()

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    stubs.register_XFER_PROG_1(fallback, Impl())
    spec = pipeline.specialize_server(
        "SENDRECV", arg_lens={"vals": N}, res_lens={"vals": N},
        fallback=fallback,
    )
    # An off-shape (but valid) request: different length.
    generic = generic_request(pipeline, 9, [1, 2, 3])
    reply = spec.dispatch_bytes(generic)
    assert reply is not None


def test_live_loopback_specialized_both_sides(pipeline, client_spec,
                                              server_spec):
    stubs = pipeline.stubs
    with UdpServer(server_spec) as server:
        with UdpClient("127.0.0.1", server.port, pipeline.prog_number,
                       pipeline.vers_number) as transport:
            client_spec.install(transport)
            client = stubs.XFER_PROG_1_client(transport)
            out = client.SENDRECV(stubs.intarr(vals=list(range(N))))
            assert out.vals == [v + 1 for v in range(N)]


def test_missing_length_assumption_rejected(pipeline):
    with pytest.raises(IdlError, match="missing assumed lengths"):
        pipeline.specialize_client("SENDRECV", arg_lens={},
                                   res_lens={"vals": N})


def test_unknown_proc_rejected(pipeline):
    with pytest.raises(IdlError, match="no procedure"):
        pipeline.specialize_client("NOPE", arg_lens={}, res_lens={})


def test_server_spec_requires_impls():
    pipeline = SpecializationPipeline(IDL)  # no impl sources
    with pytest.raises(IdlError, match="impl_sources"):
        pipeline.specialize_server("SENDRECV", arg_lens={"vals": N},
                                   res_lens={"vals": N})


def test_sizes_module(pipeline):
    # the sizes are the stub contract's: header + 4 x len(layout)
    proc = pipeline.find_proc("SENDRECV")
    assert proc.request_size({"vals": N}) == 40 + 4 + 4 * N
    assert proc.reply_size({"vals": N}) == 24 + 4 + 4 * N


class TestLoweringGate:
    """Every install point that verifies also holds the fused entry —
    glue and compiled module — to the generic program's outcome on the
    verifier's concrete probes."""

    @pytest.fixture(autouse=True)
    def default_verification(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPEC_VERIFY", raising=False)

    @pytest.fixture()
    def off_by_one(self, monkeypatch):
        """A back end that lowers every counted loop one trip short —
        a ``for`` loop's range or a map comprehension's slices."""
        from repro.minic import compile_py

        emit = compile_py._FuncCompiler.emit

        def wrong(self, text):
            if text.startswith("for ") and " in range(" in text:
                text = text.replace("):", " - 1):")
            elif " for _e1 in " in text:
                text = re.sub(r"\[(\w+):(\w+)\]", r"[\1:\2 - 1]", text)
            emit(self, text)

        monkeypatch.setattr(compile_py._FuncCompiler, "emit", wrong)

    def test_fresh_build_is_refused(self, off_by_one):
        pipeline = SpecializationPipeline(IDL, impl_sources=[IMPL])
        with pytest.raises(VerificationError, match="lowering-divergence"):
            pipeline.specialize_server(
                "SENDRECV", arg_lens={"vals": N}, res_lens={"vals": N})

    def test_disk_revival_is_gated_too(self, tmp_path, monkeypatch):
        lens = {"arg_lens": {"vals": N}, "res_lens": {"vals": N}}
        first = SpecializationPipeline(IDL, impl_sources=[IMPL],
                                       cache_dir=str(tmp_path))
        first.specialize_server("SENDRECV", **lens)
        gated = []
        from repro.analysis import verify

        original = verify.verify_server_residual

        def spy(*args, module=None):
            gated.append(module)
            return original(*args, module=module)

        monkeypatch.setattr(verify, "verify_server_residual", spy)
        second = SpecializationPipeline(IDL, impl_sources=[IMPL],
                                        cache_dir=str(tmp_path))
        server = second.specialize_server("SENDRECV", **lens)
        assert second.cache.disk_hits == 1
        # the module whose entry was gated is the one that serves
        assert gated == [server._module]
        assert server.residual_reply is server._module.entry

    def test_verify_off_skips_the_gate(self, off_by_one):
        pipeline = SpecializationPipeline(IDL, impl_sources=[IMPL],
                                          verify=False)
        pipeline.specialize_server(
            "SENDRECV", arg_lens={"vals": N}, res_lens={"vals": N})
