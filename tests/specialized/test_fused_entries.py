"""The fused entries the transports call — ``build_request``,
``parse_reply``, ``residual_reply`` — against the generic client and
registry: byte-identical on the lengths they were built for, a decline
(and so the generic path) on every other, and on any fault."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XdrError
from repro.rpc import SvcRegistry
from repro.rpc.client import RpcClient
from repro.specialized import SpecializationPipeline

from tests.analysis.test_verify import respec
from tests.tempo.test_induction import (
    EDGE_WORDS,
    IDL,
    IMPL,
    MAXN,
    PROC,
    PROG,
    VERS,
    contents,
    lens,
    wrap32,
)

#: nothing rolls below three trips; 20 / 250 / 1000 are the paper's
#: and the ledger's sizes
SIZES = (0, 1, 2, 3, 20, 250, 1000)


@pytest.fixture(scope="module")
def pipeline():
    # verification on: every entry below passed the entry gate
    return SpecializationPipeline(IDL, impl_sources=[IMPL])


@pytest.fixture(scope="module")
def generic(pipeline):
    """(client, registry) with no specialization anywhere."""
    stubs = pipeline.stubs

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[wrap32(v + 1) for v in args.vals])

    return (RpcClient(PROG, VERS),
            stubs.register_IND_PROG_1(SvcRegistry(), Impl()))


def off_profile(n):
    return sorted({n - 1, n + 1, 0} - {n, -1, MAXN + 1})


def round_trip(pipeline, generic, xid, values):
    """(request, reply) for ``values`` as the generic stack makes them."""
    client, registry = generic
    stubs = pipeline.stubs
    request = client.build_call(xid, PROC, stubs.intarr(vals=values),
                                stubs.xdr_intarr)
    return request, registry.dispatch_bytes(request)


@pytest.mark.parametrize("n", SIZES)
@settings(max_examples=8, deadline=None)
@given(xid=st.integers(0, 2**32 - 1),
       head=st.lists(st.sampled_from(EDGE_WORDS), max_size=8),
       seed=st.integers(0, 2**16), as_dict=st.booleans())
def test_entries_are_byte_identical_to_generic(pipeline, generic, n, xid,
                                               head, seed, as_dict):
    values = contents(n, head, seed)
    request, reply = round_trip(pipeline, generic, xid, values)
    client = pipeline.specialize_client("SENDRECV", **lens(n))
    server = pipeline.specialize_server("SENDRECV", **lens(n))
    args = ({"vals": values} if as_dict
            else pipeline.stubs.intarr(vals=values))
    assert client.build_request(xid, args) == request
    assert server.residual_reply(request) == reply
    assert client.parse_reply(reply, xid) == generic[0].parse_reply(
        reply, xid, PROC, pipeline.stubs.xdr_intarr)
    assert client.decode_reply(reply, xid).vals == [
        wrap32(v + 1) for v in values]


@pytest.mark.parametrize("n", SIZES)
def test_off_profile_lengths_decline_on_both_sides(pipeline, generic, n):
    client = pipeline.specialize_client("SENDRECV", **lens(n))
    server = pipeline.specialize_server("SENDRECV", **lens(n))
    stubs = pipeline.stubs
    for other in off_profile(n):
        values = list(range(other))
        request, reply = round_trip(pipeline, generic, 9, values)
        assert client.build_request(9, stubs.intarr(vals=values)) is None
        assert client.build_request(9, {"vals": values}) is None
        assert server.residual_reply(request) is None
        assert client.decode_reply(reply, 9) is None
        # ... and the codec's reply path then decodes generically
        matched, value = client.parse_reply(reply, 9)
        assert matched and value.vals == [v + 1 for v in values]
    # a message of the right length but for the trailing word
    request, reply = round_trip(pipeline, generic, 9, list(range(n)))
    for data in (request[:-4], request + bytes(4)):
        assert server.residual_reply(data) is None
    for data in (reply[:-4], reply + bytes(4)):
        assert client.decode_reply(data, 9) is None


@pytest.mark.parametrize("count", [19, 21, 0])
def test_installed_codec_encodes_other_lengths_generically(
        pipeline, generic, count):
    """The n=20 codec once sent any argument as 20 elements: truncated,
    or zero-padded from its backing array."""
    stubs = pipeline.stubs
    codec = pipeline.specialize_client("SENDRECV", **lens(20))
    client = codec.install(RpcClient(PROG, VERS))
    args = stubs.intarr(vals=list(range(count)))
    assert codec.build_request(5, args) is None
    assert client.build_call(5, PROC, args, stubs.xdr_intarr) == \
        generic[0].build_call(5, PROC, args, stubs.xdr_intarr)


def test_a_faulting_residual_is_a_decline(pipeline, generic):
    """Any fault behind an entry is the generic path's call to answer:
    it neither escapes nor is taken for a result."""
    broken = respec(pipeline,
                    pipeline.specialize_client("SENDRECV", **lens(3)))

    def fault(*_args):
        raise IndexError("list assignment index out of range")

    for module in (broken._marshal_module, broken._recv_module):
        for name in module.namespace:
            if name.startswith("mc_") and name.endswith("_spec"):
                module.namespace[name] = fault
    values = [1, 2, 3]
    request, reply = round_trip(pipeline, generic, 7, values)
    assert broken.build_request(7, {"vals": values}) is None
    assert broken.decode_reply(reply, 7) is None
    matched, value = broken.parse_reply(reply, 7)
    assert matched and value.vals == [2, 3, 4]
    client = broken.install(RpcClient(PROG, VERS))
    args = pipeline.stubs.intarr(vals=values)
    assert client.build_call(7, PROC, args, None) == request
    # the server side: a residual fault leaves the call to the registry
    server = pipeline.specialize_server("SENDRECV", **lens(3))
    hostile = bytearray(request)
    hostile[40:44] = (MAXN + 1).to_bytes(4, "big")
    assert server.residual_reply(bytes(hostile)) is None
    # ... and a value the residual cannot send is refused by the generic
    # encoder, as it is with no codec installed
    with pytest.raises(XdrError, match="long out of range"):
        client.build_call(7, PROC, pipeline.stubs.intarr(vals=[2**31, 0, 0]),
                          None)
