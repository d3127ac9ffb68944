"""Runtime fast path: template equivalence, what a fast-path call
costs, and end-to-end loopback behavior (repro.rpc.fastpath)."""

import struct

import pytest

from repro import obs
from repro.bench.workloads import WORKLOAD_IDL, WORKLOAD_IMPL
from repro.errors import XdrError
from repro.rpc import (
    CallHeaderTemplate,
    ReplyHeaderTemplate,
    SvcRegistry,
    TcpClient,
    TcpServer,
    UdpClient,
    UdpServer,
    make_auth_sys,
)
from repro.rpc.auth import NULL_AUTH, OpaqueAuth
from repro.rpc.client import RpcClient
from repro.rpc.message import (
    AcceptStat,
    CallHeader,
    encode_accepted_reply,
    encode_call_header,
)
from repro.specialized import SpecializationPipeline
from repro.xdr import XdrMemStream, XdrOp, xdr_array, xdr_int, xdr_string
from tests.rpc.test_lone_call import count_pyops, only_311

PROG, VERS = 0x20003333, 2

AUTH_FLAVORS = [
    (NULL_AUTH, NULL_AUTH),
    (make_auth_sys(7, "testhost", 1000, 100, (1, 2, 3)), NULL_AUTH),
    (make_auth_sys(1, "h", 0, 0), OpaqueAuth(2, b"shorthand")),
]


def xdr_iarr(xdrs, value):
    return xdr_array(xdrs, value, 4096, xdr_int)


def generic_call_bytes(client, xid, proc, args, xdr_args):
    """The seed generic path, rebuilt inline as the reference."""
    buffer = bytearray(client.bufsize)
    stream = XdrMemStream(buffer, XdrOp.ENCODE)
    encode_call_header(stream, CallHeader(
        xid, client.prog, client.vers, proc, client.cred, client.verf
    ))
    if xdr_args is not None:
        xdr_args(stream, args)
    return stream.data()


class TestTemplateEquivalence:
    @pytest.mark.parametrize("cred,verf", AUTH_FLAVORS)
    @pytest.mark.parametrize("proc", [0, 1, 2, 77])
    def test_call_bytes_identical(self, cred, verf, proc):
        generic = RpcClient(PROG, VERS, cred=cred, verf=verf)
        fast = RpcClient(PROG, VERS, cred=cred, verf=verf)
        fast.enable_fastpath()
        for xid in (0, 1, 0x7FFFFFFF, 0xFFFFFFFF):
            want = generic.build_call(xid, proc, [1, 2, 3], xdr_iarr)
            assert fast.build_call(xid, proc, [1, 2, 3], xdr_iarr) == want
            assert want == generic_call_bytes(
                generic, xid, proc, [1, 2, 3], xdr_iarr
            )

    @pytest.mark.parametrize("cred,verf", AUTH_FLAVORS)
    def test_template_render_matches_encoder(self, cred, verf):
        template = CallHeaderTemplate(PROG, VERS, 5, cred, verf)
        stream = XdrMemStream(bytearray(2048), XdrOp.ENCODE)
        encode_call_header(stream, CallHeader(0xABCD, PROG, VERS, 5, cred,
                                              verf))
        assert bytes(template.render(0xABCD)) == stream.data()

    def test_write_into_returns_body_offset(self):
        template = CallHeaderTemplate(PROG, VERS, 1)
        buffer = bytearray(256)
        offset = template.write_into(buffer, 42)
        assert offset == template.size == 10 * 4
        assert buffer[:4] == (42).to_bytes(4, "big")

    def test_reply_template_matches_encoder(self):
        template = ReplyHeaderTemplate()
        buffer = bytearray(64)
        size = template.write_into(buffer, 0xDEAD)
        stream = XdrMemStream(bytearray(64), XdrOp.ENCODE)
        encode_accepted_reply(stream, 0xDEAD, AcceptStat.SUCCESS, NULL_AUTH)
        assert bytes(buffer[:size]) == stream.data()


class TestFastReplyCheck:
    """The client-side reply check: one slice compare against the
    accepted-SUCCESS template; everything else decodes generically."""

    def test_matches_accepted_success(self):
        template = ReplyHeaderTemplate()
        buffer = bytearray(64)
        template.write_into(buffer, 0x1234)
        assert template.matches(buffer)
        assert template.matches(memoryview(buffer))

    def test_rejects_error_reply(self):
        template = ReplyHeaderTemplate()
        stream = XdrMemStream(bytearray(64), XdrOp.ENCODE)
        encode_accepted_reply(stream, 9, AcceptStat.PROC_UNAVAIL, NULL_AUTH)
        assert not template.matches(stream.data())
        assert not template.matches(b"")

    def test_stale_xid_is_unmatched_not_an_error(self):
        fast = RpcClient(PROG, VERS).enable_fastpath()
        reply = _registry(fastpath=True).dispatch_bytes(
            fast.build_call(41, 1, [1, 2], xdr_iarr)
        )
        matched, _ = fast.parse_reply(reply, 42, 1, xdr_iarr)
        assert matched is False
        matched, value = fast.parse_reply(reply, 41, 1, xdr_iarr)
        assert matched and value == [2, 4]

    def test_error_reply_falls_back_and_raises(self):
        from repro.errors import RpcDeniedError
        fast = RpcClient(PROG, VERS).enable_fastpath()
        reply = _registry(fastpath=True).dispatch_bytes(
            fast.build_call(7, 99, None, None)
        )
        with pytest.raises(RpcDeniedError, match="PROC_UNAVAIL"):
            fast.parse_reply(reply, 7, 99, None)


def _header_counts(registry, request):
    """Dispatch ``request`` with metrics on; returns ``(reply, fast-parse
    hits, generic-decoder fallbacks)``."""
    from repro import obs
    from repro.obs.metrics import MetricsRegistry

    prev = (obs.enabled, obs.registry)
    obs.enabled, obs.registry = True, MetricsRegistry()
    try:
        reply = registry.dispatch_bytes(request)
        counters = obs.collect()["counters"]
    finally:
        obs.enabled, obs.registry = prev
    return (reply, counters.get("rpc.server.fastpath_header_hits", 0),
            counters.get("rpc.server.fastpath_fallbacks", 0))


class TestServerFastHeaderParse:
    def test_null_auth_header_parses_fast(self):
        registry = _registry(fastpath=True)
        client = RpcClient(PROG, VERS)
        request = client.build_call(3, 1, [5], xdr_iarr)
        reply, hits, fallbacks = _header_counts(registry, request)
        assert (hits, fallbacks) == (1, 0)
        # xid, prog, vers and proc all came out of the fast parse right
        assert client.parse_reply(reply, 3, 1, xdr_iarr) == (True, [10])

    def test_auth_sys_header_declines_fast_parse(self):
        registry = _registry(fastpath=True)
        client = RpcClient(PROG, VERS,
                           cred=make_auth_sys(1, "h", 0, 0))
        request = client.build_call(3, 1, [5], xdr_iarr)
        reply, hits, fallbacks = _header_counts(registry, request)
        assert (hits, fallbacks) == (0, 1)
        # ...but the generic decoder still serves it identically.
        assert reply == _registry(fastpath=False).dispatch_bytes(request)

    def test_truncated_header_declines_fast_parse(self):
        registry = _registry(fastpath=True)
        request = RpcClient(PROG, VERS).build_call(3, 1, [5], xdr_iarr)
        reply, hits, fallbacks = _header_counts(registry, request[:39])
        assert (reply, hits, fallbacks) == (None, 0, 1)


class TestExactFitBuffers:
    def test_overflowing_exact_fit_pool_grows_and_succeeds(self):
        """Large arguments on a fast-path client are byte-identical to
        the generic encoding."""
        client = RpcClient(PROG, VERS).enable_fastpath()
        big = list(range(2000))  # ~8KB body
        generic = RpcClient(PROG, VERS)
        assert (client.build_call(5, 1, big, xdr_iarr)
                == generic.build_call(5, 1, big, xdr_iarr))

    def test_message_bigger_than_bufsize_still_raises(self):
        client = RpcClient(PROG, VERS, bufsize=64).enable_fastpath()
        with pytest.raises(XdrError):
            client.build_call(5, 1, list(range(100)), xdr_iarr)


def _registry(fastpath=False):
    registry = SvcRegistry(fastpath=fastpath)
    registry.register(PROG, VERS, 1, lambda a: [x * 2 for x in a],
                      xdr_iarr, xdr_iarr)
    registry.register(PROG, VERS, 2, lambda s: s.upper(),
                      lambda x, v: xdr_string(x, v, 256),
                      lambda x, v: xdr_string(x, v, 256))
    return registry


class TestServerFastpath:
    def test_reply_bytes_identical(self):
        generic = _registry(fastpath=False)
        fast = _registry(fastpath=True)
        client = RpcClient(PROG, VERS)
        for proc, args, xdr_args in (
            (1, [3, 4, 5], xdr_iarr),
            (2, "abc", lambda x, v: xdr_string(x, v, 256)),
        ):
            request = client.build_call(77, proc, args, xdr_args)
            assert fast.dispatch_bytes(request) == generic.dispatch_bytes(
                request
            )

    def test_error_paths_identical(self):
        generic = _registry(fastpath=False)
        fast = _registry(fastpath=True)
        client = RpcClient(PROG, VERS)
        # PROC_UNAVAIL
        request = client.build_call(5, 99, None, None)
        assert fast.dispatch_bytes(request) == generic.dispatch_bytes(request)
        # PROG_UNAVAIL
        other = RpcClient(0x2FFFFFFF, 1)
        request = other.build_call(6, 1, None, None)
        assert fast.dispatch_bytes(request) == generic.dispatch_bytes(request)
        # GARBAGE_ARGS (truncated body)
        request = client.build_call(7, 1, [1, 2, 3], xdr_iarr)[:-8]
        assert fast.dispatch_bytes(request) == generic.dispatch_bytes(request)

    def test_memoryview_input(self):
        fast = _registry(fastpath=True)
        client = RpcClient(PROG, VERS)
        request = bytearray(client.build_call(8, 1, [1], xdr_iarr))
        reply = fast.dispatch_bytes(memoryview(request))
        assert reply == _registry().dispatch_bytes(bytes(request))


class TestLoopback:
    def test_udp_fastpath_roundtrip(self):
        with UdpServer(_registry(), fastpath=True) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           fastpath=True) as client:
                for i in range(20):
                    assert client.call(1, [1, i], xdr_iarr, xdr_iarr) == [
                        2, 2 * i
                    ]
                assert client.call(
                    2, "hello",
                    lambda x, v: xdr_string(x, v, 256),
                    lambda x, v: xdr_string(x, v, 256),
                ) == "HELLO"

    def test_tcp_fastpath_roundtrip(self):
        with TcpServer(_registry(), fastpath=True) as server:
            with TcpClient("127.0.0.1", server.port, PROG, VERS,
                           fastpath=True) as client:
                for i in range(10):
                    assert client.call(1, [i], xdr_iarr, xdr_iarr) == [2 * i]

    def test_fastpath_with_auth_sys(self):
        cred = make_auth_sys(3, "box", 501, 20, (12,))
        with UdpServer(_registry(), fastpath=True) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           fastpath=True, cred=cred) as client:
                assert client.call(1, [5], xdr_iarr, xdr_iarr) == [10]

    def test_mixed_fastpath_and_generic_peers(self):
        """A fast-path client against a generic server and vice versa —
        the wire format is identical, so every pairing interoperates."""
        with UdpServer(_registry(), fastpath=False) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           fastpath=True) as client:
                assert client.call(1, [7], xdr_iarr, xdr_iarr) == [14]
        with UdpServer(_registry(), fastpath=True) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           fastpath=False) as client:
                assert client.call(1, [7], xdr_iarr, xdr_iarr) == [14]


# -- what a fast-path call costs -----------------------------------------------

N = 20

#: counted on CPython 3.11 with obs off: a warm n=20 fast-path
#: ``RpcClient.build_call`` runs 1 862 bytecodes and a fast-path
#: ``SvcRegistry.dispatch_bytes`` through the default body, DRC on,
#: 4 066 (1 992 and 4 156 through the buffer pools the fast path had;
#: the generic paths read 2 781 and 5 539); the budgets are the counts
#: plus 5%
FASTPATH_BUDGET = {"build_call": 1955, "dispatch_bytes": 4269}


@pytest.fixture(scope="module")
def workload():
    """The paper workload's pipeline, its n=20 argument and a fast-path
    registry serving it with the DRC on."""
    pipeline = SpecializationPipeline(WORKLOAD_IDL,
                                      impl_sources=[WORKLOAD_IMPL])
    stubs = pipeline.stubs

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    registry = SvcRegistry(fastpath=True, drc=True)
    stubs.register_XCHG_PROG_1(registry, Impl())
    return pipeline, stubs.intarr(vals=list(range(N))), registry


@pytest.fixture()
def obs_off():
    previous = obs.enabled
    obs.enabled = False
    yield
    obs.enabled = previous


def warm_count(probe, warm=5):
    """The one bytecode count of ``probe()`` once warm."""
    for _ in range(warm):
        probe()
    counts = {count_pyops(probe) for _ in range(3)}
    assert len(counts) == 1, counts
    return counts.pop()


@only_311
def test_a_fast_path_build_call_stays_inside_its_bytecode_budget(
        workload, obs_off):
    pipeline, args, _registry = workload
    client = RpcClient(pipeline.prog_number,
                       pipeline.vers_number).enable_fastpath()
    count = warm_count(
        lambda: client.build_call(7, 1, args, pipeline.stubs.xdr_intarr))
    assert count <= FASTPATH_BUDGET["build_call"], (
        f"a fast-path n={N} build_call runs {count} bytecodes >"
        f" {FASTPATH_BUDGET['build_call']}: the header template path"
        " gained per-call work")


@only_311
def test_a_fast_path_dispatch_stays_inside_its_bytecode_budget(
        workload, obs_off):
    pipeline, args, registry = workload
    request = bytes(RpcClient(pipeline.prog_number, pipeline.vers_number)
                    .build_call(0, 1, args, pipeline.stubs.xdr_intarr))
    # a fresh xid per dispatch: a repeated one is a DRC replay
    requests = iter([struct.pack(">I", 0x1000 + n) + request[4:]
                     for n in range(8)])
    count = warm_count(lambda: registry.dispatch_bytes(
        next(requests), ("127.0.0.1", 9)))
    assert count <= FASTPATH_BUDGET["dispatch_bytes"], (
        f"a fast-path n={N} dispatch_bytes runs {count} bytecodes >"
        f" {FASTPATH_BUDGET['dispatch_bytes']}: the default body or the"
        " reply template path gained per-call work")


def test_a_call_no_codec_serves_encodes_once_after_an_install(workload):
    """An installed n=20 codec leaves the client's other calls alone:
    an n=300 call of a procedure it does not serve runs its argument
    filter once, into the client's own buffer, byte-identical to the
    generic encoding."""
    pipeline, _args, _registry = workload
    prog, vers = pipeline.prog_number, pipeline.vers_number
    client = RpcClient(prog, vers).enable_fastpath()
    pipeline.specialize_client("SENDRECV", arg_lens={"vals": N},
                               res_lens={"vals": N}).install(client)
    big = pipeline.stubs.intarr(vals=list(range(300)))
    runs = []

    def counted(xdrs, value):
        runs.append(xdrs.pos)
        return pipeline.stubs.xdr_intarr(xdrs, value)

    message = client.build_call(7, 2, big, counted)
    assert len(runs) == 1
    assert message == RpcClient(prog, vers).build_call(
        7, 2, big, pipeline.stubs.xdr_intarr)
