"""Service dispatch tests: every accept/deny path of RFC 1057."""

import pytest

from repro.rpc.auth import NULL_AUTH
from repro.rpc.message import (
    AcceptStat,
    CallHeader,
    DeniedReply,
    RejectStat,
    decode_reply_header,
    encode_call_header,
)
from repro.rpc.server import SvcRegistry
from repro.xdr import XdrMemStream, XdrOp, xdr_int

PROG, VERS = 0x20001111, 3


@pytest.fixture()
def registry():
    reg = SvcRegistry()
    reg.register(PROG, VERS, 1, lambda a: a * 2, xdr_int, xdr_int)
    return reg


def call_bytes(prog=PROG, vers=VERS, proc=1, arg=21, xid=7):
    stream = XdrMemStream(bytearray(512), XdrOp.ENCODE)
    encode_call_header(stream, CallHeader(xid, prog, vers, proc))
    if arg is not None:
        xdr_int(stream, arg)
    return stream.data()


def reply_of(registry, data):
    raw = registry.dispatch_bytes(data)
    assert raw is not None
    stream = XdrMemStream(bytearray(raw), XdrOp.DECODE)
    return decode_reply_header(stream), stream


def test_success_path(registry):
    reply, stream = reply_of(registry, call_bytes(arg=21))
    assert reply.stat == AcceptStat.SUCCESS
    assert xdr_int(stream, None) == 42


def test_xid_echoed(registry):
    reply, _s = reply_of(registry, call_bytes(xid=0xCAFEBABE))
    assert reply.xid == 0xCAFEBABE


def test_prog_unavail(registry):
    reply, _s = reply_of(registry, call_bytes(prog=999))
    assert reply.stat == AcceptStat.PROG_UNAVAIL


def test_prog_mismatch_reports_versions(registry):
    registry.register(PROG, 5, 1, lambda a: a, xdr_int, xdr_int)
    reply, _s = reply_of(registry, call_bytes(vers=9))
    assert reply.stat == AcceptStat.PROG_MISMATCH
    assert reply.mismatch == (3, 5)


def test_proc_unavail(registry):
    reply, _s = reply_of(registry, call_bytes(proc=99))
    assert reply.stat == AcceptStat.PROC_UNAVAIL


def test_null_proc_implicit(registry):
    reply, _s = reply_of(registry, call_bytes(proc=0, arg=None))
    assert reply.stat == AcceptStat.SUCCESS


def test_garbage_args(registry):
    reply, _s = reply_of(registry, call_bytes(arg=None))
    assert reply.stat == AcceptStat.GARBAGE_ARGS


def test_system_err_on_handler_exception(registry):
    def bad(_args):
        raise RuntimeError("boom")

    registry.register(PROG, VERS, 2, bad, xdr_int, xdr_int)
    reply, _s = reply_of(registry, call_bytes(proc=2))
    assert reply.stat == AcceptStat.SYSTEM_ERR


def test_rpc_version_mismatch_denied(registry):
    data = bytearray(call_bytes())
    data[8:12] = (3).to_bytes(4, "big")  # rpcvers = 3
    raw = registry.dispatch_bytes(bytes(data))
    stream = XdrMemStream(bytearray(raw), XdrOp.DECODE)
    reply = decode_reply_header(stream)
    assert isinstance(reply, DeniedReply)
    assert reply.stat == RejectStat.RPC_MISMATCH


def test_undecodable_datagram_dropped(registry):
    assert registry.dispatch_bytes(b"\x01\x02") is None


def test_truncated_call_dropped(registry):
    assert registry.dispatch_bytes(call_bytes()[:12]) is None


def test_specialized_marshaler_hook(registry):
    calls = {}

    def unpack_args(data, offset):
        calls["decoded"] = True
        return xdr_int(XdrMemStream(data, XdrOp.DECODE, offset=offset), None)

    def pack_res(value):
        calls["encoded"] = True
        stream = XdrMemStream(bytearray(4), XdrOp.ENCODE)
        xdr_int(stream, value)
        return stream.data()

    registry.stage_route(PROG, VERS, 1, unpack_args=unpack_args,
                         pack_res=pack_res)
    reply, stream = reply_of(registry, call_bytes(arg=5))
    assert reply.stat == AcceptStat.SUCCESS
    assert xdr_int(stream, None) == 10
    assert calls == {"decoded": True, "encoded": True}


def test_rpc_service_decorator():
    from repro.rpc.server import rpc_service

    reg = SvcRegistry()
    service = rpc_service(reg, PROG, VERS)

    @service(4, xdr_args=xdr_int, xdr_res=xdr_int)
    def negate(args):
        return -args

    reply, stream = reply_of(reg, call_bytes(proc=4, arg=6))
    assert reply.stat == AcceptStat.SUCCESS
    assert xdr_int(stream, None) == -6
