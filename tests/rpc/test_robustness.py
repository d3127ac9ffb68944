"""Failure-injection and fuzz tests for the RPC stack.

A server facing the open network sees truncated, corrupted and hostile
datagrams; the dispatcher must never crash — it answers with a protocol
error or drops the datagram, like the C svc code.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.message import CallHeader, encode_call_header
from repro.rpc.server import SvcRegistry
from repro.xdr import XdrMemStream, XdrOp, xdr_array, xdr_int

PROG, VERS = 0x20008888, 1


def _wrap32(value):
    return ((value + 2**31) % 2**32) - 2**31


def make_registry():
    registry = SvcRegistry()
    registry.register(
        PROG, VERS, 1,
        lambda a: [_wrap32(x + 1) for x in a],
        lambda s, v: xdr_array(s, v, 256, xdr_int),
        lambda s, v: xdr_array(s, v, 256, xdr_int),
    )
    return registry


def valid_call(values, xid=42):
    stream = XdrMemStream(bytearray(4096), XdrOp.ENCODE)
    encode_call_header(stream, CallHeader(xid, PROG, VERS, 1))
    xdr_array(stream, values, 256, xdr_int)
    return stream.data()


@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=200))
def test_random_bytes_never_crash(data):
    registry = make_registry()
    reply = registry.dispatch_bytes(data)
    assert reply is None or isinstance(reply, bytes)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-(2**31), 2**31 - 1), max_size=16),
    cut=st.integers(0, 100),
)
def test_truncated_valid_calls_never_crash(values, cut):
    registry = make_registry()
    data = valid_call(values)
    reply = registry.dispatch_bytes(data[:cut])
    assert reply is None or isinstance(reply, bytes)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1,
                    max_size=16),
    position=st.integers(0, 39),
    garbage=st.integers(0, 255),
)
def test_bitflipped_headers_never_crash(values, position, garbage):
    registry = make_registry()
    data = bytearray(valid_call(values))
    data[position] = garbage
    reply = registry.dispatch_bytes(bytes(data))
    assert reply is None or isinstance(reply, bytes)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(-(2**31), 2**31 - 1), max_size=16))
def test_valid_calls_always_answered(values):
    registry = make_registry()
    reply = registry.dispatch_bytes(valid_call(values))
    assert reply is not None
    stream = XdrMemStream(bytearray(reply), XdrOp.DECODE)
    from repro.rpc.message import decode_reply_header, raise_for_reply

    raise_for_reply(decode_reply_header(stream))
    assert xdr_array(stream, None, 256, xdr_int) == [
        _wrap32(v + 1) for v in values
    ]


def test_specialized_dispatcher_survives_fuzz(sunrpc_program):
    """The compiled specialized server must be as robust as the generic
    one: garbage in, None (drop) out — never an exception."""
    import struct

    workload = sunrpc_program
    result = workload.specialized_server(8)
    from repro.minic.compile_py import compile_program
    from repro.minic import pyruntime as rt

    module = compile_program(result.program)
    params = [name for _t, name in result.residual_params]

    def dispatch(data):
        in_buffer = rt.PyBuffer(data)
        out_buffer = rt.PyBuffer(8800)
        values = {
            "inbuf": rt.BufPtr(in_buffer),
            "inlen": len(data),
            "outbuf": rt.BufPtr(out_buffer),
            "outsize": 8800,
        }
        return module.call(
            result.entry_name, *[values[name] for name in params]
        )

    for blob in (
        b"",
        b"\x00" * 4,
        b"\xff" * 100,
        struct.pack(">IIIIII", 1, 0, 2, 0x20000321, 1, 1),
        struct.pack(">II", 7, 1) + b"\x00" * 60,
    ):
        outlen = dispatch(blob)
        assert outlen == 0  # dropped, like the generic path
