"""Fully-compiled end-to-end: residual client and server compiled to
Python, joined by the generated net_sendrecv hook — no interpreter, no
sockets, one process."""

import pytest

from repro.minic.compile_py import compile_program
from repro.minic import pyruntime as rt

N = 16


@pytest.fixture(scope="module")
def compiled(sunrpc_program):
    workload = sunrpc_program
    client_result = workload.specialized_call(N)
    server_result = workload.specialized_server(N)
    client = compile_program(client_result.program)
    server = compile_program(server_result.program)
    server_params = [n for _t, n in server_result.residual_params]

    def network(request):
        in_buffer = rt.PyBuffer(request)
        out_buffer = rt.PyBuffer(8800)
        values = {
            "inbuf": rt.BufPtr(in_buffer),
            "inlen": len(request),
            "outbuf": rt.BufPtr(out_buffer),
            "outsize": 8800,
        }
        outlen = server.call(
            server_result.entry_name,
            *[values[name] for name in server_params],
        )
        return bytes(out_buffer.data[:outlen])

    client.attach_network(network)
    return workload, client_result, client


def _call(compiled, data, xid=0x31337):
    workload, client_result, client = compiled
    clnt = client.new_struct("CLIENT")
    clnt.cl_prog = 0x20000321
    clnt.cl_vers = 1
    args = client.new_struct("intarr")
    args.vals_len = len(data)
    args.vals[:len(data)] = data
    resp = client.new_struct("intarr")
    out_buffer = rt.PyBuffer(8800)
    in_buffer = rt.PyBuffer(8800)
    values = {
        "clnt": clnt,
        "xid": xid,
        "argsp": args,
        "resp": resp,
        "outbuf": rt.BufPtr(out_buffer),
        "inbuf": rt.BufPtr(in_buffer),
    }
    params = [n for _t, n in client_result.residual_params]
    status = client.call(
        client_result.entry_name, *[values[name] for name in params]
    )
    return status, resp.vals_len, list(resp.vals[:len(data)])


def test_compiled_round_trip(compiled):
    data = list(range(N))
    status, length, values = _call(compiled, data)
    assert status == 1
    assert length == N
    assert values == [v + 1 for v in data]


def test_compiled_round_trip_many_xids(compiled):
    for xid in (0, 1, 0xFFFFFFFF, 0x7FFFFFFF):
        status, _len, values = _call(compiled, [5] * N, xid=xid)
        assert status == 1
        assert values == [6] * N


def test_compiled_negative_values(compiled):
    data = [-(2**31), -1, 2**31 - 2] + [0] * (N - 3)
    status, _len, values = _call(compiled, data)
    assert status == 1
    # +1 with 32-bit wrap.
    assert values[0] == -(2**31) + 1
    assert values[1] == 0
    assert values[2] == 2**31 - 1


def test_compiled_matches_interpreter(compiled, sunrpc_program):
    workload = sunrpc_program
    data = [(i * 31) % 97 for i in range(N)]
    status, length, values = _call(compiled, data)
    client_trace = workload.roundtrip_traces(N, specialized=True)
    assert status == 1
    assert values == [v + 1 for v in data]
    del client_trace
