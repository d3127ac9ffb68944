"""Fully-compiled end-to-end: the residual client and server compiled
to Python as their fused entries and joined directly — no interpreter
on the path, no sockets, one process."""

import pytest

from repro.bench.workloads import PROG_NUMBER, WORKLOAD_IDL, WORKLOAD_IMPL
from repro.specialized import SpecializationPipeline

N = 16


@pytest.fixture(scope="module")
def compiled():
    pipeline = SpecializationPipeline(WORKLOAD_IDL,
                                      impl_sources=[WORKLOAD_IMPL])
    assert pipeline.prog_number == PROG_NUMBER
    lens = {"vals": N}
    client = pipeline.specialize_client("SENDRECV", arg_lens=lens,
                                        res_lens=lens)
    server = pipeline.specialize_server("SENDRECV", arg_lens=lens,
                                        res_lens=lens)
    return pipeline, client, server


def _call(compiled, data, xid=0x31337):
    """One call through the three fused entries: ``(request, reply,
    status, decoded values)``."""
    pipeline, client, server = compiled
    request = client.build_request(xid, pipeline.stubs.intarr(vals=data))
    reply = server.residual_reply(request)
    result = client.decode_reply(reply, xid)
    status = 1 if result is not None else 0
    return request, reply, status, result and list(result.vals)


def test_compiled_round_trip(compiled):
    data = list(range(N))
    _request, _reply, status, values = _call(compiled, data)
    assert status == 1
    assert len(values) == N
    assert values == [v + 1 for v in data]


def test_compiled_round_trip_many_xids(compiled):
    for xid in (0, 1, 0xFFFFFFFF, 0x7FFFFFFF):
        _request, _reply, status, values = _call(compiled, [5] * N, xid=xid)
        assert status == 1
        assert values == [6] * N


def test_compiled_negative_values(compiled):
    data = [-(2**31), -1, 2**31 - 2] + [0] * (N - 3)
    _request, _reply, status, values = _call(compiled, data)
    assert status == 1
    # +1 with 32-bit wrap.
    assert values[0] == -(2**31) + 1
    assert values[1] == 0
    assert values[2] == 2**31 - 1


def test_compiled_matches_interpreter(compiled, sunrpc_program):
    workload = sunrpc_program
    data = [(i * 31) % 97 for i in range(N)]
    request, reply, status, values = _call(compiled, data)
    # the generic server program, interpreted, answers the same bytes
    expected, _trace = workload.generic_server_reply(N, request)
    assert reply == expected
    assert status == 1
    assert values == [v + 1 for v in data]
