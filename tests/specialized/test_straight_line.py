"""The residuals the pipeline installs are straight-line along their
profile: the live stubs decline a length other than the assumed one
instead of carrying the generic element loop, and the fused entries'
exact message length lets the lowering read the whole request (or
reply) with one ``struct`` call and test its invariant words at once —
no per-word fallback for a short buffer that cannot arrive."""

import re

import pytest

from repro.bench.workloads import WORKLOAD_IDL, WORKLOAD_IMPL
from repro.rpcgen import generate_minic, parse_idl
from repro.rpcgen.codegen_minic import MiniCGenerator
from repro.specialized import SpecializationPipeline

#: what only the generic path's code needs: the element loop through
#: pointer cells with ``x_handy`` counted down per word, and a batch
#: read's test of the bytes left
GENERIC = ("ElemPtr", "cast_ptr", "__x_handy =", "<= len(")


@pytest.fixture(scope="module")
def pipeline():
    return SpecializationPipeline(WORKLOAD_IDL, impl_sources=[WORKLOAD_IMPL])


def modules(pipeline, n):
    lens = {"arg_lens": {"vals": n}, "res_lens": {"vals": n}}
    client = pipeline.specialize_client("SENDRECV", **lens)
    server = pipeline.specialize_server("SENDRECV", **lens)
    return {"server": server._module, "recv": client._recv_module,
            "marshal": client._marshal_module}


@pytest.mark.parametrize("n", [20, 1000])
def test_installed_entries_carry_no_generic_code(pipeline, n):
    for name, module in modules(pipeline, n).items():
        for text in GENERIC:
            assert text not in module.source, (name, text)


def test_a_small_call_is_read_and_written_once(pipeline):
    found = modules(pipeline, 20)
    assert found["server"].source.count("unpack_from(") == 1
    assert found["recv"].source.count("unpack_from(") == 1
    # each message is the one ``Struct.pack`` the entry returns; the
    # reply's is written twice only for the arm that wraps its values
    assert "pack_into(" not in found["server"].source + found[
        "marshal"].source
    assert found["marshal"].source.count("return _S1.pack(") == 1
    assert found["server"].source.count("return _S2.pack(") == 2
    # the header words tested as one tuple per stretch of them
    assert re.search(r"_w_inbuf\[1:\d+\] != \(0, 2, ", found["server"].source)


#: what no installed entry reaches: the XDR handle, the network stub,
#: a reply buffer copied to ``bytes``, a scan for the int32 wrap
UNREACHED = ("S_XDR", "_net_sendrecv", "bytearray(", "max(")


@pytest.mark.parametrize("n", [20, 1000])
def test_installed_entries_keep_only_what_they_reach(pipeline, n):
    for name, module in modules(pipeline, n).items():
        for text in UNREACHED:
            assert text not in module.source, (name, text)


def test_only_the_live_stubs_decline():
    interface = parse_idl(WORKLOAD_IDL)
    live = MiniCGenerator(interface, decline=True).generate()
    paper = generate_minic(interface)
    # the paper's guard keeps the generic element loop in its ``else``
    assert paper.count("for (i = 0; i < objp->vals_len; i++)") == 2
    assert live.count("for (i = 0; i < objp->vals_len; i++)") == 1
    guard = live[live.index("if (objp->vals_len == expected_vals_len)"):]
    assert guard.split("} else {", 1)[1].split("}", 1)[0].split() == [
        "return", "FALSE;"]
