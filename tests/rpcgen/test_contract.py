"""The stub contract (repro.rpcgen.contract) against its two references:
the Python stubs' own XDR walk for the wire layout, and the generated
MiniC text for the entry signatures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import WORKLOAD_IDL, WORKLOAD_IMPL
from repro.minic.parser import parse_program
from repro.rpcgen.codegen_minic import MiniCGenerator
from repro.rpcgen.codegen_py import load_python
from repro.rpcgen.contract import LenWord, StubContract
from repro.rpcgen.idl_parser import parse_idl
from repro.xdr import XdrMemStream, XdrOp

BOUND = 6
SCALARS = ("int", "unsigned", "bool", "color")
#: member kinds a generated struct draws from; at most two are bounded
MEMBERS = SCALARS + ("fixed", "ufixed", "bounded", "ubounded", "nested")


@st.composite
def struct_and_lens(draw):
    """``(IDL text, {bounded member: element count})`` of one in-subset
    struct ``s``: scalars, enums, fixed arrays, 0-2 bounded arrays and
    at most one nested struct."""
    kinds = draw(st.lists(st.sampled_from(MEMBERS), min_size=1, max_size=7))
    members, lens, nested, bounded = [], {}, False, 0
    for index, kind in enumerate(kinds):
        name = f"m{index}"
        if kind == "nested" and not nested:
            nested = True
            members.append(f"inner {name};")
        elif kind in ("bounded", "ubounded") and bounded < 2:
            bounded += 1
            elem = "unsigned" if kind == "ubounded" else "int"
            members.append(f"{elem} {name}<{BOUND}>;")
            lens[name] = draw(st.integers(0, BOUND))
        elif kind in ("fixed", "ufixed"):
            elem = "unsigned" if kind == "ufixed" else "int"
            members.append(f"{elem} {name}[{draw(st.integers(1, 3))}];")
        else:
            members.append(f"{kind if kind in SCALARS else 'int'} {name};")
    text = ("enum color { RED = 0, GREEN = 1 };\n"
            "struct inner { int x; unsigned y; };\n"
            "struct s { " + " ".join(members) + " };\n")
    return text, lens


def value_of(stubs, shape, lens, words):
    """A stub value of ``shape`` whose scalar slots take consecutive
    ``words`` values (bool slots their parity), so a word at the wrong
    offset shows."""
    fields = {}
    for field in shape.fields:
        def scalar():
            word = next(words)
            return word % 2 if field.kind == "bool" else word
        if field.struct is not None:
            fields[field.name] = value_of(stubs, field.struct, {}, words)
        elif field.bound is not None:
            fields[field.name] = [scalar() for _ in range(lens[field.name])]
        elif field.size is not None:
            fields[field.name] = [scalar() for _ in range(field.size)]
        else:
            fields[field.name] = scalar()
    return getattr(stubs, shape.name)(**fields)


@settings(max_examples=60, deadline=None)
@given(case=struct_and_lens())
def test_layout_is_what_the_python_stub_encodes(case):
    text, lens = case
    interface = parse_idl(text)
    stubs = load_python(interface, "contract_stubs")
    contract = StubContract(interface)
    shape = contract.shapes["s"]
    assert contract.refused == {}
    value = value_of(stubs, shape, lens, iter(range(10**6)))
    stream = XdrMemStream(bytearray(1024), XdrOp.ENCODE)
    stubs.xdr_s(stream, value)
    data = stream.data()
    layout = shape.layout(lens)
    assert len(data) == 4 * len(layout)
    for index, word in enumerate(layout):
        on_wire = int.from_bytes(data[4 * index:4 * index + 4], "big")
        if isinstance(word, LenWord):
            assert (word.count, word.bound) == (lens[word.field], BOUND)
            assert on_wire == word.count
        else:
            assert on_wire == int(eval("v." + word.path, {"v": value}))
    assert shape.lens_of_words(len(layout)) == (
        lens if len(lens) < 2 else None)


RICH_IDL = """
const N = 8;
struct pt { int x; int y; };
struct q { int tag; int a<N>; pt p; int b<N>; };
struct r { int status; int vals<N>; };
struct s { string name<N>; };
program RICH {
    version V { r F(q) = 1; pt G(pt) = 2; s H(s) = 3; int K(int) = 4; } = 2;
} = 0x20004321;
"""
RICH_IMPL = ["void f_impl(struct q *args, struct r *res) { }",
             "void g_impl(struct pt *args, struct pt *res) { }"]


@pytest.mark.parametrize("idl, impls", [(WORKLOAD_IDL, [WORKLOAD_IMPL]),
                                        (RICH_IDL, RICH_IMPL)])
def test_signatures_are_the_generated_parameter_lists(idl, impls):
    gen = MiniCGenerator(parse_idl(idl))
    program = parse_program(gen.generate(impls))
    signatures = list(gen.contract.signatures())
    assert len(signatures) == 2 + 3 * sum(
        len(version.served) for version in gen.contract.versions)
    for sig in signatures:
        assert sig.names == [p.name for p in program.func(sig.name).params]


def test_verdicts_carry_the_reason():
    contract = StubContract(parse_idl(RICH_IDL))
    assert list(contract.shapes) == ["pt", "q", "r"]
    assert "StringT" in contract.refused["s"]
    verdicts = {proc.name: proc.refusal
                for proc in contract.versions[0].procs}
    assert verdicts["F"] is None and verdicts["G"] is None
    assert verdicts["H"] == contract.refused["s"]
    assert "need struct argument/result types" in verdicts["K"]
