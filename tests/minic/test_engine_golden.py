"""Golden work of the MiniC engine: identical traces and step counts.

The interpreter is the oracle of two measured things: the cost traces
the platform simulator replays for the paper's tables, and the
verifier's symbolic runs.  Changing *how* it evaluates a program must
not change *what* it does.  So this file pins, as recorded from the
node-by-node tree walker:

* the sha256 of every cost trace (kind, code address, data address,
  size per event) of :mod:`repro.bench.workloads`' generic and
  specialized marshal, server reply and round trip at n = 20 and 250;
* the total interpreter steps ``verify_client_spec`` and
  ``verify_server_residual`` take at n = 20 and 100.

Run this file as a script to print the current values.
"""

import hashlib
import struct

import pytest

from repro.analysis.verify import verify_client_spec, verify_server_residual
from repro.bench.workloads import WORKLOAD_IDL, WORKLOAD_IMPL, IntArrayWorkload
from repro.minic.interp import Interpreter
from repro.specialized import SpecializationPipeline

TRACE_DIGESTS = {
    20: {
        "generic.marshal": "fe4b5fbeaf0c02eeb9eca75ce0d3c611"
                           "b0963a08f10d0bb960f4d9e6eec8460f",
        "generic.server": "88d779f269b39cc5c6d36e86ddb71c15"
                          "b4ba17db7ddd6b4a1461d8c0b8bfc5e0",
        "generic.roundtrip": "ac8a0ab00dab13163ad06d6b6b78e4de"
                             "29f643d1ccc088f04432b25917db73e5",
        "spec.marshal": "8490a17f555d909f13301ca095a5cead"
                        "5f4265f9052c92ca23c0f057fb375bdd",
        "spec.server": "296edc19c5935eda69c60b85b43459dc"
                       "1c6bb1bcc001a9d2096dee318810f652",
        "spec.roundtrip": "04589a3943d631514d5d18970552119f"
                          "f5faa9f7f84c00dcdfa4adde235c9c42",
    },
    250: {
        "generic.marshal": "c1abc57a1eb91f4e618f4b4e416c82ce"
                           "4677b2580d1c0fe820bf305e0ac42b46",
        "generic.server": "ea4e318ebc77f6daef48fd77b5366d8e"
                          "fba0ead3f8e8191fc1b3438c3e600eb6",
        "generic.roundtrip": "fcaf3c64882fd41c3fb23d8ffc20a393"
                             "34e3316c11b1d06f7c86c3706a9200be",
        "spec.marshal": "4e9a9e6dc37e95ddf3cb5639de15d932"
                        "90ee8f8d069f3182bdc8d6c1e5c986e7",
        "spec.server": "7d882f678cf1b93bdf9ea6b92314ae83"
                       "bd6c670c86f7ec3010b214a9e20ba13a",
        "spec.roundtrip": "b183f863ce9fb6437a677b6f8bb16a00"
                          "32b3cc4be3d66bfe74d6302b2d69128f",
    },
}

#: total interpreter steps of one verifier call, over all of its runs
#: (re-taken when live stubs began to decline a length other than the
#: assumed one, and the dispatch probes gained a length word one short:
#: 16 165 / 16 578 and 55 925 / 53 378 before)
VERIFY_STEPS = {
    20: {"client": 13570, "server": 17172},
    100: {"client": 42690, "server": 52852},
}


def digest(trace):
    packer = struct.Struct(">BIII")
    sha = hashlib.sha256()
    for event in trace.events:
        sha.update(packer.pack(*event))
    return sha.hexdigest()


@pytest.fixture(scope="module")
def workload():
    return IntArrayWorkload()


def trace_digests(workload, n):
    """The marshal trace, and the server's and the client's traces of
    one round trip (the server's is the reply to the marshaled
    request), per mode."""
    out = {}
    for mode in ("generic", "spec"):
        specialized = mode == "spec"
        marshal = (workload.specialized_marshal_trace if specialized
                   else workload.generic_marshal_trace)(n)[2]
        client, server, _request, _reply = workload.roundtrip_traces(
            n, specialized)
        out[f"{mode}.marshal"] = digest(marshal)
        out[f"{mode}.server"] = digest(server)
        out[f"{mode}.roundtrip"] = digest(client)
    return out


@pytest.fixture(scope="module")
def pipeline():
    return SpecializationPipeline(WORKLOAD_IDL, impl_sources=[WORKLOAD_IMPL],
                                  verify=False)


class StepCounter:
    """Sums the steps of every :meth:`Interpreter.call` while active."""

    def __init__(self, monkeypatch):
        self.total = 0
        real = Interpreter.call

        def counted(interp, *args, **kwargs):
            try:
                return real(interp, *args, **kwargs)
            finally:
                self.total += interp._steps

        monkeypatch.setattr(Interpreter, "call", counted)


def verify_steps(pipeline, n, counter):
    lens = {"arg_lens": {"vals": n}, "res_lens": {"vals": n}}
    client = pipeline.specialize_client("SENDRECV", **lens)
    server = pipeline.specialize_server("SENDRECV", **lens)
    counter.total = 0
    assert verify_client_spec(pipeline, client) == []
    steps = {"client": counter.total}
    counter.total = 0
    assert verify_server_residual(
        pipeline, server.result, pipeline.find_proc("SENDRECV"),
        lens["arg_lens"], lens["res_lens"], server.bufsize,
        module=server._module) == []
    steps["server"] = counter.total
    return steps


@pytest.mark.parametrize("n", sorted(TRACE_DIGESTS))
def test_cost_traces_are_the_walkers(workload, n):
    assert trace_digests(workload, n) == TRACE_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(VERIFY_STEPS))
def test_verifier_steps_are_the_walkers(pipeline, monkeypatch, n):
    counter = StepCounter(monkeypatch)
    assert verify_steps(pipeline, n, counter) == VERIFY_STEPS[n]


if __name__ == "__main__":
    import pprint

    wl = IntArrayWorkload()
    pprint.pprint({n: trace_digests(wl, n) for n in sorted(TRACE_DIGESTS)})
    mp = pytest.MonkeyPatch()
    pipe = SpecializationPipeline(WORKLOAD_IDL, impl_sources=[WORKLOAD_IMPL],
                                  verify=False)
    step_counter = StepCounter(mp)
    pprint.pprint({n: verify_steps(pipe, n, step_counter)
                   for n in sorted(VERIFY_STEPS)})
    mp.undo()
