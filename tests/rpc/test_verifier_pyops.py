"""What the residual verifier costs a build, in exact bytecodes.

Every offline build and every online promotion runs
``verify_client_spec`` and ``verify_server_residual`` before the
residual installs; at n=1000 they are most of a build.  This counts
the bytecodes both take at n=20 on a fresh pipeline (so the one-time
compile of the programs they interpret is in the count, as it is in a
cold build; only the process is warm: caches filled, bytecode
quickened) and pins them +5% on CPython 3.11 (skipped elsewhere).

The count is taken in a process of its own: what earlier tests leave
behind in the test process moved it by a few dozen bytecodes from one
run to the next.
"""

import gc
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.verify import verify_client_spec, verify_server_residual
from repro.bench.workloads import WORKLOAD_IDL, WORKLOAD_IMPL
from repro.specialized import SpecializationPipeline
from tests.rpc.test_lone_call import count_pyops

ROOT = pathlib.Path(__file__).resolve().parents[2]

N = 20

#: both verifier calls at n=20, counted on CPython 3.11: 3 266 564
#: since the residuals are straight-line (3 328 643 before, with the
#: generic element loop in every residual's off-profile branch; 8 955 245
#: with the node-by-node tree walker the compiled engine replaced); the
#: budget is that count plus 5%.
PYOPS_BUDGET = 3429892


def verify_pyops():
    pipeline = SpecializationPipeline(WORKLOAD_IDL,
                                      impl_sources=[WORKLOAD_IMPL],
                                      verify=False)
    lens = {"arg_lens": {"vals": N}, "res_lens": {"vals": N}}
    client = pipeline.specialize_client("SENDRECV", **lens)
    server = pipeline.specialize_server("SENDRECV", **lens)
    proc = pipeline.find_proc("SENDRECV")
    findings = []

    def verify():
        findings.extend(verify_client_spec(pipeline, client))
        findings.extend(verify_server_residual(
            pipeline, server.result, proc, lens["arg_lens"],
            lens["res_lens"], server.bufsize, module=server._module))

    gc.collect()  # no earlier garbage (or its weakref callbacks) inside
    count = count_pyops(verify)
    assert findings == []
    return count


def warm_counts():
    """Two counts, after three uncounted runs have warmed the process."""
    for _ in range(3):
        verify_pyops()
    return verify_pyops(), verify_pyops()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="exact bytecode counts compare within one"
                           " CPython minor version (counted on 3.11)")
def test_the_verifier_stays_inside_its_bytecode_budget():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    completed = subprocess.run(
        [sys.executable, "-m", "tests.rpc.test_verifier_pyops"], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    counts = {int(word) for word in completed.stdout.split()}
    assert len(counts) == 1, counts
    count, = counts
    assert count <= PYOPS_BUDGET, (
        f"verifying an n=20 client and server runs {count} bytecodes"
        f" > {PYOPS_BUDGET}: the MiniC engine gained per-node work")


if __name__ == "__main__":
    print(*warm_counts())
