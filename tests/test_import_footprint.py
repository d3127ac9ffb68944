"""Import tripwire: what a process that serves specialized RPC loads.

The performance ledger's ``peak_rss_mb`` is the sum of two processes
that each import — and, with no bytecode cache, compile — every module
they load: about 0.12 MiB per 100 source lines, against a bound of
~3 MiB.  Changes that moved it were found only by a rejected ledger
run — ``import typing`` in a hot module read +1.3 MiB, 1 200 lines
loaded for nothing +1.5 MiB.  This pins, where tier-1 sees it, which
of the package's modules such a process loads and what they import
from outside it.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: what a ledger process does, in one: the package-root imports of
#: ``benchmarks/ledger`` and a verified build of each side
SCRIPT = r'''
import ast, json, sys
from repro import obs
from repro.rpc import (MuxTcpClient, MuxTcpServer, MuxUdpClient,
                       MuxUdpServer, SvcRegistry, TcpClient, TcpServer,
                       UdpClient, UdpServer)
from repro.rpc.client import RpcClient
from repro.specialized import OnlineSpecializer, SpecializationPipeline

IDL = """
const MAXN = 64;
struct intarr { int vals<MAXN>; };
program XFER_PROG {
    version XFER_VERS { intarr SENDRECV(intarr) = 1; } = 1;
} = 0x20005555;
"""
IMPL = """
void sendrecv_impl(struct intarr *args, struct intarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i] + 1;
}
"""
pipeline = SpecializationPipeline(IDL, impl_sources=[IMPL])
assert pipeline.verify_enabled()
lens = {"arg_lens": {"vals": 8}, "res_lens": {"vals": 8}}
client = pipeline.specialize_client("SENDRECV", **lens)
server = pipeline.specialize_server("SENDRECV", fallback=SvcRegistry(),
                                    **lens)
assert server.residual_reply(client.build_request(1, {"vals": [0] * 8}))
loaded = sorted(name for name in sys.modules if name.startswith("repro"))


def module_level_imports(tree):
    """Top-level names imported when the module itself is executed."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return {name.split(".")[0] for name in names}


outside = set()
for name in loaded:
    with open(sys.modules[name].__file__) as handle:
        outside |= module_level_imports(ast.parse(handle.read()))
print(json.dumps({"loaded": loaded, "outside": sorted(outside - {"repro"})}))
'''

#: loaded by nothing on the serving path: the fleet layer and portmapper
#: (package-root re-exports, resolved on first use), the paper benches
#: and the platform simulator
NOT_LOADED = {"repro.rpc.fleet", "repro.rpc.pmap", "repro.bench",
              "repro.simulator"}

#: every module outside the package that the loaded ones import when
#: they are executed.  A new name here is a cost in both processes of
#: every deployment: measure ``peak_rss_mb`` before adding it.
#: (``weakref``, for the interpreter's cache of compiled code, costs
#: nothing: a plain ``python`` start-up has loaded it already.)
OUTSIDE = {
    "bisect", "collections", "copy", "dataclasses", "enum", "functools", "hashlib",
    "importlib", "io", "itertools", "json", "keyword", "logging", "math",
    "operator", "os", "pickle", "queue", "random", "re", "select",
    "selectors", "socket", "struct", "sys", "threading", "time", "types",
    "weakref", "zlib",
}


def footprint():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_SPEC_VERIFY", None)
    env.pop("REPRO_SPEC_CACHE_DIR", None)
    completed = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                               capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_serving_process_loads_no_more_than_it_runs():
    report = footprint()
    loaded = set(report["loaded"])
    assert "repro.specialized.pipeline" in loaded
    assert "repro.analysis.verify" in loaded  # the gate ran
    stray = {name for name in loaded
             if any(name == root or name.startswith(root + ".")
                    for root in NOT_LOADED)}
    assert not stray, f"loaded on the serving path: {sorted(stray)}"
    extra = set(report["outside"]) - OUTSIDE
    assert not extra, (
        f"new imports from outside the package: {sorted(extra)} — both"
        " ledger processes pay for them (see the module docstring)")


#: a process that only serves: the four server names and the registry
SERVER_ONLY = r'''
import json, sys
from repro.rpc import (MuxTcpServer, MuxUdpServer, SvcRegistry, TcpServer,
                       UdpServer)
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("repro"))))
'''


def test_a_server_loads_no_client_engine():
    """The framing both sides must know lives in ``repro.rpc.record``,
    so serving pulls in neither the client engine nor its transports
    (1 300 lines a server never runs)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", SERVER_ONLY], env=env,
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    loaded = set(json.loads(completed.stdout.splitlines()[-1]))
    assert "repro.rpc.svc_core" in loaded
    stray = loaded & {"repro.rpc.mux", "repro.rpc.clnt_core",
                      "repro.rpc.clnt_udp", "repro.rpc.clnt_tcp"}
    assert not stray, f"loaded by a server-only process: {sorted(stray)}"
