"""CLI tests for repro-bench and repro-rpcgen."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench.cli import main as bench_main
from repro.rpcgen.cli import main as rpcgen_main

SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src"

SMALL_IDL = """
const N = 4;
struct msg { int vals<N>; };
program P { version V { msg F(msg) = 1; } = 1; } = 0x20007777;
"""


def test_bench_table3_small(capsys):
    assert bench_main(["table3", "--sizes", "20"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "specialized" in out


def test_bench_table1_small(capsys):
    assert bench_main(["table1", "--sizes", "20"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "paper" in out


def test_bench_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        bench_main(["tableX"])


def test_bench_sizing_options_reach_only_runners_that_take_them(monkeypatch):
    from repro.bench import chaos

    seen = {}

    def soak(workload=None, calls=None, seed=None):
        seen.update(calls=calls, seed=seed)

    monkeypatch.setattr(chaos, "run", soak)
    assert bench_main(["chaos", "--calls", "7", "--seed", "0x10"]) == 0
    assert seen == {"calls": 7, "seed": 16}
    # the paper's tables have no call count to set
    with pytest.raises(SystemExit):
        bench_main(["table3", "--calls", "7"])
    # ... and no fault dice to seed
    with pytest.raises(SystemExit):
        bench_main(["table1", "--seed", "1"])


@pytest.mark.parametrize("name", ["live", "mux", "online"])
def test_bench_pre_ledger_live_benches_are_gone(name):
    with pytest.raises(SystemExit):
        bench_main([name])


def test_bench_table_does_not_load_the_soaks():
    """The experiment table imports a runner only when it is chosen:
    a paper table never loads the soaks or the fleet under them."""
    code = (
        "import sys\n"
        "from repro.bench.cli import main\n"
        "assert main(['table3', '--sizes', '20']) == 0\n"
        "assert 'repro.bench.codesize' in sys.modules\n"
        "print([name for name in ('repro.bench.chaos',"
        " 'repro.bench.cluster', 'repro.bench.overload',"
        " 'repro.bench.soak', 'repro.rpc.fleet')"
        " if name in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_rpcgen_python_output(tmp_path, capsys):
    source = tmp_path / "iface.x"
    source.write_text(SMALL_IDL)
    out = tmp_path / "stubs.py"
    assert rpcgen_main([str(source), "--python", str(out)]) == 0
    text = out.read_text()
    assert "class msg" in text
    compile(text, str(out), "exec")


def test_rpcgen_minic_output(tmp_path):
    source = tmp_path / "iface.x"
    source.write_text(SMALL_IDL)
    out = tmp_path / "stubs.c"
    assert rpcgen_main([str(source), "--minic", str(out)]) == 0
    from repro.minic.parser import parse_program
    from repro.minic.typecheck import typecheck_program

    program = parse_program(out.read_text())
    typecheck_program(program)
    assert program.has_func("f_marshal")


def test_rpcgen_default_prints_python(tmp_path, capsys):
    source = tmp_path / "iface.x"
    source.write_text(SMALL_IDL)
    assert rpcgen_main([str(source)]) == 0
    assert "class msg" in capsys.readouterr().out
