"""CLI tests for repro-bench and repro-rpcgen."""

import pytest

from repro.bench.cli import main as bench_main
from repro.rpcgen.cli import main as rpcgen_main

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
    from repro.bench import cli

    seen = {}

    def soak(workload=None, calls=None, seed=None):
        seen.update(calls=calls, seed=seed)

    monkeypatch.setitem(cli.EXPERIMENTS, "chaos", ("stub soak", soak))
    assert bench_main(["chaos", "--calls", "7", "--seed", "0x10"]) == 0
    assert seen == {"calls": 7, "seed": 16}
    # the paper's tables have no call count to set
    with pytest.raises(SystemExit):
        bench_main(["table3", "--calls", "7"])
    # ... and a bench without fault dice takes no seed
    with pytest.raises(SystemExit):
        bench_main(["mux", "--seed", "1"])


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


def test_bench_live_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert bench_main(["live", "--sizes", "20"]) == 0
    out = capsys.readouterr().out
    assert "Live marshal" in out
    assert "round trip" in out
    assert (tmp_path / "BENCH_live.json").exists()


def test_live_run_emits_json(tmp_path):
    import json

    from repro.bench import live

    json_path = tmp_path / "live.json"
    results = live.run(sizes=(20,), repeats=2, number=30,
                       json_path=str(json_path))
    on_disk = json.loads(json_path.read_text())
    assert on_disk["marshal"]["20"]["speedup"] == pytest.approx(
        results["marshal"]["20"]["speedup"]
    )
    roundtrip = on_disk["roundtrip"]["20"]
    assert roundtrip["generic_us"] > 0
    assert roundtrip["fastpath_us"] > 0
    # Steady-state fast-path calls never allocate a buffer.
    assert roundtrip["fastpath_pool_allocations"] == 0
