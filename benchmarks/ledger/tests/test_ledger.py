"""Self-tests of the performance ledger's harness.

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q

They drive ``run.py --quick`` (seconds of work per workload) and check
the harness, not the program's speed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
RUN_PY = os.path.join(LEDGER, "run.py")
sys.path.insert(0, os.path.dirname(LEDGER))

from ledger import compare, probe, tiers  # noqa: E402
from ledger import workloads as wl  # noqa: E402


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, RUN_PY, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """All five workloads, both passes, in quick mode — once."""
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    done = _run("--quick", "--seconds", "0.5", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as handle:
        return json.load(handle)["runs"], done.stdout


def test_names_equal_the_contract(quick_runs):
    runs, stdout = quick_runs
    contract = _contract()
    assert [w.name for w in wl.WORKLOADS] == [
        w["name"] for w in contract["workloads"]]
    assert {r["workload"] for r in runs} == set(wl.BY_NAME)
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        declared = {m["name"]: m["unit"] for m in contract[kind]}
        for run in runs:
            if run["trace"] == trace:
                assert set(run["metrics"]) == set(declared), run["workload"]
        # printed by name with the declared unit
        for name, unit in declared.items():
            assert any(line.startswith(f"metric {name} ")
                       and line.endswith(" " + unit)
                       for line in stdout.splitlines()), name


def test_every_run_is_correct_and_carries_its_host(quick_runs):
    runs, _ = quick_runs
    for run in runs:
        assert run["correct"] and run["failed"] == 0, run["workload"]
        assert all(run["checks"].values()), run["checks"]
        meta = run["meta"]
        for key in ("python", "nproc", "pinned_cpu", "git_commit", "seed"):
            assert key in meta
        assert meta["pinned_cpu"] == min(os.sched_getaffinity(0))


def test_exact_counts_do_not_depend_on_the_seed(quick_runs):
    runs, _ = quick_runs
    first = next(r for r in runs
                 if r["workload"] == "rtt_small" and r["trace"] == 1)
    done = _run("--workload", "rtt_small", "--quick", "--seed", "7",
                "--seconds", "0.3", "--trace", "1")
    assert done.returncode == 0, done.stderr[-2000:]
    again = json.loads(done.stdout.splitlines()[-1])["metrics"]
    exact = [name for name in again
             if "_pyops" in name or "residual_source_bytes" in name]
    assert len(exact) == 11
    for name in exact:
        assert again[name]["value"] == first["metrics"][name], name


def test_sequence_is_a_function_of_the_seed():
    for workload in wl.WORKLOADS:
        assert (wl.sequence_hash(workload, 3)
                == wl.sequence_hash(workload, 3))
        assert (wl.sequence_hash(workload, 3)
                != wl.sequence_hash(workload, 4))


def test_size_shift_mixes_hot_sizes_with_a_tail():
    plan = wl.CallPlan(wl.BY_NAME["size_shift"], 5)
    first, second, third = (
        [n for n, _variant in plan.take(count * wl.PHASE_CALLS)]
        for count in (2, 1, 1))
    assert 0.9 < first.count(64) / len(first) < 0.99
    assert 0.9 < second.count(16) / len(second) < 0.99
    assert abs(third.count(64) - third.count(16)) < 0.1 * len(third)
    assert len(set(first)) > 50  # the uniform tail
    # one size holds the median of a whole cycle
    cycle = first + second + third
    assert cycle.count(64) > 0.55 * len(cycle)


def test_pyops_repeat_exactly():
    def chain():
        return sorted(str(i) for i in range(50))

    assert probe.count_pyops(chain) == probe.count_pyops(chain) > 100


def test_spans_nest_inside_their_parents(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    done = _run("--workload", "size_shift", "--quick", "--seconds", "0.3",
                "--trace", "1", "--spans", str(spans_path))
    assert done.returncode == 0, done.stderr[-2000:]
    with open(spans_path) as handle:
        spans = [json.loads(line) for line in handle]
    names = {s["name"] for s in spans}
    assert {"call", "client.encode", "server.dispatch",
            "client.decode"} <= names
    log = probe.SpanLog()
    log.spans = [[s["name"], s["tier"], s["start"], s["end"], s["parent"],
                  s["call"]] for s in spans]
    children = 0
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            assert parent["call"] == span["call"]
            children += 1
    assert children >= 3 * 60
    assert min(log.self_times()) >= 0.0


def test_a_corrupted_reply_fails_the_run():
    done = _run("--workload", "rtt_small", "--quick", "--seconds", "0.3",
                "--trace", "0", "--corrupt")
    assert done.returncode != 0
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is False
    # every spec-tier reply was wrong; the generic tier's were not
    assert last["failed"] * 2 == last["attempted"]


def test_background_cpu_in_the_program_is_not_scaled_away(quick_runs):
    """A thread computing in the background of both processes stretches
    the reference's round trips as it does the tiers'.  Those readings
    must be discarded, not used: used, they cancel the slowdown (and
    the scaled p50 comes out *below* the clean run's)."""
    runs, _ = quick_runs
    clean = next(r for r in runs
                 if r["workload"] == "rtt_small" and r["trace"] == 0)
    done = _run("--workload", "rtt_small", "--quick", "--seconds", "0.1",
                "--trace", "0", "--burn")
    assert done.returncode == 0, done.stderr[-2000:]
    burnt = json.loads(done.stdout.splitlines()[-1])["metrics"]
    for tier in ("generic", "spec"):
        assert (burnt[tier + "_p50_us"]["value"]
                > 2 * clean["metrics"][tier + "_p50_us"]), tier
        assert (burnt[tier + "_calls_per_s"]["value"]
                < 0.5 * clean["metrics"][tier + "_calls_per_s"]), tier


def test_no_result_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's own
    files: non-zero exit, nothing that looks like a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "ledger" / "run.py"),
         "--workload", "rtt_small", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_environment_is_scrubbed():
    environ = {"REPRO_OBS": "1", "REPRO_SPEC_VERIFY": "off", "HOME": "/x"}
    assert tiers.scrub_env(environ) == ["REPRO_OBS", "REPRO_SPEC_VERIFY"]
    assert environ == {"HOME": "/x"}


@pytest.mark.parametrize("base,new,better,bound,want", [
    ([100, 102, 101], [80, 82, 81], "lower", 0.10, "better"),
    ([100, 102, 101], [130, 131, 129], "lower", 0.10, "worse"),
    ([100, 102, 101], [104, 105, 103], "lower", 0.10, "same"),
    ([100, 140, 101], [120, 135, 90], "lower", 0.10, "unresolved"),
    ([100, 101, 102], [80, 81, 82], "higher", 0.12, "worse"),
    ([100, 101, 102], [120, 121, 122], "higher", 0.12, "better"),
])
def test_compare_verdicts(base, new, better, bound, want):
    assert compare.verdict(base, new, better, bound)[1] == want


def test_compare_exits_nonzero_on_a_regression(tmp_path):
    def ledger_file(name, p50):
        path = tmp_path / name
        runs = [{"workload": "rtt_small", "trace": 0,
                 "metrics": {"spec_p50_us": p50 + i}} for i in range(3)]
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    base, slow = ledger_file("a.json", 100.0), ledger_file("b.json", 150.0)
    assert _run("compare", base, base).returncode == 0
    # the committed baseline (medians, no runs list) serves as a base
    committed = os.path.join(LEDGER, "baseline.json")
    done = _run("compare", committed, committed)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "| rtt_large | setup_s |" in done.stdout
    done = _run("compare", base, slow)
    assert done.returncode == 1
    assert "| rtt_small | spec_p50_us |" in done.stdout
    assert "worse" in done.stdout
