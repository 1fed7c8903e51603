"""Self-test of the benchmark at tiny sizes, so the harness cannot rot.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload for a few ops, untraced and traced, through the same
entry point the full benchmark uses, and checks the result line against
BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, run_py=RUN):
    return subprocess.run([sys.executable, str(run_py), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0.3",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    digests = [run("--workload", workload, "--seed", str(seed), "--tiny",
                   "--setup-only").stdout.strip() for seed in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]


def test_refuses_without_sources():
    bare = HERE / "out" / "bare-checkout"    # only BENCHMARK.json and perfbench/
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare, run_py=bare / HERE.name / RUN.name)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from curveinv import diagram, invariants
    from tracer import Tracer

    before = (diagram.index_function, invariants.index_function,
              invariants.full_report, diagram.canonicalize)
    tracer = Tracer()
    tracer.install()
    assert invariants.index_function is diagram.index_function is not before[0]
    tracer.enabled = True
    sid = tracer.op_span(0)
    invariants.full_report(diagram.parse_diagram("curve 1+ 1+\nbase 0\n"))
    tracer.close_op(sid)
    tracer.enabled = False
    tracer.uninstall()
    assert (diagram.index_function, invariants.index_function,
            invariants.full_report, diagram.canonicalize) == before
    totals = tracer.layer_totals()
    assert totals["invariants.full_report"][0] == 1
    assert totals["diagram.index_function"][0] == 1
    calls, self_ns, incl_ns = totals["op"]
    assert calls == 1 and 0 <= self_ns <= incl_ns
