"""The benchmark's calls into the package still run and pass.

``bench/workloads.py`` calls gearlab functions by name and signature.
Running its in-process workloads here, on the warm-up input and the first
two inputs of round 0 of seed 1 (every input for zeta-digraphs, whose
seeded 14-42 vertex gear pairs come after the fixtures, and for
walk-exact, two of whose three mixed-attachment slots come after the
first two), makes a change that breaks one of those calls fail the test
suite instead of a benchmark run.  The cli workload runs every command
of round 0 of seed 1 as a subprocess, so a change to argument or file
parsing that breaks it fails here too.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
WORKLOADS_PY = ROOT / "bench" / "workloads.py"
TRACER_PY = WORKLOADS_PY.with_name("tracer.py")
# inputs of round 0 to run, None for all of them
ROUND_INPUTS = {"quantum-pairs": 2, "walk-exact": None, "zeta-digraphs": None}


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("bench_workloads", WORKLOADS_PY)


@pytest.mark.parametrize("name", sorted(ROUND_INPUTS))
def test_benchmark_verdicts_pass(workloads, name):
    workload = workloads.WORKLOADS[name]
    ctx = {}
    inputs = [workloads.warmup_input(name), *workload.make_round(1, 0, ctx)[:ROUND_INPUTS[name]]]
    for inp in inputs:
        assert workload.run(inp, ctx) == [], workload.describe(inp)


def test_cli_workload_round_passes(workloads, tmp_path):
    workload = workloads.WORKLOADS["cli"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    ctx = {"tmp": tmp_path, "env": env, "reference": {}}
    for inp in workload.make_round(1, 0, ctx):
        assert workload.check(inp, ctx, workload.run(inp, ctx)) == [], workload.describe(inp)


def test_tracer_counts_polynomial_products():
    """The tracer patches SparsePolynomial.__mul__/__rmul__ in the class dict
    and restores them; polynomials.mul.calls must stay live."""
    from gearlab.polynomials import SparsePolynomial
    from gearlab.zeta import verify_intertwiner
    original = SparsePolynomial.__dict__["__mul__"]
    tracer = load("bench_tracer", TRACER_PY).Tracer()
    tracer.install()
    try:
        assert verify_intertwiner()["ok"]
        x = SparsePolynomial.variable("x")
        assert 2 * x == x * 2
    finally:
        tracer.uninstall()
    assert SparsePolynomial.__dict__["__mul__"] is original
    assert SparsePolynomial.__dict__["__rmul__"] is original
    calls, _ = tracer.by_name()["polynomials.mul"]
    assert calls > 100


@pytest.mark.parametrize("name", sorted([*ROUND_INPUTS, "cli"]))
def test_setup_probe_runs_in_a_fresh_interpreter(name):
    """The path that the benchmark's setup_s times: imports, round 0 and
    the warm-up, without the modules that earlier tests imported."""
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                           "--seed", "1", "--setup-probe"],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
