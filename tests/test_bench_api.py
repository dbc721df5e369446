"""The benchmark's calls into the package still run and pass.

``bench/workloads.py`` calls gearlab functions by name and signature.
Running its in-process workloads here, on the warm-up input and the first
two inputs of round 0 of seed 1 (every input for zeta-digraphs, whose
seeded 14-42 vertex gear pairs come after the fixtures), makes a change
that breaks one of those calls fail the test suite instead of a
benchmark run.
"""

import importlib.util
import pathlib

import pytest

WORKLOADS_PY = pathlib.Path(__file__).parents[1] / "bench" / "workloads.py"
# inputs of round 0 to run, None for all of them
ROUND_INPUTS = {"quantum-pairs": 2, "walk-exact": 2, "zeta-digraphs": None}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(ROUND_INPUTS))
def test_benchmark_verdicts_pass(workloads, name):
    workload = workloads.WORKLOADS[name]
    ctx = {}
    inputs = [workloads.warmup_input(name), *workload.make_round(1, 0, ctx)[:ROUND_INPUTS[name]]]
    for inp in inputs:
        assert workload.run(inp, ctx) == [], workload.describe(inp)
