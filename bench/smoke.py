#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs one verdict per workload in both modes and checks the result line:
exactly the keys ``correct``, ``attempted``, ``failed``, ``metrics``, and
metric names and units exactly as ``BENCHMARK.json`` lists them.  Then
runs the benchmark in a copy that holds only ``BENCHMARK.json`` and the
benchmark's own files, where it must exit non-zero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

KEYS = {"correct", "attempted", "failed", "metrics"}


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_run(problems, spec, workload, trace, cwd):
    argv = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--verdicts", "1"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, check=False)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    res = result_line(proc.stdout)
    if not isinstance(res, dict) or set(res) != KEYS:
        problems.append(f"{where}: last line is not a result object")
        return
    want = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} or units differ")
    if any(not isinstance(v.get("value"), (int, float)) for v in res["metrics"].values()):
        problems.append(f"{where}: a metric value is not a number")
    if res["attempted"] != 1:
        problems.append(f"{where}: attempted {res['attempted']}, expected 1")
    print(f"{where}: correct={res['correct']} failed={res['failed']} "
          f"metrics={len(got)}", flush=True)


def check_without_program(problems, spec):
    """In a copy without src/ the benchmark must fail and print no result."""
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for rel in spec["paths"]:
            shutil.copytree(run.ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        argv = [*spec["command"], "--workload", spec["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True,
                              check=False, timeout=180)
        if proc.returncode == 0 or result_line(proc.stdout) is not None:
            problems.append("without the program: the benchmark did not fail cleanly")
        print(f"without the program: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            check_run(problems, spec, wl["name"], trace, run.ROOT)
    check_without_program(problems, spec)
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
