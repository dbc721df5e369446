#!/usr/bin/env python3
"""Run every quantum-pairs candidate and report the scan's failures.

    python3 bench/catalogue.py

``scan_spectrum`` misses members of close eigenvalue clusters at its
default grid (ROADMAP item 2), so some seeded gears fail their
quantum-pairs verdict.  This script runs the verdict on all
``QUANTUM_CANDIDATES`` numbered candidates of every slot class in
``workloads.QUANTUM_SLOTS``, lists each failing candidate with its first
failed checks, prints the failure ratio per class and overall, and
prints the ``QUANTUM_FAILING`` table of the failing candidate numbers.
A timed run draws its inputs only from the other candidates.  Exits 1
when the printed table differs from the one in ``workloads.py``.  Writes
``bench/out/catalogue.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def main():
    count = workloads.QUANTUM_CANDIDATES
    classes = list(dict.fromkeys(workloads.QUANTUM_SLOTS))
    table, failing = {}, []
    for cls in classes:
        t0 = time.perf_counter()
        table[cls] = []
        for i in range(count):
            inp = workloads.quantum_candidate(*cls, i)
            fails = workloads.quantum_verdict(inp, {})
            if fails:
                failing.append({"class": cls, "candidate": i,
                                "input": workloads.quantum_describe(inp), "fails": fails})
                table[cls].append(i)
                print(f"# FAIL {cls} #{i} {workloads.quantum_describe(inp)}: "
                      f"{'; '.join(fails[:2])[:300]}", flush=True)
        print(f"{cls}: {len(table[cls])} of {count} failed "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    total = count * len(classes)
    print(f"verdict_fail_ratio {len(failing) / total:.6g} ratio "
          f"({len(failing)} of {total} candidates)")
    print("QUANTUM_FAILING = {")
    for cls, ids in table.items():
        print(f"    {cls!r}: {tuple(ids)!r},".replace("'", '"'))
    print("}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "catalogue.json").write_text(json.dumps(
        {"candidates": total, "fail_ratio": len(failing) / total, "failing": failing},
        indent=1, default=str) + "\n", encoding="utf-8")
    same = {k: tuple(v) for k, v in table.items()} == workloads.QUANTUM_FAILING
    print("matches workloads.QUANTUM_FAILING" if same
          else "differs from workloads.QUANTUM_FAILING")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
