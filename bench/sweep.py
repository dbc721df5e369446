#!/usr/bin/env python3
"""Scaling sweep (report only, no bound is checked on it).

    python3 bench/sweep.py [--max-n 8]

Takes the gears with lengths 1..n for n = 3..max-n through the calls of
the ``walk-exact`` verdict (w = 3/2) and of the ``quantum-pairs`` verdict
(w = 3/2), traced, and prints each layer's self time against size with
the fitted log-log exponent.  Walk sizes are subdivision vertex counts
n(n+1); quantum sizes are edge counts 2n.  Writes ``bench/out/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

import run


def fit_exponent(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def sweep_route(verdict, make_input, size_of, ns):
    from tracer import Tracer
    rows = []
    for n in ns:
        inp = make_input(n)
        t0 = time.perf_counter()
        fails = verdict(inp, {})
        untraced = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.verdict(0):
                verdict(inp, {})
        finally:
            tracer.uninstall()
        layers = {name: own for name, (calls, own) in tracer.by_name().items() if calls}
        rows.append({"n": n, "size": size_of(n), "verdict_s": untraced,
                     "failed": bool(fails), "layers": layers})
        print(f"  n={n} size={size_of(n)} verdict {untraced:.3f} s"
              + (" (failed)" if fails else ""), flush=True)
    return rows


def summarize(title, rows):
    sizes = [r["size"] for r in rows]
    names = sorted({k for r in rows for k in r["layers"]},
                   key=lambda k: -rows[-1]["layers"].get(k, 0.0))
    print(f"\n{title}: self time (s) per layer against size")
    print(f"{'layer':38s}" + "".join(f"{s:>10d}" for s in sizes) + "   exponent")
    exponents = {}
    for name in ["verdict"] + names:
        vals = ([r["verdict_s"] for r in rows] if name == "verdict"
                else [r["layers"].get(name, 0.0) for r in rows])
        if all(v > 0 for v in vals):
            exponents[name] = fit_exponent(sizes, vals)
        exp = f"{exponents[name]:8.2f}" if name in exponents else "     n/a"
        print(f"{name:38s}" + "".join(f"{v:10.4f}" for v in vals) + "   " + exp)
    return exponents


def main(argv=None):
    p = argparse.ArgumentParser(description="scaling sweep of the walk and quantum routes")
    p.add_argument("--max-n", type=int, default=8)
    args = p.parse_args(argv)
    if not (run.SRC / "gearlab" / "__init__.py").is_file():
        return run.fail(f"no gearlab sources at {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    import workloads
    from gearlab.graphs import GearSpec

    ns = range(3, args.max_n + 1)

    def gear(n):
        return GearSpec(n, tuple(range(1, n + 1)))

    print("walk-exact calls, w=3/2")
    walk = sweep_route(workloads.walk_verdict,
                       lambda n: {"spec": gear(n), "w": Fraction(3, 2)},
                       lambda n: n * (n + 1), ns)
    print("quantum-pairs calls, w=3/2")
    quantum = sweep_route(workloads.quantum_verdict,
                          lambda n: {"spec": gear(n), "w": 1.5}, lambda n: 2 * n, ns)
    result = {"walk-exact": {"rows": walk, "exponents": summarize("walk-exact", walk)},
              "quantum-pairs": {"rows": quantum,
                                "exponents": summarize("quantum-pairs", quantum)}}
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "sweep.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"\n# record {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
