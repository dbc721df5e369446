#!/usr/bin/env python3
"""gearlab benchmark: time verdicts of the three isospectrality routes and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A verdict takes one gear or digraph pair through one route and checks it
against its known answer (see ``workloads.py``).  One client runs the
verdicts as a closed loop in this process; the ``cli`` workload runs one
``gearlab`` subprocess at a time.  Run from the repository root: the
program is imported from ``src/``.

``--trace 0`` runs whole rounds of inputs until ``--seconds`` have passed
and at least MIN_ROUNDS rounds are done, and reports the end-to-end
metrics, with times scaled to a reference host speed (see CAL_REF_S).
``--trace 1`` runs each input of a fixed number of rounds untraced and
then with every gearlab function wrapped by ``tracer.Tracer``, and
reports per-layer self time and call counts per verdict, so that counts
repeat exactly for a seed.  Every metric is printed as ``name value unit``;
the last line is one JSON object for machines, and the full record
(environment, samples, failing inputs, layer shares) is written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A timed run does whole rounds until --seconds have passed and at least
# MIN_ROUNDS rounds are done.  Every floor gives at least 27 verdicts, so
# p60 has ten samples beyond it.
#
# The speed of a shared host drifts by up to 1.6x over seconds to minutes
# as other tenants load it, and a fixed piece of interpreter work slows by
# the same factor.  So every timing is scaled by CAL_REF_S / calibrate(),
# measured around it on the same thread: the metrics are seconds at the
# speed the calibration loop has on the reference host (2 vCPUs, Python
# 3.11) when it is not loaded.  The raw seconds are kept in the record.
CAL_REF_S = 1.6e-3
MIN_ROUNDS = {"quantum-pairs": 4, "walk-exact": 4, "zeta-digraphs": 3, "cli": 6}
TAIL_PERCENTILE = 60
MAX_LOOP_S = 120       # no new round after this, so a slow program still ends in time
TRACE_ROUNDS = 1
SETUP_PROBES = 7
IMPORT_PROBES = 5

END_TO_END = {          # name -> unit
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "verdicts_per_s": "1/s",
    "cpu_s_per_verdict": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _self(*names):
    return ("self", names)


def _calls(*names):
    return ("calls", names)


# per-layer metric -> (unit, definition); values are per traced verdict,
# except the two ratios, and times are not scaled (they have no bound)
PER_LAYER = {
    "graphs.build.s": ("s", ("module_self", "graphs")),
    "spectral.secular_matrix.s": ("s", _self("spectral.secular_matrix")),
    "spectral.rank_indicator.s": ("s", _self("spectral.rank_indicator")),
    "spectral.rank_indicator.calls": ("count", _calls("spectral.rank_indicator")),
    "spectral.scan.evals_per_eigenvalue": ("ratio", ("evals_per_eigenvalue",)),
    "spectral.scan_spectrum.s": ("s", _self("spectral.scan_spectrum")),
    "spectral.eigenfunction_basis.s": ("s", _self("spectral.eigenfunction_basis")),
    "spectral.compare.s": ("s", _self("spectral.compare_first", "spectral.compare_spectra")),
    "transplant.transplant.s": ("s", _self("transplant.transplant")),
    "transplant.residual_checks_per_transplant": ("ratio", ("residual_checks",)),
    "transplant.check_isometry.s": ("s", _self("transplant.check_isometry")),
    "transplant.inverse_transplant.s": ("s", _self("transplant.inverse_transplant")),
    "markov.markov_spectrum.s": ("s", _self("markov.markov_spectrum")),
    "linalg.jacobi_eigh.s": ("s", _self("linalg.jacobi_eigh")),
    "markov.crosscheck_quantum.s": ("s", _self("markov.crosscheck_quantum")),
    "markov.characteristic_polynomial_exact.s":
        ("s", _self("markov.characteristic_polynomial_exact")),
    "markov.build_conjugator.s": ("s", _self("markov.build_conjugator")),
    "markov.combinatorial_transplant.calls": ("count", _calls("markov.combinatorial_transplant")),
    "markov.conjugation_residual.s": ("s", _self("markov.conjugation_residual")),
    "linalg.bareiss_det.calls": ("count", _calls("linalg.bareiss_det")),
    "linalg.bareiss_det.s": ("s", _self("linalg.bareiss_det")),
    "linalg.lagrange_interpolate.s": ("s", _self("linalg.lagrange_interpolate")),
    "zeta.eval_det.calls": ("count", _calls("zeta.eval_det")),
    "zeta.eval_det.s": ("s", _self("zeta.eval_det")),
    "zeta.zeta_equivalent.s": ("s", _self("zeta.zeta_equivalent")),
    "zeta.char_poly_symbolic.s": ("s", _self("zeta.char_poly_symbolic")),
    "zeta.verify_intertwiner.s": ("s", _self("zeta.verify_intertwiner")),
    "zeta.digraph_isomorphic.s": ("s", _self("zeta.digraph_isomorphic")),
    "polynomials.det_symbolic.calls": ("count", _calls("polynomials.det_symbolic")),
    "polynomials.det_symbolic.s": ("s", _self("polynomials.det_symbolic")),
    "polynomials.mul.calls": ("count", _calls("polynomials.mul")),
    "polynomials.mul.s": ("s", _self("polynomials.mul")),
    "io.s": ("s", ("module_self", "io")),
    "cli.main.s": ("s", ("module_self", "cli")),
    "cli.import_s": ("s", ("import_probe",)),
    "trace.overhead_s": ("s", ("overhead",)),
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--verdicts", type=int, default=None,
                   help="stop after this many verdicts (smoke test)")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, make the first round's inputs and warm up")
    return p.parse_args(argv)


def percentile(values, pct):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cpu_seconds():
    """CPU time of this process (all threads) plus its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def environment(args):
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "gearlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Session:
    """Inputs, scratch files and the subprocess environment of one run."""

    def __init__(self, name, seed, workload):
        self.name, self.seed, self.wl = name, seed, workload
        OUT.mkdir(exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.ctx = {"tmp": Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)),
                    "env": env, "reference": {}}

    def close(self):
        shutil.rmtree(self.ctx["tmp"], ignore_errors=True)

    def round(self, r):
        return self.wl.make_round(self.seed, r, self.ctx)

    def warm_up(self):
        import workloads
        inp = workloads.warmup_input(self.name)
        if self.name == "cli":
            inp["out"] = self.ctx["tmp"] / "warmup.out"
            workloads.cli_in_process([*inp["argv"], "-o", str(inp["out"])])
        else:
            self.wl.run(inp, self.ctx)

    def verdict(self, inp, run=None):
        """(wall s, cpu s, failures) of one verdict; only ``run`` is timed."""
        run = run or self.wl.run
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        state = run(inp, self.ctx)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        fails = self.wl.check(inp, self.ctx, state) if run is self.wl.run and self.wl.check \
            else state
        return wall, cpu, fails


def calibrate():
    """Seconds taken by a fixed piece of interpreter work (ints and a dict)."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(15000):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - t0


class Scaler:
    """Scale factors CAL_REF_S / calibration for timings taken between calls.

    ``factor()`` calibrates once more and returns the factor for the span
    since the previous call, from the faster of the two calibrations that
    bracket it (a burst during one calibration then does not count).
    """

    def __init__(self):
        self.last = calibrate()

    def factor(self):
        now = calibrate()
        out = CAL_REF_S / min(self.last, now)
        self.last = now
        return out


def probe_seconds(argv, env, count, scaler=None):
    """Median wall time of ``count`` fresh interpreter runs of ``argv``.

    With a ``scaler`` each time is scaled to the reference speed.
    """
    times = []
    for _ in range(count):
        if scaler:
            scaler.factor()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        times.append(time.perf_counter() - t0)
        if scaler:
            times[-1] *= scaler.factor()
        if proc.returncode != 0:
            raise RuntimeError(f"probe {argv[1:]} failed: {proc.stderr.strip()[-300:]}")
    return statistics.median(times), times


def timed_run(session, args):
    scaler = Scaler()
    setup_s, setup_samples = probe_seconds(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"], session.ctx["env"], SETUP_PROBES,
        scaler)
    session.warm_up()
    samples = []
    begin = time.perf_counter()
    rounds = 0
    done = False
    while not done:
        for inp in session.round(rounds):
            scaler.factor()
            wall, cpu, fails = session.verdict(inp)
            scale = scaler.factor()
            samples.append({"round": rounds, "input": session.wl.describe(inp),
                            "wall_s": wall * scale, "cpu_s": cpu * scale,
                            "raw_wall_s": wall, "raw_cpu_s": cpu, "fails": fails})
            if args.verdicts and len(samples) >= args.verdicts:
                done = True
                break
        rounds += 1
        spent = time.perf_counter() - begin
        if spent >= MAX_LOOP_S or (spent >= args.seconds
                                   and rounds >= MIN_ROUNDS[args.workload]):
            done = True
    elapsed = time.perf_counter() - begin
    walls = [s["wall_s"] for s in samples]
    n = len(samples)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "verdict_s_p50": percentile(walls, 50),
        "verdict_s_tail": percentile(walls, TAIL_PERCENTILE),
        "verdicts_per_s": n / sum(walls),
        "cpu_s_per_verdict": sum(s["cpu_s"] for s in samples) / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    beyond = sum(w > metrics["verdict_s_tail"] for w in walls)
    unscaled = percentile([s["raw_wall_s"] for s in samples], 50)
    info = {
        "samples": n, "rounds": rounds, "loop_s": elapsed,
        "tail": {"percentile": TAIL_PERCENTILE, "samples_beyond": beyond},
        "setup_samples_s": setup_samples,
        "scale_factors": [s["wall_s"] / s["raw_wall_s"] for s in samples],
        "peak_rss_of": "gearlab subprocesses" if args.workload == "cli" else "this process",
    }
    notes = {"verdict_s_p50": f"unscaled {unscaled:.4g} s",
             "verdict_s_tail": f"p{TAIL_PERCENTILE}, {beyond} of {n} samples beyond",
             "setup_s": f"median of {SETUP_PROBES} fresh interpreters"}
    return metrics, notes, samples, info


def traced_run(session, args):
    from tracer import Tracer
    inputs = [inp for r in range(TRACE_ROUNDS) for inp in session.round(r)]
    if args.verdicts:
        inputs = inputs[:args.verdicts]
    session.warm_up()
    run = session.wl.traced_run
    tracer = Tracer()
    observers = {"spectral.scan_spectrum": lambda spectrum: spectrum.count()}
    untraced, traced = [], []
    for i, inp in enumerate(inputs):
        # each input untraced, then traced: the difference is the overhead
        untraced.append(session.verdict(inp, run))
        tracer.install(observers)
        try:
            with tracer.verdict(i):
                traced.append(session.verdict(inp, run))
        finally:
            tracer.uninstall()
    samples = [{"input": session.wl.describe(inp), "untraced_s": u[0], "traced_s": t[0],
                "fails": sorted(set(u[2]) | set(t[2]))}
               for inp, u, t in zip(inputs, untraced, traced)]
    n = len(inputs)
    extra = {"overhead": (sum(t[0] for t in traced) - sum(u[0] for u in untraced)) / n}
    if args.workload == "cli":
        env = session.ctx["env"]
        bare, _ = probe_seconds([sys.executable, "-c", "pass"], env, IMPORT_PROBES)
        full, _ = probe_seconds([sys.executable, "-c", "import gearlab.cli"], env,
                                IMPORT_PROBES)
        extra["import_probe"] = full - bare
        extra["interpreter_s"] = bare
    metrics, na = layer_metrics(tracer, n, extra)
    shares = module_shares(tracer)
    if args.workload == "cli":
        # what a `gearlab` command spends before main, against main itself
        in_process = sum(u[0] for u in untraced) / n
        start = extra["interpreter_s"] + extra["import_probe"]
        shares = {"startup+import (subprocess)": start / (start + in_process),
                  **{k: v * in_process / (start + in_process) for k, v in shares.items()}}
        shares["startup+import, median command"] = statistics.median(
            start / (start + u[0]) for u in untraced)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
    tracer.write(spans_path)
    notes = {name: "n/a: this workload never calls the layer" for name in na}
    info = {"samples": n, "rounds": TRACE_ROUNDS, "spans": len(tracer.start),
            "spans_file": str(spans_path.relative_to(ROOT)), "shares": shares, "n/a": na}
    return metrics, notes, samples, info


def layer_metrics(tracer, n, extra):
    by = tracer.by_name()

    def total(names, col):
        return sum(by[x][col] for x in names if x in by)

    metrics, na = {}, []
    for name, (_unit, (kind, *arg)) in PER_LAYER.items():
        seen = True
        if kind in ("self", "calls"):
            names = arg[0]
            seen = total(names, 0) > 0
            value = total(names, 0 if kind == "calls" else 1) / n
        elif kind == "module_self":
            names = [x for x in by if x.startswith(arg[0] + ".")]
            seen = total(names, 0) > 0
            value = total(names, 1) / n
        elif kind == "evals_per_eigenvalue":
            evals = sum(tracer.results.get("spectral.scan_spectrum", []))
            calls = tracer.count_under("spectral.rank_indicator", "spectral.scan_spectrum")
            seen = evals > 0
            value = calls / evals if seen else 0.0
        elif kind == "residual_checks":
            moves = by.get("transplant.transplant", [0])[0]
            checks = tracer.count_under("spectral.vertex_residual", "transplant.transplant")
            seen = moves > 0
            value = checks / moves if seen else 0.0
        else:
            seen = kind in extra
            value = extra.get(kind, 0.0)
        metrics[name] = value
        if not seen:
            na.append(name)
    return metrics, na


def module_shares(tracer):
    """Share of traced verdict time spent in each module's own code."""
    by = tracer.by_name()
    root = tracer.names.index("bench.verdict")
    total = sum(e - s for s, e, nid in zip(tracer.start, tracer.end, tracer.name_of)
                if nid == root) * 1e-9
    shares = {}
    for name, (_, own) in by.items():
        key = name.split(".")[0]
        shares[key] = shares.get(key, 0.0) + own / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def report(args, env, metrics, notes, samples, info):
    units = END_TO_END if args.trace == 0 else {k: v[0] for k, v in PER_LAYER.items()}
    failed = [s for s in samples if s["fails"]]
    print(f"# gearlab bench  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"commit={env['commit']} source={env['source_sha256'][:12]} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']}")
    print(f"# samples={info['samples']} rounds={info['rounds']}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {metrics[name]:.6g} {unit}{note}")
    print(f"verdict_fail_ratio {len(failed) / len(samples):.6g} ratio  "
          f"({len(failed)} of {len(samples)} verdicts)")
    if "shares" in info:
        print("# self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in info["shares"].items()))
    for s in failed:
        print(f"# FAIL {s['input']}: {'; '.join(s['fails'][:2])}")
    result = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    record = {"environment": env, "metrics": result,
              "notes": notes, "verdict_fail_ratio": len(failed) / len(samples),
              "failing_inputs": [{"input": s["input"], "fails": s["fails"]} for s in failed],
              **info, "verdicts": samples}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"# record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(samples), "failed": len(failed),
                      "metrics": result}))


def main(argv=None):
    # a terminated run still removes its scratch files and stops its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "gearlab" / "__init__.py").is_file():
        return fail(f"no gearlab sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import gearlab
    if Path(gearlab.__file__).resolve().parent != SRC / "gearlab":
        return fail(f"imported gearlab from {gearlab.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    session = Session(args.workload, args.seed, WORKLOADS[args.workload])
    try:
        if args.setup_probe:
            session.round(0)
            session.warm_up()
            return 0
        env = environment(args)
        run = traced_run if args.trace else timed_run
        metrics, notes, samples, info = run(session, args)
        report(args, env, metrics, notes, samples, info)
    finally:
        session.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
