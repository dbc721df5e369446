"""Benchmark workloads: seeded inputs and verdicts checked against known answers.

A verdict takes one gear or digraph pair through one route and returns
the list of its failed checks (empty when it reached the known answer).
It runs every step even after a failed one, so a failure never makes a
verdict cheaper.  Inputs come in rounds: each round has a fixed list of
slots (the strata that set the cost, such as subdivision size or
command), and the seed picks the concrete input of each slot, so every
run measures the same cost mix on different inputs.  Where the route
allows it, several slots of one cost class sit in the middle of the
cost order, so the median and the tail percentile are order statistics
of many samples of one class rather than the extremes of two.

All calls into gearlab go through module attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

# the package namespace re-binds some module names to functions
# (``gearlab.transplant`` is the function), so import the modules by path
cli, graphs, gio, markov, spectral, transplant, zeta = (
    importlib.import_module(f"gearlab.{name}")
    for name in ("cli", "graphs", "io", "markov", "spectral", "transplant", "zeta"))

TOL_GAP = 1e-8          # acceptance criteria 1 and 3
TOL_ROUNDTRIP = 1e-10   # acceptance criterion 3
QUANTUM_COUNT = 25      # eigenvalues compared per dual pair
ZETA_TRIALS = 20
IRRATIONAL = (math.sqrt(2.0), math.sqrt(3.0), math.pi / 2, (1 + math.sqrt(5.0)) / 2,
              math.e / 2, math.sqrt(5.0))


def _step(fails, label, fn, *args):
    """Run one verdict step; an exception is a failed check, not an abort."""
    try:
        return fn(*args)
    except Exception as exc:  # every error of the program is a failed verdict
        fails.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


def _lengths(rng, n, total=None):
    """n integer lengths in 1..4, summing to ``total`` when given."""
    if total is None:
        return tuple(rng.randint(1, 4) for _ in range(n))
    out = [1] * n
    for _ in range(total - n):
        out[rng.choice([i for i in range(n) if out[i] < 4])] += 1
    return tuple(out)


def _n_for_total(rng, total):
    return rng.choice([n for n in range(3, 7) if n <= total <= 4 * n])


def _gear_text(spec):
    lengths = ",".join(f"{l:g}" for l in spec.lengths)
    attach = "".join("t" if a == "tail" else "h" for a in spec.tooth_ends)
    return f"lengths=({lengths}) attach={attach}"


# ---------------------------------------------------------------------------
# quantum-pairs: scanned spectra of a dual pair, transplantation, cross-check
# ---------------------------------------------------------------------------

QUANTUM_W = (1.0, 1.5, 2.0)
# (n, total length, kind); a fixed total per slot fixes the scan grid, so
# the seed varies the gear but not the cost class of the slot.  The four
# (4, 10) slots and the (3, 7) one sit in the middle of the cost order.
QUANTUM_SLOTS = ((3, 7, "irrational"), (4, 10, "irrational"), (5, 12, "irrational"),
                 (6, 15, "irrational"), (3, 7, "integer"), (4, 10, "integer"),
                 (4, 10, "integer"), (4, 10, "integer"), (4, 10, "integer"),
                 (5, 12, "integer"), (6, 12, "integer"))
# The scan misses members of close eigenvalue clusters at its default grid
# (ROADMAP item 2), so 0-22% of the candidate gears of a class fail their
# verdict (26 of 256).  A run draws only from the other candidates, so that
# a failed verdict means the program changed; ``catalogue.py`` runs every
# candidate, lists the failing ones with their failed checks and prints
# this table of failing candidate numbers again.
QUANTUM_CANDIDATES = 32
QUANTUM_FAILING = {
    (3, 7, "irrational"): (12, 18, 30),
    (4, 10, "irrational"): (19,),
    (5, 12, "irrational"): (),
    (6, 15, "irrational"): (8, 19),
    (3, 7, "integer"): (4, 13, 16, 30),
    (4, 10, "integer"): (21, 24, 29),
    (5, 12, "integer"): (1, 8, 16, 18, 23, 24, 27),
    (6, 12, "integer"): (0, 9, 12, 13, 19, 25),
}


def _irrational_lengths(rng, n, total):
    """Lengths from IRRATIONAL, not all equal, scaled to ``total``."""
    while True:
        raw = [rng.choice(IRRATIONAL) for _ in range(n)]
        if len(set(raw)) > 1:
            return tuple(l * total / sum(raw) for l in raw)


def quantum_candidate(n, total, kind, i):
    """Candidate ``i`` of a slot class: a seeded gear and weight."""
    rng = random.Random(f"quantum-pairs:{n}:{total}:{kind}:{i}")
    lengths = (_lengths(rng, n, total) if kind == "integer"
               else _irrational_lengths(rng, n, total))
    return {"spec": graphs.GearSpec(n, lengths, "primal"), "w": rng.choice(QUANTUM_W)}


def quantum_round(seed, r, _ctx):
    """One passing candidate per slot, distinct within a class."""
    rng = random.Random(f"quantum-pairs:{seed}:{r}")
    picks = {cls: rng.sample([i for i in range(QUANTUM_CANDIDATES) if i not in failing],
                             QUANTUM_SLOTS.count(cls))
             for cls, failing in QUANTUM_FAILING.items()}
    return [quantum_candidate(*cls, picks[cls].pop()) for cls in QUANTUM_SLOTS]


def quantum_verdict(inp, _ctx):
    spec, w = inp["spec"], inp["w"]
    fails = []
    g1 = graphs.build_gear(spec)
    g2 = graphs.build_gear(graphs.dual_gear(spec))
    cond = spectral.VertexConditions(w)
    params = spectral.ScanParams(k_max=spectral.suggest_k_max(g1, QUANTUM_COUNT))
    s1 = _step(fails, "scan primal", spectral.scan_spectrum, g1, cond, params)
    s2 = _step(fails, "scan dual", spectral.scan_spectrum, g2, cond, params)
    if s1 is not None and s2 is not None:
        rep = _step(fails, "compare_first", spectral.compare_first, s1, s2, QUANTUM_COUNT)
        if rep is not None and not (rep["max_rel_gap"] < TOL_GAP
                                    and not rep["multiplicity_mismatches"]):
            fails.append(f"compare_first: gap {rep['max_rel_gap']:.3g}, "
                         f"mismatches {rep['multiplicity_mismatches'][:2]}")
    if s1 is not None:
        budget = QUANTUM_COUNT
        for lam, mult in s1.entries:
            if budget <= 0:
                break
            budget -= mult
            if lam > 0:
                _transplant_suite(fails, g1, g2, cond, w, math.sqrt(lam))
    if spec.is_integral():
        cc = _step(fails, "crosscheck_quantum", markov.crosscheck_quantum,
                   spec, w, 2 * math.pi)
        if cc is not None and not (cc["agree"] and cc["max_gap"] < TOL_GAP):
            first = cc["mismatches"][0] if cc["mismatches"] else None
            fails.append(f"crosscheck_quantum: {len(cc['mismatches'])} mismatches, "
                         f"first {first}, max_gap {cc['max_gap']:.3g}")
    return fails


def _transplant_suite(fails, g1, g2, cond, w, k):
    basis = _step(fails, f"eigenfunction_basis k={k:.6f}",
                  spectral.eigenfunction_basis, g1, cond, k)
    for f in basis or ():
        moved = _step(fails, f"transplant k={k:.6f}", transplant.transplant, f, g2, w)
        if moved is None:
            continue
        ft, tmap = moved
        if not tmap.residual < TOL_GAP:
            fails.append(f"transplant k={k:.6f}: residual {tmap.residual:.3g}")
        iso = _step(fails, f"check_isometry k={k:.6f}", transplant.check_isometry, f, ft, w)
        if iso is not None and not iso[2] < TOL_GAP:
            fails.append(f"check_isometry k={k:.6f}: rel {iso[2]:.3g}")
        back = _step(fails, f"inverse_transplant k={k:.6f}", transplant.inverse_transplant,
                     ft, g1, w, tmap.assignment)
        if back is not None:
            err = max(abs(a - b) for a, b in zip(back.flat(), f.flat()))
            if not err < TOL_ROUNDTRIP:
                fails.append(f"inverse_transplant k={k:.6f}: round trip {err:.3g}")


def quantum_describe(inp):
    return f"{_gear_text(inp['spec'])} w={inp['w']:g}"


# ---------------------------------------------------------------------------
# walk-exact: exact walk matrices, their spectra and the conjugator
# ---------------------------------------------------------------------------

WALK_W = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
# (sum of lengths, n or None for a seeded n, mixed attachments): halved
# subdivision sizes 12 to 48, five of them 20 in the middle of the cost
# order; the cost grows about as size^3.5.  Mixed attachments cost ~20%
# more, so the three mixed slots (about one in four) and the seeded n stay
# out of the middle, where p50 and the tail are read.
WALK_SLOTS = ((6, None, True), (7, None, False), (8, None, True), (10, 3, False),
              (10, 4, False), (10, 5, False), (10, 6, False), (10, 4, False),
              (12, None, False), (15, None, True), (24, None, False))


def walk_round(seed, r, _ctx):
    rng = random.Random(f"walk-exact:{seed}:{r}")
    out = []
    for slot, (total, n, mixed) in enumerate(WALK_SLOTS):
        n = n or _n_for_total(rng, total)
        attach = tuple(rng.choice(("tail", "head")) for _ in range(n)) if mixed else None
        spec = graphs.GearSpec(n, _lengths(rng, n, total), "primal", attach)
        out.append({"spec": spec, "w": WALK_W[(slot + r) % 3]})
    return out


def walk_verdict(inp, _ctx):
    spec, w = inp["spec"], inp["w"]
    fails = []
    c1 = graphs.subdivide(graphs.build_gear(spec))
    c2 = graphs.subdivide(graphs.build_gear(graphs.dual_gear(spec)))
    m1 = _step(fails, "markov_matrix primal", markov.markov_matrix, c1, w, "rational")
    m2 = _step(fails, "markov_matrix dual", markov.markov_matrix, c2, w, "rational")
    if m1 is not None and m2 is not None:
        e1 = _step(fails, "markov_spectrum primal", markov.markov_spectrum, m1)
        e2 = _step(fails, "markov_spectrum dual", markov.markov_spectrum, m2)
        if e1 is not None and e2 is not None:
            gap = float(abs(e1[0] - e2[0]).max())
            if not gap < TOL_GAP:
                fails.append(f"markov_spectrum: dual spectra differ by {gap:.3g}")
    rep = _step(fails, "conjugator_report", markov.conjugator_report, spec, w, "rational")
    if rep is not None:
        if rep["charpoly_equal"] is not True:
            fails.append("conjugator_report: characteristic polynomials differ")
        if rep["conj_residual"] != 0:
            fails.append(f"conjugator_report: residual {rep['conj_residual']:.3g}")
        if not rep["sigma_min_C"] > 1e-8:
            fails.append(f"conjugator_report: sigma_min_C {rep['sigma_min_C']:.3g}")
    return fails


def walk_describe(inp):
    return f"{_gear_text(inp['spec'])} w={inp['w']} size={2 * sum(inp['spec'].lengths):g}"


# ---------------------------------------------------------------------------
# zeta-digraphs: mod-p identity test, symbolic determinants, isomorphism
# ---------------------------------------------------------------------------

# digraph sizes 2 * sum(lengths) of the seeded primal/dual pairs, 12 to 42;
# the 12-vertex pair also goes through the symbolic route
ZETA_TOTALS = (6, 7, 9, 11, 13, 16, 21)
SYMBOLIC_MAX_VERTICES = 12


def zeta_round(seed, r, _ctx):
    rng = random.Random(f"zeta-digraphs:{seed}:{r}")
    out = [{"kind": "fig6", "trial_seed": rng.randrange(1 << 30)},
           {"kind": "fig2", "trial_seed": rng.randrange(1 << 30)}]
    for total in ZETA_TOTALS:
        n = _n_for_total(rng, total)
        out.append({"kind": "gear", "spec": graphs.GearSpec(n, _lengths(rng, n, total)),
                    "trial_seed": rng.randrange(1 << 30)})
    return out


def zeta_verdict(inp, _ctx):
    fails = []
    seed = inp["trial_seed"]
    if inp["kind"] == "fig6":
        g, gt = graphs.fig6_digraph_pair()
        v = _step(fails, "zeta_equivalent", zeta.zeta_equivalent, g, gt, ZETA_TRIALS, seed)
        if v is not None and v["verdict"] != "equivalent-with-bound":
            fails.append(f"zeta_equivalent: fig6 {v['verdict']}")
        rep = _step(fails, "verify_intertwiner", zeta.verify_intertwiner)
        if rep is not None and not (rep["ok"] and rep["intertwines_y0"]
                                    and rep["det_matches"] and rep["eta_equal"]):
            fails.append(f"verify_intertwiner: {rep}")
        return fails
    if inp["kind"] == "fig2":
        a, b = graphs.fig2_control_pair()
        witness = _step(fails, "digraph_isomorphic", zeta.digraph_isomorphic, a, b)
        v = _step(fails, "zeta_equivalent", zeta.zeta_equivalent, a, b, ZETA_TRIALS, seed)
        if v is not None and witness is None and not (
                v["verdict"] == "distinguished" and v["distinguishing_point"] is not None):
            fails.append("fig2: neither isomorphic nor distinguished")
        return fails
    spec = inp["spec"]
    d1 = graphs.gear_to_digraph(spec)
    d2 = graphs.gear_to_digraph(graphs.dual_gear(spec))
    v = _step(fails, "zeta_equivalent", zeta.zeta_equivalent, d1, d2, ZETA_TRIALS, seed)
    if v is not None and v["verdict"] != "equivalent-with-bound":
        fails.append(f"zeta_equivalent: dual pair {v['verdict']}")
    if d1.vertex_count <= SYMBOLIC_MAX_VERTICES:
        _symbolic_route(fails, d1, d2, v, random.Random(seed))
    return fails


def _symbolic_route(fails, d1, d2, verdict, rng):
    """Exact y = 0 determinants; they must agree with each other and with mod p."""
    etas = []
    point = zeta.random_point(rng)
    for tag, dg in (("primal", d1), ("dual", d2)):
        p = zeta.pencil(dg)
        full = _step(fails, f"char_poly_symbolic {tag}", zeta.char_poly_symbolic, p)
        if full is None:
            return
        etas.append(full.substitute(y=0))
        if full.evaluate(point, zeta.PRIME) != zeta.eval_det(p, point):
            fails.append(f"{tag}: symbolic and mod-p determinants differ at {point}")
    if etas[0] != etas[1]:
        fails.append("char_poly_symbolic: y=0 determinants differ")
    if verdict is not None and (etas[0] == etas[1]) != (
            verdict["verdict"] == "equivalent-with-bound"):
        fails.append("mod-p and symbolic routes disagree")


def zeta_describe(inp):
    if inp["kind"] != "gear":
        return f"{inp['kind']} trial_seed={inp['trial_seed']}"
    return f"{_gear_text(inp['spec'])} trial_seed={inp['trial_seed']}"


# ---------------------------------------------------------------------------
# cli: one `gearlab` subprocess per verdict, checked against in-process main
# ---------------------------------------------------------------------------

CLI_ENTRY = "import sys; from gearlab.cli import main; sys.exit(main())"
CLI_W = ("1", "3/2", "1/2")


def cli_round(seed, r, ctx):
    """One of each subcommand; input files are written to ``ctx['tmp']``."""
    rng = random.Random(f"cli:{seed}:{r}")
    tmp = ctx["tmp"] / f"round{r}"
    tmp.mkdir(parents=True, exist_ok=True)

    def gear(n_lo, n_hi, total):
        n = rng.randint(n_lo, n_hi)
        return graphs.GearSpec(n, _lengths(rng, n, total))

    def arg(spec):
        return ",".join(str(int(l)) for l in spec.lengths)

    # totals are fixed per command so that the seed varies the gear, not the
    # size class; the build gear is free because building costs nothing
    out = []
    n = rng.randint(3, 6)
    argv = ["build", "--lengths", arg(graphs.GearSpec(n, _lengths(rng, n)))]
    argv += ["--dual"] * rng.randint(0, 1) + ["--digraph"] * rng.randint(0, 1)
    out.append({"argv": argv})

    spec = gear(3, 3, 6)
    files = [tmp / "primal.graph", tmp / "dual.graph"]
    gio.write_graph(graphs.build_gear(spec), files[0])
    gio.write_graph(graphs.build_gear(graphs.dual_gear(spec)), files[1])
    out.append({"argv": ["compare", "--graph1", str(files[0]), "--graph2", str(files[1]),
                         "--w", ("1", "1.5", "2")[r % 3], "--k-max", "6"],
                "about": arg(spec)})

    out.append({"argv": ["markov", "--lengths", arg(gear(3, 4, 7)), "--w", CLI_W[r % 3]]})
    out.append({"argv": ["conjugate", "--lengths", arg(gear(3, 3, 6)),
                         "--w", CLI_W[(r + 1) % 3]]})

    spec = gear(3, 4, 8)
    files = [tmp / "primal.digraph", tmp / "dual.digraph"]
    gio.write_digraph(graphs.gear_to_digraph(spec), files[0])
    gio.write_digraph(graphs.gear_to_digraph(graphs.dual_gear(spec)), files[1])
    out.append({"argv": ["zeta", "--g1", str(files[0]), "--g2", str(files[1]),
                         "--trials", str(ZETA_TRIALS), "--seed", str(rng.randrange(1 << 30))],
                "about": arg(spec), "expect": {"verdict": "equivalent-with-bound"}})

    out.append({"argv": ["zeta-conjugator"]})

    spec = gear(3, 3, 6)   # 12 vertices: within the isomorphism search limit
    dg = graphs.gear_to_digraph(spec)
    perm = list(range(dg.vertex_count))
    rng.shuffle(perm)
    relabelled = graphs.Digraph(dg.vertex_count,
                                tuple((perm[t], perm[h]) for t, h in dg.arcs))
    files = [tmp / "iso1.digraph", tmp / "iso2.digraph"]
    gio.write_digraph(dg, files[0])
    gio.write_digraph(relabelled, files[1])
    out.append({"argv": ["isomorphic", "--g1", str(files[0]), "--g2", str(files[1])],
                "about": arg(spec), "expect": {"isomorphic": True},
                "arcs": (dg.arcs, relabelled.arcs)})
    for i, item in enumerate(out):
        item["out"] = tmp / f"{i}_{item['argv'][0]}.out"
    return out


def cli_in_process(argv):
    """Exit code of ``gearlab.cli.main(argv)`` as the console script returns it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def cli_run(inp, ctx):
    """The timed part of a CLI verdict: one ``gearlab`` subprocess."""
    return subprocess.run([sys.executable, "-c", CLI_ENTRY, *inp["argv"],
                           "-o", str(inp["out"].with_suffix(".sub"))],
                          env=ctx["env"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False)


def cli_check(inp, ctx, proc):
    """Exit code as documented, and the same bytes as the in-process main.

    The in-process reference is cached per argv, which only repeats for
    ``zeta-conjugator`` (it takes no input).
    """
    fails = []
    if proc.returncode != 0:   # every subcommand documents 0 for these inputs
        fails.append(f"exit code {proc.returncode}: {proc.stderr.strip()[:200]}")
    key = tuple(inp["argv"])
    if key not in ctx["reference"]:
        ref_out = inp["out"].with_suffix(".ref")
        code = cli_in_process([*inp["argv"], "-o", str(ref_out)])
        ctx["reference"][key] = (code, ref_out.read_bytes() if ref_out.exists() else None)
    code, ref = ctx["reference"][key]
    if code != proc.returncode:
        fails.append(f"in-process exit code {code}, subprocess {proc.returncode}")
    got = _read(inp["out"].with_suffix(".sub"))
    if got != ref:
        fails.append("output bytes differ from the in-process main")
    _check_expected(fails, inp, got)
    return fails


def cli_traced_run(inp, ctx):
    """Traced runs call main in-process, so the layers under it are seen.

    The untraced replay runs first; the traced run must give its bytes.
    """
    fails = []
    out = inp["out"].with_suffix(".ref")
    code = cli_in_process([*inp["argv"], "-o", str(out)])
    if code != 0:
        fails.append(f"exit code {code}")
    got = _read(out)
    if ctx["reference"].setdefault(tuple(inp["argv"]), got) != got:
        fails.append("output bytes differ between the traced and untraced runs")
    _check_expected(fails, inp, got)
    return fails


def _read(path):
    return path.read_bytes() if path.exists() else None


def _check_expected(fails, inp, got):
    if got is None or "expect" not in inp:
        return
    report = json.loads(got)
    for key, want in inp["expect"].items():
        if report.get(key) != want:
            fails.append(f"{key}={report.get(key)!r}, expected {want!r}")
    if "arcs" in inp and report.get("witness"):
        image = report["witness"]
        arcs1, arcs2 = inp["arcs"]
        if {(image[t], image[h]) for t, h in arcs1} != set(arcs2):
            fails.append("isomorphism witness does not map arcs onto arcs")


def cli_describe(inp):
    text = " ".join(a.rsplit("/", 1)[-1] if a.startswith("/") else a for a in inp["argv"])
    return text + (f" gear=({inp['about']})" if "about" in inp else "")


# ---------------------------------------------------------------------------

def warmup_input(workload):
    """Small fixed input run once before timing, so lazy set-up is not timed."""
    if workload == "quantum-pairs":   # long and irrational: a short scan
        return {"spec": graphs.GearSpec(3, (4 * math.sqrt(2.0), 4 * math.sqrt(3.0), 5.0)),
                "w": 1.0}
    if workload == "walk-exact":
        return {"spec": graphs.GearSpec(3, (1, 1, 1)), "w": Fraction(1)}
    if workload == "zeta-digraphs":
        return {"kind": "fig2", "trial_seed": 1}
    return {"argv": ["build", "--lengths", "1,1,1"]}


class Workload:
    """``run`` is timed; ``check`` (when given) turns its result into failures."""

    def __init__(self, make_round, run, describe, check=None, traced_run=None):
        self.make_round = make_round
        self.run = run
        self.describe = describe
        self.check = check
        self.traced_run = traced_run or run


WORKLOADS = {
    "quantum-pairs": Workload(quantum_round, quantum_verdict, quantum_describe),
    "walk-exact": Workload(walk_round, walk_verdict, walk_describe),
    "zeta-digraphs": Workload(zeta_round, zeta_verdict, zeta_describe),
    "cli": Workload(cli_round, cli_run, cli_describe, cli_check, cli_traced_run),
}
