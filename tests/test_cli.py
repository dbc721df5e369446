"""Command-line surface: exit codes, file outputs, determinism."""

import argparse
import dataclasses
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gearlab import io as gio, markov, spectral, zeta
from gearlab import OPENBLAS_THREAD_TIMEOUT
from gearlab.cli import build_parser, main
from gearlab.graphs import (FIG6, POLYGON, TOOTH, Edge, MetricGraph, build_gear,
                            fig2_control_pair, subdivide)
from gearlab.spectral import ScanParams, VertexConditions, compare_spectra, scan_spectrum
from gearlab.linalg import TRIAL_BLOCK

from support import insert_degree_two_vertex


DATA = pathlib.Path(__file__).parent / "data"
THTH = ("--lengths", "1.4142,1.7320508,2.2360679,1", "--attach", "thth")


def run(*argv):
    return main(list(argv))


def fresh_env(**changes):
    """This environment for a fresh interpreter that imports this gearlab;
    a change to None removes the variable."""
    src = str(pathlib.Path(gio.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _build_pair(tmp_path, *gear):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    assert run("build", *gear, "-o", str(a)) == 0
    assert run("build", *gear, "--dual", "-o", str(b)) == 0
    return a, b


def test_build_writes_gear_file(tmp_path):
    out = tmp_path / "gear.graph"
    assert run("build", "--lengths", "1,2,3", "--dual", "-o", str(out)) == 0
    g = gio.read_graph(out)
    assert g.vertex_count == 6 and g.edge_count == 6


@pytest.mark.parametrize("command", ["build", "markov"])
@pytest.mark.parametrize("attach", ["txz", "thx", "THT"])
def test_unknown_attach_letter_is_a_validation_error(tmp_path, command, attach):
    out = tmp_path / "out"
    assert run(command, "--lengths", "1,2,3", "--attach", attach, "-o", str(out)) == 2
    assert not out.exists()


def test_exact_commands_do_not_import_numpy(tmp_path):
    """build, zeta, zeta-conjugator and isomorphic run in a fresh interpreter
    without loading numpy; markov, run last, shows that the check sees it."""
    a, b = str(tmp_path / "a.digraph"), str(tmp_path / "b.digraph")
    commands = [
        ["build", "--lengths", "1,2,3", "--digraph", "-o", a],
        ["build", "--lengths", "1,2,3", "--digraph", "--dual", "-o", b],
        ["zeta", "--g1", a, "--g2", b, "--seed", "1", "-o", str(tmp_path / "z.json")],
        # more trials than one block of lanes
        ["zeta", "--g1", a, "--g2", b, "--seed", "1", "--trials", str(2 * TRIAL_BLOCK + 1),
         "-o", str(tmp_path / "z65.json")],
        ["zeta-conjugator", "-o", str(tmp_path / "zc.json")],
        ["isomorphic", "--fig2", "-o", str(tmp_path / "iso.json")],
        ["markov", "--lengths", "1,2,3", "-o", str(tmp_path / "m.json")],
    ]
    script = ("import json, sys\n"
              "from gearlab.cli import main\n"
              "print(json.dumps([(main(argv), 'numpy' in sys.modules)\n"
              "                  for argv in json.loads(sys.argv[1])]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=fresh_env(), check=True)
    assert json.loads(proc.stdout) == [[0, False]] * 6 + [[0, True]]


@pytest.mark.parametrize("first, zeta_loaded, fractions_loaded", [
    ("digraph", True, False), ("gear", False, True)])
def test_each_command_imports_only_what_it_uses(tmp_path, first, zeta_loaded,
                                                fractions_loaded):
    """The digraph commands never load `fractions`, and the gear and scan
    commands never load `gearlab.zeta`; each group runs first in its own
    fresh interpreter."""
    a, b = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
    groups = {
        "digraph": [["zeta", "--fig6", "--seed", "1"], ["zeta-conjugator"],
                    ["isomorphic", "--fig2"]],
        "gear": [["build", "--lengths", "1,2,3", "-o", a],
                 ["build", "--lengths", "1,2,3", "--dual", "-o", b],
                 ["spectrum", "--graph", a, "--k-max", "2"],
                 ["compare", "--graph1", a, "--graph2", b, "--k-max", "2"],
                 ["markov", "--lengths", "1,2,3"],
                 ["conjugate", "--lengths", "1,2,3"]],
    }
    script = ("import contextlib, io, json, sys\n"
              "from gearlab.cli import main\n"
              "out = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = main(argv)\n"
              "    out.append([code, 'gearlab.zeta' in sys.modules, 'fractions' in sys.modules])\n"
              "print(json.dumps(out))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(groups[first])],
                          capture_output=True, text=True, env=fresh_env(), check=True)
    assert json.loads(proc.stdout) == [[0, zeta_loaded, fractions_loaded]] * len(groups[first])


# In a fresh interpreter, records OPENBLAS_THREAD_TIMEOUT whenever numpy is
# looked up, runs the body, and prints the values the body kept in `out`
# followed by those the lookups saw.
_SPY_SCRIPT = ("import json, os, sys\n"
               "seen = []\n"
               "class Spy:\n"
               "    def find_spec(self, name, path=None, target=None):\n"
               "        if name == 'numpy':\n"
               "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
               "sys.meta_path.insert(0, Spy())\n"
               "out = []\n"
               "{body}"
               "print(json.dumps(out + seen))\n")


def _spy(body, user_value):
    proc = subprocess.run([sys.executable, "-c", _SPY_SCRIPT.format(body=body)],
                          capture_output=True, text=True,
                          env=fresh_env(OPENBLAS_THREAD_TIMEOUT=user_value), check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("user_value", [None, "4"], ids=["unset", "user-set"])
def test_console_run_sets_the_openblas_timeout_before_numpy_loads(user_value):
    """In a fresh interpreter, importing `gearlab.cli` (and so the package)
    sets OPENBLAS_THREAD_TIMEOUT to the default unless the user set it, and
    the value is in place when a handler loads numpy."""
    body = ("from gearlab.cli import main\n"
            "out.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "main(['build', '--lengths', '1,2,3', '-o', os.devnull])\n"
            "out.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "main(['markov', '--lengths', '1,2,3', '-o', os.devnull])\n")
    expected = user_value or OPENBLAS_THREAD_TIMEOUT
    assert _spy(body, user_value) == [expected, expected, expected]


@pytest.mark.parametrize("user_value", [None, "4"], ids=["unset", "user-set"])
def test_library_import_sets_the_openblas_timeout_before_numpy_loads(user_value):
    """A bare `import gearlab.markov`, with no `main`, gets the same policy:
    the default, or the user's value, is in place when numpy loads."""
    body = ("import gearlab.markov\n"
            "out.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n")
    expected = user_value or OPENBLAS_THREAD_TIMEOUT
    assert _spy(body, user_value) == [expected, expected]


def test_package_import_loads_no_numpy_and_leaves_a_loaded_numpy_alone():
    """`import gearlab` loads no numpy; where numpy loaded first, the
    timeout could no longer reach OpenBLAS and the environment is kept."""
    script = ("import json, os, sys\n"
              "if sys.argv[1] == 'numpy-first':\n"
              "    import numpy\n"
              "import gearlab\n"
              "print(json.dumps(['numpy' in sys.modules,\n"
              "                  os.environ.get('OPENBLAS_THREAD_TIMEOUT')]))\n")
    out = [json.loads(subprocess.run(
        [sys.executable, "-c", script, order], capture_output=True, text=True,
        env=fresh_env(OPENBLAS_THREAD_TIMEOUT=None), check=True).stdout)
        for order in ("gearlab-first", "numpy-first")]
    assert out == [[False, OPENBLAS_THREAD_TIMEOUT], [True, None]]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no worker on one core")
def test_walk_eigensolve_leaves_no_worker_spinning():
    """After `markov_spectrum` on a 48-vertex walk, whose `eigh` wakes an
    OpenBLAS worker, a library caller that sleeps uses almost no CPU: the
    worker sleeps too instead of spinning for ~0.1 s."""
    script = ("import time\n"
              "from gearlab.graphs import GearSpec, build_gear, subdivide\n"
              "from gearlab.markov import markov_matrix, markov_spectrum\n"
              "ms = markov_matrix(subdivide(build_gear(GearSpec(4, (6, 6, 6, 6)))), 1)\n"
              "assert len(ms.degrees) == 48\n"
              "markov_spectrum(ms)\n"
              "start = time.process_time()\n"
              "time.sleep(0.2)\n"
              "print(time.process_time() - start)\n")
    env = {name: value for name, value in fresh_env().items()
           if not name.startswith("OPENBLAS_")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert float(proc.stdout) < 0.03


def test_in_process_callers_keep_their_environment(tmp_path, monkeypatch):
    """Once numpy is loaded the timeout can no longer reach OpenBLAS, so
    neither importing `gearlab.cli` nor `main` touches `os.environ`."""
    assert "numpy" in sys.modules
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    before = dict(os.environ)
    monkeypatch.delitem(sys.modules, "gearlab.cli")
    monkeypatch.delattr(sys.modules["gearlab"], "cli")
    fresh = importlib.import_module("gearlab.cli")
    assert dict(os.environ) == before
    for entry in (fresh.main, main):
        assert entry(["build", "--lengths", "1,2,3", "-o", str(tmp_path / "g")]) == 0
        assert entry(["markov", "--lengths", "1,2,3", "-o", str(tmp_path / "m")]) == 0
    assert dict(os.environ) == before


def test_markov_module_does_not_import_spectral():
    """The walk imports the quantum scan only inside `crosscheck_quantum`."""
    script = "import sys, gearlab.markov; print('gearlab.spectral' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=fresh_env(), check=True)
    assert proc.stdout == "False\n"


def test_build_rejects_small_n(tmp_path):
    out = tmp_path / "bad.graph"
    assert run("build", "--lengths", "1,2", "-o", str(out)) == 2
    assert not out.exists()


def test_build_fig3_pair(tmp_path):
    base = tmp_path / "pair"
    assert run("build", "--fig3", "a", "--lengths", "1,2,3", "-o", str(base)) == 0
    left = gio.read_graph(f"{base}_left.graph")
    right = gio.read_graph(f"{base}_right.graph")
    assert left.edge_count == right.edge_count == 15


def test_build_digraph_export(tmp_path):
    out = tmp_path / "g.digraph"
    assert run("build", "--lengths", "1,2,3", "--digraph", "-o", str(out)) == 0
    dg = gio.read_digraph(out)
    assert dg.vertex_count == 12 and len(dg.arcs) == 12


def test_spectrum_on_interval(tmp_path):
    gpath = tmp_path / "interval.graph"
    gio.write_graph(MetricGraph(2, (Edge(0, 0, 1, 1.0),), "interval"), gpath)
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--graph", str(gpath), "--k-max", "7", "-o", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,lambda,multiplicity"
    lams = [float(l.split(",")[1]) for l in lines[1:]]
    assert lams[0] == 0.0
    assert abs(lams[1] - math.pi ** 2) < 1e-8
    assert abs(lams[2] - 4 * math.pi ** 2) < 1e-8
    assert lams == sorted(lams)
    # 17 significant digits survive a parse round-trip
    for line in lines[1:]:
        k_txt, lam_txt, _ = line.split(",")
        assert f"{float(lam_txt):.17g}" == lam_txt and f"{float(k_txt):.17g}" == k_txt


def test_spectrum_missing_file(tmp_path):
    assert run("spectrum", "--graph", str(tmp_path / "nope.graph"), "--k-max", "3") == 1


def test_unwritable_output_path_exits_1(tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    a, b = _build_pair(tmp_path, "--lengths", "1,2,3")
    for out in (tmp_path, tmp_path / "missing" / "out"):
        for argv in (("build", "--lengths", "1,2,3"),
                     ("compare", "--graph1", str(a), "--graph2", str(b), "--k-max", "3")):
            capsys.readouterr()
            assert run(*argv, "-o", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"gearlab: cannot write {out}: "), err
    assert not (tmp_path / "missing").exists()


def test_spectrum_gear_row_count(tmp_path):
    gpath = tmp_path / "gear.graph"
    assert run("build", "--lengths", "1,2,3", "-o", str(gpath)) == 0
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--graph", str(gpath), "--w", "1", "--k-max", "10",
               "-o", str(out)) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) >= 15


def test_spectrum_deterministic(tmp_path):
    gpath = tmp_path / "gear.graph"
    run("build", "--lengths", "1,1,2", "-o", str(gpath))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run("spectrum", "--graph", str(gpath), "--k-max", "6", "-o", str(out1))
    run("spectrum", "--graph", str(gpath), "--k-max", "6", "-o", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_dual_pair(tmp_path):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    run("build", "--lengths", "1,2,3", "-o", str(a))
    run("build", "--lengths", "1,2,3", "--dual", "-o", str(b))
    report = tmp_path / "cmp.json"
    assert run("compare", "--graph1", str(a), "--graph2", str(b),
               "--w", "1.5", "--k-max", "6", "-o", str(report)) == 0
    rep = json.loads(report.read_text())
    assert rep["match"] and rep["max_rel_gap"] <= 1e-8


def test_compare_reads_w_as_a_fraction(tmp_path):
    # the scan commands read --w as markov and conjugate do: 3/2 is 1.5
    a, b = _build_pair(tmp_path, "--lengths", "1,2,3")
    reports = [tmp_path / "fraction.json", tmp_path / "decimal.json"]
    for w, report in zip(("3/2", "1.5"), reports):
        assert run("compare", "--graph1", str(a), "--graph2", str(b), "--w", w,
                   "--k-max", "6", "-o", str(report)) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


@pytest.mark.parametrize("gear,w,k_spectrum,k_compare,name", [
    (("--lengths", "1,2,3"), "1.5", "12", "10", "gear123"),
    (THTH, "2", "9", "9", "thth"),
], ids=["gear123", "thth"])
def test_scan_outputs_match_golden_files(tmp_path, gear, w, k_spectrum, k_compare, name):
    a, b = _build_pair(tmp_path, *gear)
    csv, report = tmp_path / "spec.csv", tmp_path / "cmp.json"
    assert run("spectrum", "--graph", str(a), "--w", w, "--k-max", k_spectrum,
               "-o", str(csv)) == 0
    assert run("compare", "--graph1", str(a), "--graph2", str(b), "--w", w,
               "--k-max", k_compare, "-o", str(report)) == 0
    assert csv.read_bytes() == (DATA / f"{name}_spectrum.csv").read_bytes()
    assert report.read_bytes() == (DATA / f"{name}_compare.json").read_bytes()


@pytest.mark.parametrize("gear,w,name", [
    (("--lengths", "1,2,3"), "3/2", "gear123"),
    (("--lengths", "1,2,1,3", "--attach", "hhtt"), "2/5", "gear1213_hhtt"),
], ids=["gear123", "gear1213_hhtt"])
def test_markov_charpoly_matches_golden_file(tmp_path, gear, w, name):
    out = tmp_path / "markov.json"
    assert run("markov", *gear, "--w", w, "-o", str(out)) == 0
    rep = json.loads(out.read_text())
    charpoly = {key: rep[key] for key in ("charpoly_den", "charpoly_num")}
    got = json.dumps(charpoly, indent=2, sort_keys=True) + "\n"
    assert got == (DATA / f"{name}_markov_charpoly.json").read_text()


@pytest.mark.parametrize("w", ["1e-300", "1e308"])
def test_markov_matches_golden_file_at_the_float_range_ends(tmp_path, w):
    """The whole report, eigenvalues included: the symmetric walk's scaling
    decides its float bytes where w is near the ends of the float range."""
    out = tmp_path / "markov.json"
    assert run("markov", "--lengths", "1,2,3", "--w", w, "-o", str(out)) == 0
    assert out.read_bytes() == (DATA / f"gear123_markov_w{w}.json").read_bytes()


CONJUGATE_GOLDEN = {
    "rational": ("1,2,3", (), "gear123_conjugate"),
    "tht": ("1,2,3", ("--attach", "tht"), "gear123_tht_conjugate"),
    "size72": ("1,2,3,4,5,6,7,8", (), "gear1to8_conjugate"),
}


@pytest.mark.parametrize("lengths,extra,name", CONJUGATE_GOLDEN.values(),
                         ids=CONJUGATE_GOLDEN.keys())
def test_conjugate_matches_golden_file(tmp_path, lengths, extra, name):
    out = tmp_path / "conj.json"
    assert run("conjugate", "--lengths", lengths, "--w", "3/2", *extra, "-o", str(out)) == 0
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()


@pytest.mark.parametrize("case", ["rational", "size72"])
def test_console_script_conjugate_matches_golden_file(tmp_path, case):
    """The console script, where the package import sets the OpenBLAS thread
    timeout before numpy loads, writes the same bytes as the in-process run."""
    lengths, extra, name = CONJUGATE_GOLDEN[case]
    out = tmp_path / "conj.json"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from gearlab.cli import main; sys.exit(main())",
         "conjugate", "--lengths", lengths, "--w", "3/2", *extra, "-o", str(out)],
        capture_output=True, text=True, env=fresh_env(OPENBLAS_THREAD_TIMEOUT=None),
        check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()


def test_zeta_conjugator_matches_golden_files(tmp_path):
    out, base = tmp_path / "t.json", tmp_path / "eta"
    assert run("zeta-conjugator", "--dump-eta", str(base), "-o", str(out)) == 0
    assert out.read_bytes() == (DATA / "fig6_conjugator.json").read_bytes()
    for tag in ("g", "gt"):
        dump = tmp_path / f"eta_{tag}.poly"
        assert dump.read_bytes() == (DATA / f"fig6_eta_{tag}.poly").read_bytes()


@pytest.mark.parametrize("pair, seed, name", [
    (["--fig6"], "7", "zeta_fig6"),
    (["--fig2"], "11", "zeta_fig2"),       # distinguished, with its point
    ("4,2,5,3,1,6", "42", "zeta_gear42"),  # a 42-vertex primal/dual digraph pair
], ids=["fig6", "fig2", "gear42"])
def test_zeta_matches_golden_files(tmp_path, pair, seed, name):
    if isinstance(pair, str):
        a, b = tmp_path / "a.digraph", tmp_path / "b.digraph"
        assert run("build", "--lengths", pair, "--digraph", "-o", str(a)) == 0
        assert run("build", "--lengths", pair, "--dual", "--digraph", "-o", str(b)) == 0
        pair = ["--g1", str(a), "--g2", str(b)]
    out = tmp_path / "zeta.json"
    assert run("zeta", *pair, "--trials", "20", "--seed", seed, "-o", str(out)) == 0
    assert out.read_bytes() == (DATA / f"{name}.json").read_bytes()


def test_grid_step_finds_the_thth_root(tmp_path):
    a, _ = _build_pair(tmp_path, *THTH)
    csv = tmp_path / "spec.csv"
    assert run("spectrum", "--graph", str(a), "--w", "2", "--k-max", "9",
               "--grid-step", "0.003", "-o", str(csv)) == 0
    ks = [float(row.split(",")[0]) for row in csv.read_text().splitlines()[1:]]
    assert len(ks) == 37 and min(abs(k - 3.9324913) for k in ks) < 1e-6


GEAR_OPTIONS = [(("--lengths",), "str", None, True, None),
                (("--dual",), "flag", False, False, None),
                (("--attach",), "str", None, False, None)]
WEIGHT = [(("--w",), "str", "1", False, None)]
SCAN_OPTIONS = WEIGHT + [(("--k-max",), "float", None, True, None),
                         (("--grid-step",), "float", None, False, None)]
PAIR_OPTIONS = [(("--g1",), "str", None, False, None),
                (("--g2",), "str", None, False, None),
                (("--fig6",), "flag", False, False, None),
                (("--fig2",), "flag", False, False, None)]
OUTPUT = [(("-o", "--output"), "str", None, False, None)]
CLI_SURFACE = {
    "build": GEAR_OPTIONS + [(("--fig3",), "str", None, False, ("a", "b")),
                             (("--digraph",), "flag", False, False, None)] + OUTPUT,
    "spectrum": [(("--graph",), "str", None, True, None)] + SCAN_OPTIONS + OUTPUT,
    "compare": [(("--graph1",), "str", None, True, None),
                (("--graph2",), "str", None, True, None)] + SCAN_OPTIONS + OUTPUT,
    "markov": GEAR_OPTIONS + WEIGHT
              + [(("--mode",), "str", "rational", False, ("rational", "float"))] + OUTPUT,
    "conjugate": GEAR_OPTIONS + WEIGHT + OUTPUT,
    "zeta": PAIR_OPTIONS + [(("--trials",), "int", 20, False, None),
                            (("--seed",), "int", None, True, None)] + OUTPUT,
    "zeta-conjugator": [(("--dump-eta",), "str", None, False, None)] + OUTPUT,
    "isomorphic": PAIR_OPTIONS + OUTPUT,
}


def test_cli_surface_is_pinned():
    """Every subcommand's options with their types, defaults, `required`
    and choices, in declaration order."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for name, parser in sub.choices.items():
        surface[name] = [
            (tuple(a.option_strings),
             "flag" if isinstance(a, argparse._StoreTrueAction) else (a.type or str).__name__,
             a.default, a.required, a.choices)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert parser.get_default("func").__name__ == "cmd_" + name.replace("-", "_")
    assert surface == CLI_SURFACE


@pytest.mark.parametrize("argv", [
    ("spectrum", "--graph", "g", "--k-max", "3", "--params", "grid_step=0.01"),
    ("compare", "--graph1", "g", "--graph2", "g", "--k-max", "3", "--tol", "1e-8"),
    ("build", "--lengths", "1,2,3", "--digraph", "--tooth-mode", "fig6"),
    ("conjugate", "--lengths", "1,2,3", "--mode", "float"),
], ids=["params", "tol", "tooth-mode", "conjugate-mode"])
def test_removed_options_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["spectrum", "compare"])
@pytest.mark.parametrize("extra,code", [
    (("--w", "inf"), 2),
    (("--k-max", "inf"), 2),
    (("--grid-step", "inf"), 2),
    (("--w", "1e308"), 3),
    (("--w", "1e200"), 3),
    (("--k-max", "1e6"), 2),
], ids=["w-inf", "k-max-inf", "grid-step-inf", "w-overflow", "w-norm-overflow",
        "grid-too-large"])
def test_non_finite_scan_inputs_exit_codes(tmp_path, capsys, command, extra, code):
    a, b = _build_pair(tmp_path, "--lengths", "1,2,3")
    graphs = (["--graph", str(a)] if command == "spectrum"
              else ["--graph1", str(a), "--graph2", str(b)])
    k_max = [] if extra[0] == "--k-max" else ["--k-max", "3"]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(command, *graphs, *k_max, *extra) == code
    assert caught == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("gearlab: "), err


def test_spectrum_at_a_subnormal_tooth_weight_writes_nothing_to_stderr(tmp_path, capsys):
    gpath, csv = tmp_path / "gear123.graph", tmp_path / "spec.csv"
    assert run("build", "--lengths", "1,2,3", "-o", str(gpath)) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("spectrum", "--graph", str(gpath), "--k-max", "5", "--w", "1e-320",
                   "-o", str(csv)) == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    # the nonzero entries are the walk's prediction, multiplicities included
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    scanned = [(float(k), int(mult)) for k, lam, mult in rows if float(lam) > 0]
    ms = markov.markov_matrix(subdivide(gio.read_graph(gpath)), Fraction("1e-320"))
    predicted = markov.predicted_wavenumbers(ms, 5 - 1e-6)
    assert [mult for _, mult in scanned] == [mult for _, mult in predicted]
    assert max(abs(k - p) for (k, _), (p, _) in zip(scanned, predicted)) < 1e-8


@pytest.mark.parametrize("w", ["1e-300", "1e-320", "5e-324"])
def test_compare_accepts_the_dual_pair_at_a_tiny_tooth_weight(tmp_path, w):
    a, b = _build_pair(tmp_path, "--lengths", "1,2,3")
    report = tmp_path / "cmp.json"
    assert run("compare", "--graph1", str(a), "--graph2", str(b), "--w", w,
               "--k-max", "4", "-o", str(report)) == 0
    assert json.loads(report.read_text())["match"] is True


@pytest.mark.parametrize("command", ["spectrum", "compare"])
@pytest.mark.parametrize("record,code,message", [
    ("edge 0 0 1 inf 1 plain", 2, "edge 0: length must be positive and finite"),
    ("edge 0 0 1 nan 1 plain", 2, "edge 0: length must be positive and finite"),
    ("edge 0 0 1 -inf 1 plain", 2, "edge 0: length must be positive and finite"),
    ("edge 0 0 1 1 inf plain", 2, "edge 0: weight must be positive and finite"),
    ("edge 0 0 1 1 nan plain", 2, "edge 0: weight must be positive and finite"),
    # finite, but Newton's A'' overflows: l^2 = 1e600
    ("edge 0 0 1 1e300 1 plain", 3, "secular matrix overflows at k="),
], ids=["length-inf", "length-nan", "length-minus-inf", "weight-inf", "weight-nan",
        "length-overflow"])
def test_non_finite_graph_file_exit_codes(tmp_path, capsys, command, record, code, message):
    g = tmp_path / "g.graph"
    g.write_text(f"graph g\nvertices 2\n{record}\n")
    graphs = (["--graph", str(g)] if command == "spectrum"
              else ["--graph1", str(g), "--graph2", str(g)])
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(command, *graphs, "--k-max", "3") == code
    assert caught == []
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err
    # a problem of the file names it; a failed scan does not
    assert err.startswith(f"gearlab: {g}: {message}" if code == 2 else f"gearlab: {message}"), err


@pytest.mark.parametrize("kernel,message", [("eigvalsh", "eigvalsh"), ("svd", "SVD")])
def test_scan_kernel_failure_exits_3(tmp_path, capsys, monkeypatch, kernel, message):
    # the grid's eigvalsh and the roots' SVD both map LAPACK failures to
    # exit 3, naming the k range of the failed block
    a, _ = _build_pair(tmp_path, "--lengths", "1,2,3")

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, kernel, no_convergence)
    capsys.readouterr()
    assert run("spectrum", "--graph", str(a), "--k-max", "3") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"gearlab: {message} did not converge for k in ["), err


def test_loop_edges_are_a_validation_error(tmp_path, capsys):
    # a loop listed first at its vertex used to lose its eigenvalues, so a
    # reordered tadpole compared as not isospectral; loops now exit 2 and
    # the tadpole with its loop split by a degree-2 vertex compares equal
    tadpole = ["edge 0 0 0 1 1 plain", "edge 1 0 1 1 1 plain"]
    split = ["edge 0 0 2 0.5 1 plain", "edge 1 0 1 1 1 plain", "edge 2 2 0 0.5 1 plain"]
    files = {}
    for name, vertices, records in (("a", 2, tadpole), ("b", 2, tadpole[::-1]),
                                    ("split_a", 3, split), ("split_b", 3, split[::-1])):
        files[name] = tmp_path / f"{name}.graph"
        files[name].write_text("\n".join([f"graph {name}", f"vertices {vertices}", *records, ""]))
    out = tmp_path / "out"
    for argv in (("spectrum", "--graph", files["a"]), ("spectrum", "--graph", files["b"]),
                 ("compare", "--graph1", files["a"], "--graph2", files["b"]),
                 ("compare", "--graph1", files["b"], "--graph2", files["a"])):
        capsys.readouterr()
        assert run(*map(str, argv), "--k-max", "7", "-o", str(out)) == 2
        # the first file given is checked first
        assert capsys.readouterr() == (
            "", f"gearlab: {argv[2]}: edge 0: loop edges are not supported\n")
    assert not out.exists()
    assert run("compare", "--graph1", str(files["split_a"]), "--graph2", str(files["split_b"]),
               "--k-max", "7", "-o", str(out)) == 0


@pytest.mark.parametrize("extra", [("--dual",), ("--digraph",), ("--attach", "tht"),
                                   ("--digraph", "--dual", "--attach", "xyz")],
                         ids=["dual", "digraph", "attach", "all"])
def test_build_fig3_rejects_gear_flags(tmp_path, capsys, extra):
    base = tmp_path / "pair"
    capsys.readouterr()
    assert run("build", "--fig3", "a", "--lengths", "1,2,3", *extra, "-o", str(base)) == 2
    assert capsys.readouterr() == (
        "", "gearlab: --fig3 builds a fixed pair: drop --dual, --attach and --digraph\n")
    assert list(tmp_path.iterdir()) == []


def test_disconnected_graph_file_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    gio.write_graph(MetricGraph(4, (Edge(0, 0, 1, 1.0), Edge(1, 2, 3, 1.0))), bad)
    errors = []
    for argv in (("spectrum", "--graph", str(bad)),
                 ("compare", "--graph1", str(bad), "--graph2", str(bad))):
        capsys.readouterr()
        assert run(*argv, "--k-max", "3") == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"gearlab: {bad}: not connected\n"


def test_graph_file_over_the_secular_size_bound_is_a_validation_error(tmp_path, capsys,
                                                                      monkeypatch):
    def no_stack(*args, **kwargs):
        raise AssertionError("secular stack built past MAX_SECULAR_SIZE")

    monkeypatch.setattr(spectral, "_secular_stack", no_stack)
    # a ring of 1025 edges: one more than MAX_SECULAR_SIZE = 2048 allows
    m = 1025
    ring = tmp_path / "ring.graph"
    gio.write_graph(MetricGraph(m, tuple(Edge(i, i, (i + 1) % m, 1.0) for i in range(m))), ring)
    out = tmp_path / "out"
    for argv in (("spectrum", "--graph", str(ring)),
                 ("compare", "--graph1", str(ring), "--graph2", str(ring))):
        capsys.readouterr()
        assert run(*argv, "--k-max", "0.05", "-o", str(out)) == 2
        assert capsys.readouterr() == (
            "", f"gearlab: {ring}: secular system of 2050 rows exceeds MAX_SECULAR_SIZE = 2048\n")
    assert not out.exists()


def test_digraph_file_over_the_vertex_bound_is_a_validation_error(tmp_path, capsys, monkeypatch):
    def no_pencil(*args, **kwargs):
        raise AssertionError("pencil built past MAX_SUBDIVISION_VERTICES")

    monkeypatch.setattr(zeta, "pencil", no_pencil)
    big = tmp_path / "big.digraph"
    big.write_text("digraph big\nvertices 600000\narc 0 1\n")
    out = tmp_path / "out"
    for command in (("zeta", "--seed", "1"), ("isomorphic",)):
        capsys.readouterr()
        assert run(*command, "--g1", str(big), "--g2", str(big), "-o", str(out)) == 2
        assert capsys.readouterr() == (
            "", f"gearlab: {big}: digraph of 600000 vertices exceeds "
                "MAX_SUBDIVISION_VERTICES = 4096\n")
    assert not out.exists()


def fresh_gearlab(*argv):
    """The finished process of ``gearlab argv`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "gearlab.cli", *map(str, argv)],
                          capture_output=True, text=True, env=fresh_env(), check=False)


def gearlab(*argv):
    """Exit code and stdout of ``gearlab argv`` in a fresh interpreter."""
    proc = fresh_gearlab(*argv)
    assert proc.stderr == ""
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("w", ["1e-300", "1e308"])
@pytest.mark.parametrize("argv", [
    ("markov", "--mode", "rational"), ("markov", "--mode", "float"),
    ("conjugate",), ("spectrum",), ("compare",),
], ids=["markov-rational", "markov-float", "conjugate-rational", "spectrum", "compare"])
def test_extreme_weights_exit_without_a_traceback(tmp_path, argv, w):
    """Every outcome at an extreme tooth weight is a documented exit code;
    a failure to validate or converge writes one message, anything else
    nothing, to stderr, and a walk spectrum lies in [-1, 1] with the
    Perron root 1."""
    if argv[0] in ("markov", "conjugate"):
        argv = (*argv, "--lengths", "1,2,3")
    else:
        a, b = _build_pair(tmp_path, "--lengths", "1,2,3")
        files = ("--graph", a) if argv[0] == "spectrum" else ("--graph1", a, "--graph2", b)
        argv = (*argv, *files, "--k-max", "4")
    proc = fresh_gearlab(*argv, "--w", w)
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode in (2, 3):
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("gearlab: ")
    else:
        assert proc.stderr == ""
    if argv[0] == "markov" and proc.returncode == 0:
        vals = json.loads(proc.stdout)["eigenvalues"]
        assert max(map(abs, vals)) <= 1 + 1e-12 and abs(vals[-1] - 1) <= 1e-12


@pytest.mark.parametrize("gear, w", [
    *((("--lengths", "1,2,3"), w) for w in ("1e-300", "1/3", "3/2", "1e20", "1e200", "1e308")),
    (("--lengths", "1,2,3", "--attach", "tht"), "3/2"),
], ids=["1e-300", "1/3", "3/2", "1e20", "1e200", "1e308", "tht-3/2"])
def test_float_and_rational_modes_agree(gear, w):
    """Both modes of `markov` build the same walk and print the same
    eigenvalues; float mode only omits the exact char poly."""
    walks = [fresh_gearlab("markov", *gear, "--w", w, "--mode", mode)
             for mode in ("rational", "float")]
    assert walks[0].returncode == walks[1].returncode == 0
    exact, fast = (json.loads(proc.stdout) for proc in walks)
    assert exact["eigenvalues"] == fast["eigenvalues"]
    assert "charpoly_num" in exact and "charpoly_num" not in fast


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: from w ~ 1e20 on, sigma_min_C is float rounding "
                          "noise; the exact C has smallest singular value 0.5535")
def test_conjugate_accepts_the_dual_pair_at_w_1e20(tmp_path):
    out = tmp_path / "conj.json"
    code = run("conjugate", "--lengths", "1,2,3", "--w", "1e20", "-o", str(out))
    report = json.loads(out.read_text())
    assert report["charpoly_equal"] is True
    assert report["conj_residual"] == 0
    assert report["sigma_min_C"] > 1e-8
    assert report["ok"] is True
    assert code == 0


def test_split_gear_file_scans_and_compares_like_the_api(tmp_path):
    # a degree-2 vertex on side 1 breaks the gear layout but not the
    # spectrum: the CLI checks graph files as metric graphs only
    primal = build_gear(FIG6)
    split = insert_degree_two_vertex(primal, 0)
    split_path, primal_path = tmp_path / "split.graph", tmp_path / "primal.graph"
    gio.write_graph(split, split_path)
    gio.write_graph(primal, primal_path)
    code, out = gearlab("spectrum", "--graph", split_path, "--k-max", "3")
    cond, params = VertexConditions(1.0), ScanParams(3.0)
    spectrum = scan_spectrum(gio.read_graph(split_path), cond, params)
    assert code == 0 and out == gio.spectrum_to_csv(spectrum)
    assert len(spectrum.entries) == 11
    code, out = gearlab("compare", "--graph1", split_path, "--graph2", primal_path,
                        "--k-max", "3")
    report = compare_spectra(spectrum, scan_spectrum(primal, cond, params))
    assert report["match"] and report["max_rel_gap"] < 1e-12
    assert code == 0 and out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_non_gear_star_scans_with_tooth_weight(tmp_path):
    # one polygon edge and two tooth edges at one centre: the classes only
    # choose the weight, so w still changes the spectrum
    star = tmp_path / "star.graph"
    gio.write_graph(MetricGraph(4, (Edge(0, 0, 1, 1.0, 1.0, POLYGON),
                                    Edge(1, 0, 2, 2.0, 1.0, TOOTH),
                                    Edge(2, 0, 3, 3.0, 1.0, TOOTH)), "star"), star)
    lams = {}
    for w in ("1", "2"):
        out = tmp_path / f"w{w}.csv"
        assert run("spectrum", "--graph", str(star), "--w", w, "--k-max", "3",
                   "-o", str(out)) == 0
        lams[w] = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert lams["1"] != lams["2"]
    assert abs(lams["1"][1] - 0.3788) < 1e-4 and abs(lams["2"][1] - 0.3864) < 1e-4


def test_every_graph_file_is_checked_before_any_scan(tmp_path, capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan_spectrum called before every file was checked")

    monkeypatch.setattr(spectral, "scan_spectrum", no_scan)
    ok, dup = tmp_path / "ok.graph", tmp_path / "dup.graph"
    assert run("build", "--lengths", "1,2,3", "-o", str(ok)) == 0
    dup.write_text("graph dup\nvertices 3\nedge 0 0 1 1 1 plain\nedge 0 1 2 1 1 plain\n")
    capsys.readouterr()
    assert run("compare", "--graph1", str(ok), "--graph2", str(dup), "--k-max", "3") == 2
    assert capsys.readouterr() == ("", f"gearlab: {dup}: edge 0: duplicate id\n")


@pytest.mark.parametrize("header", ["vertices 0", "vertices -2", "vertices 1"],
                         ids=["zero", "negative", "no-edges"])
def test_degenerate_graph_file_is_a_validation_error(tmp_path, capsys, header):
    bad = tmp_path / "bad.graph"
    bad.write_text(f"graph bad\n{header}\n")
    out = tmp_path / "out"
    for argv in (("spectrum", "--graph", str(bad)),
                 ("compare", "--graph1", str(bad), "--graph2", str(bad))):
        capsys.readouterr()
        assert run(*argv, "--k-max", "3", "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("gearlab: "), err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("command", [["zeta", "--seed", "1"], ["isomorphic"]], ids=lambda c: c[0])
def test_degenerate_digraph_file_is_a_validation_error(tmp_path, capsys, command, count):
    bad = tmp_path / "bad.digraph"
    bad.write_text(f"digraph bad\nvertices {count}\n")
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run(*command, "--g1", str(bad), "--g2", str(bad), "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("gearlab: "), err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("build", "--lengths", "1,2"), "need n >= 3 polygon sides, got 2"),
    (("build", "--fig3", "a", "--lengths", "1,2"), "variant a takes 3 lengths"),
    (("spectrum", "--graph", "{tmp}/ok.graph", "--k-max", "inf"),
     "k_max must be positive and finite"),
    (("compare", "--graph1", "{tmp}/bad.graph", "--graph2", "{tmp}/ok.graph", "--k-max", "3"),
     "{tmp}/bad.graph: line 2: unknown record 'foo'"),
    (("spectrum", "--graph", "{tmp}/toth.graph", "--k-max", "3"),
     "{tmp}/toth.graph: line 3: unknown edge class 'toth'"),
    (("spectrum", "--graph", "{tmp}/dup.graph", "--k-max", "3"),
     "{tmp}/dup.graph: edge 0: duplicate id"),
    (("compare", "--graph1", "{tmp}/dup.graph", "--graph2", "{tmp}/ok.graph", "--k-max", "3"),
     "{tmp}/dup.graph: edge 0: duplicate id"),
    (("build", "--digraph", "--lengths", "1e-10,1,1"),
     "digraph export needs positive integer lengths"),
    (("markov", "--lengths", "1e-10,1,1"), "edge 0: length 1e-10 is not a positive integer"),
    (("conjugate", "--lengths", "1e-10,1,1"),
     "edge 0: length 1e-10 is not a positive integer"),
    (("zeta", "--g1", "{tmp}/bad.digraph", "--g2", "{tmp}/loop.digraph", "--seed", "1"),
     "{tmp}/bad.digraph: line 2: unknown record 'foo'"),
    (("zeta", "--g1", "{tmp}/loop.digraph", "--g2", "{tmp}/loop.digraph", "--seed", "1"),
     "self-loops not supported"),
    (("isomorphic", "--g1", "{tmp}/par.digraph", "--g2", "{tmp}/par.digraph"),
     "parallel arcs not supported"),
], ids=["gear-spec", "fig3", "scan-params", "read-graph", "edge-class", "duplicate-id",
        "duplicate-id-first", "digraph", "markov", "conjugate", "read-digraph", "zeta",
        "isomorphic"])
def test_validation_failure_per_handler(tmp_path, capsys, argv, message):
    """One validation failure per subcommand handler: exit 2 and exactly one
    `gearlab: <message>` line on stderr, nothing on stdout.  A message about
    a file's records starts with its path; the pencil's own checks (self-loops,
    parallel arcs) name no file."""
    assert run("build", "--lengths", "1,2,3", "-o", str(tmp_path / "ok.graph")) == 0
    (tmp_path / "bad.graph").write_text("graph bad\nfoo 1\n")
    (tmp_path / "toth.graph").write_text("graph toth\nvertices 2\nedge 0 0 1 1 1 toth\n")
    (tmp_path / "dup.graph").write_text(
        "graph dup\nvertices 3\nedge 0 0 1 1 1 plain\nedge 0 1 2 1 1 plain\n")
    (tmp_path / "bad.digraph").write_text("digraph bad\nfoo 1\n")
    (tmp_path / "loop.digraph").write_text("digraph loop\nvertices 2\narc 0 0\narc 0 1\n")
    (tmp_path / "par.digraph").write_text("digraph par\nvertices 3\narc 0 1\narc 0 1\narc 1 2\n")
    capsys.readouterr()
    assert run(*(a.format(tmp=tmp_path) for a in argv)) == 2
    assert capsys.readouterr() == ("", f"gearlab: {message.format(tmp=tmp_path)}\n")


@pytest.mark.parametrize("name, text, command, message", [
    ("grow.graph", "graph g\nvertices 2\nvertices 3\nedge 0 0 1 1 1 plain\n"
     "edge 1 1 2 1 1 plain\n", ["spectrum", "--k-max", "3", "--graph"],
     "line 3: duplicate 'vertices' record"),
    ("two.graph", "graph a\nvertices 2\ngraph b\nedge 0 0 1 1 1 plain\n",
     ["spectrum", "--k-max", "3", "--graph"], "line 3: duplicate 'graph' record"),
    ("shrink.digraph", "digraph d\nvertices 3\narc 0 1\nvertices 2\narc 1 0\n",
     ["isomorphic", "--g2", "{path}", "--g1"], "line 4: duplicate 'vertices' record"),
    ("two.digraph", "digraph a\nvertices 2\narc 0 1\narc 1 0\ndigraph b\n",
     ["zeta", "--seed", "1", "--g2", "{path}", "--g1"], "line 5: duplicate 'digraph' record"),
], ids=["graph-vertices", "graph-name", "digraph-vertices", "digraph-name"])
def test_duplicate_header_record_is_a_validation_error(tmp_path, capsys, name, text, command,
                                                       message):
    """A file declares its name and vertex count once: a second `graph`,
    `digraph` or `vertices` record is rejected, not read over the first."""
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*(a.format(path=path) for a in command), str(path), "-o", str(out)) == 2
    assert capsys.readouterr() == ("", f"gearlab: {path}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("build", "--digraph", "--lengths", "2047,1,1"),
     "subdivision exceeds MAX_SUBDIVISION_VERTICES = 4096"),
    (("build", "--lengths", "1e400,1,1"), "bad lengths '1e400,1,1'"),
], ids=["digraph-too-large", "length-overflow"])
def test_oversized_gear_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "-o", str(out)) == 2
    assert capsys.readouterr() == ("", f"gearlab: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["markov", "conjugate"])
@pytest.mark.parametrize("extra", [
    ("--w", "abc"), ("--w", "1/0"), ("--w", "1e400"), ("--w", "0"), ("--w=-1/2",),
    ("--w", "1e-400"), ("--w", "inf"), ("--w", "nan"),
], ids=["text", "zero-denominator", "overflow", "zero", "negative", "underflow-float",
        "inf-float", "nan-float"])
def test_bad_weight_exits_2(capsys, command, extra):
    capsys.readouterr()
    assert run(command, "--lengths", "1,2,3", *extra) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("gearlab: "), err


def test_compare_mismatch_exit_code(tmp_path):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    run("build", "--lengths", "1,2,3", "-o", str(a))
    run("build", "--lengths", "1,2,4", "-o", str(b))
    assert run("compare", "--graph1", str(a), "--graph2", str(b),
               "--k-max", "4") == 4


def test_markov_charpoly_output(tmp_path):
    out = tmp_path / "markov.json"
    assert run("markov", "--lengths", "1,2,3", "--w", "3/2", "-o", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["size"] == 12
    assert len(rep["charpoly_num"]) == 13
    assert rep["charpoly_num"][-1] == 1 and rep["charpoly_den"][-1] == 1
    assert len(rep["eigenvalues"]) == 12


def test_conjugate_exact(tmp_path):
    out = tmp_path / "conj.json"
    assert run("conjugate", "--lengths", "1,2,3", "--w", "3/2", "-o", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["conj_residual"] == 0.0
    assert rep["charpoly_equal"] is True
    assert rep["ok"] is True


@pytest.mark.parametrize("w", ["7/1000003", "1e-300", "3/2"])
def test_conjugate_rejects_a_conjugator_off_by_one_over_its_denominator(monkeypatch, capsys,
                                                                        w):
    """One T entry off by 1/L makes M~ C - C M nonzero however small it is
    as a float (8.9e-27 at w = 7/1000003, below a double's smallest
    normal at 1e-300): the report's `ok` is false and `conjugate` exits 4."""
    build = markov.build_conjugator

    def off_by_one(src, dst):
        conj = build(src, dst)
        rows = [dict(row) for row in conj.T]
        rows[0][next(iter(rows[0]))] += 1
        return dataclasses.replace(conj, T=tuple(rows))

    monkeypatch.setattr(markov, "build_conjugator", off_by_one)
    capsys.readouterr()
    assert run("conjugate", "--lengths", "1,2,3", "--w", w) == 4
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_zeta_fig6(tmp_path):
    out = tmp_path / "zeta.json"
    assert run("zeta", "--fig6", "--trials", "20", "--seed", "7", "-o", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "equivalent-with-bound"
    assert rep["seed"] == 7


def test_zeta_requires_seed():
    with pytest.raises(SystemExit) as exc:
        run("zeta", "--fig6", "--trials", "5")
    assert exc.value.code == 2


def test_zeta_on_files(tmp_path):
    a, b = tmp_path / "a.digraph", tmp_path / "b.digraph"
    run("build", "--lengths", "1,2,3", "--digraph", "-o", str(a))
    run("build", "--lengths", "1,2,3", "--dual", "--digraph", "-o", str(b))
    out = tmp_path / "v.json"
    assert run("zeta", "--g1", str(a), "--g2", str(b),
               "--trials", "10", "--seed", "3", "-o", str(out)) == 0
    assert json.loads(out.read_text())["verdict"] == "equivalent-with-bound"


def test_zeta_conjugator(tmp_path):
    out = tmp_path / "t.json"
    base = tmp_path / "eta"
    assert run("zeta-conjugator", "--dump-eta", str(base), "-o", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] and rep["intertwines_y0"] and rep["det_matches"]
    dump_g = (tmp_path / "eta_g.poly").read_text()
    dump_gt = (tmp_path / "eta_gt.poly").read_text()
    assert dump_g == dump_gt                     # zeta-equivalent: identical dumps
    lines = dump_g.strip().splitlines()
    # monomials in lexicographic exponent order, all six symbols spelled out
    exps = [tuple(int(tok.split("^")[1]) for tok in line.split()[1:]) for line in lines]
    assert all(len(e) == 6 for e in exps)
    assert exps == sorted(exps)
    assert all(e[1] == 0 for e in exps)          # y^0 everywhere


@pytest.mark.parametrize("command", [["zeta", "--seed", "1"], ["isomorphic"]], ids=lambda c: c[0])
def test_digraph_pair_selection_errors(tmp_path, command):
    a = tmp_path / "a.digraph"
    run("build", "--lengths", "1,2,3", "--digraph", "-o", str(a))
    assert run(*command) == 2
    assert run(*command, "--g1", str(a)) == 2
    assert run(*command, "--g1", str(a), "--g2", str(tmp_path / "nope.digraph")) == 1
    assert run(*command, "--g1", str(tmp_path / "nope.digraph"), "--g2", str(a)) == 1
    assert run(*command, "--fig6", "--g1", str(tmp_path / "nope.digraph")) == 2
    assert run(*command, "--fig2", "--g1", str(a), "--g2", str(a)) == 2
    with pytest.raises(SystemExit) as exc:
        run(*command, "--fig2", "--fig6")
    assert exc.value.code == 2


def test_isomorphic_fixtures(tmp_path):
    out = tmp_path / "iso.json"
    assert run("isomorphic", "--fig6", "-o", str(out)) == 0
    assert json.loads(out.read_text())["isomorphic"] is False


def test_dual_with_attach_builds_the_dual_pattern(tmp_path):
    # tht with --dual is hth: the fig2 control pair, which zeta distinguishes
    a, b = tmp_path / "a.digraph", tmp_path / "b.digraph"
    gear = ("--lengths", "1,2,3", "--attach", "tht", "--digraph")
    assert run("build", *gear, "-o", str(a)) == 0
    assert run("build", *gear, "--dual", "-o", str(b)) == 0
    assert b.read_text() == gio.digraph_to_text(fig2_control_pair()[1])
    out = tmp_path / "zeta.json"
    assert run("zeta", "--g1", str(a), "--g2", str(b), "--seed", "11", "-o", str(out)) == 0
    assert json.loads(out.read_text())["verdict"] == "distinguished"


def test_zeta_fig2_distinguished(tmp_path):
    out = tmp_path / "v2.json"
    assert run("zeta", "--fig2", "--trials", "20", "--seed", "11", "-o", str(out)) == 0
    assert json.loads(out.read_text())["verdict"] == "distinguished"


def test_isomorphic_rejects_parallel_arcs(tmp_path, capsys):
    # neighbour sets cannot tell the arc multisets {01, 01, 12} and
    # {01, 12, 12} apart, so parallel arcs are a validation error
    a, b = tmp_path / "a.digraph", tmp_path / "b.digraph"
    a.write_text("digraph a\nvertices 3\narc 0 1\narc 0 1\narc 1 2\n")
    b.write_text("digraph b\nvertices 3\narc 0 1\narc 1 2\narc 1 2\n")
    out = tmp_path / "iso.json"
    capsys.readouterr()
    assert run("isomorphic", "--g1", str(a), "--g2", str(b), "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert "parallel arcs" in err and len(err.splitlines()) == 1, err
    assert not out.exists()


@pytest.mark.parametrize("arcs, message", [("arc 0 0\narc 0 1\n", "self-loops"),
                                           ("arc 0 1\narc 0 1\n", "parallel arcs")],
                         ids=["self-loop", "parallel"])
@pytest.mark.parametrize("other", [2, 3], ids=["other-size", "same-size"])
def test_zeta_rejects_unsupported_digraph_at_any_size(tmp_path, capsys, arcs, message, other):
    # validation comes before the vertex-count shortcut, so the exit code
    # does not depend on the other digraph's size
    bad, small = tmp_path / "bad.digraph", tmp_path / "small.digraph"
    bad.write_text(f"digraph bad\nvertices 3\n{arcs}")
    small.write_text(f"digraph small\nvertices {other}\narc 0 1\n")
    out = tmp_path / "v.json"
    for g1, g2 in ((bad, small), (small, bad)):
        capsys.readouterr()
        assert run("zeta", "--g1", str(g1), "--g2", str(g2), "--seed", "1", "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1, err
    assert not out.exists()
