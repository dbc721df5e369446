"""Command-line surface: exit codes, file outputs, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from gearlab import io as gio
from gearlab.cli import main
from gearlab.graphs import Edge, MetricGraph


DATA = pathlib.Path(__file__).parent / "data"
THTH = ("--lengths", "1.4142,1.7320508,2.2360679,1", "--attach", "thth")


def run(*argv):
    return main(list(argv))


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
        ["zeta-conjugator", "-o", str(tmp_path / "zc.json")],
        ["isomorphic", "--fig2", "-o", str(tmp_path / "iso.json")],
        ["markov", "--lengths", "1,2,3", "-o", str(tmp_path / "m.json")],
    ]
    script = ("import json, sys\n"
              "from gearlab.cli import main\n"
              "print(json.dumps([(main(argv), 'numpy' in sys.modules)\n"
              "                  for argv in json.loads(sys.argv[1])]))\n")
    src = str(pathlib.Path(gio.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout) == [[0, False]] * 5 + [[0, True]]


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


@pytest.mark.parametrize("lengths,extra,name", [
    ("1,2,3", (), "gear123_conjugate"),
    ("1,2,3", ("--mode", "float"), "gear123_float_conjugate"),
    ("1,2,3", ("--attach", "tht"), "gear123_tht_conjugate"),
    ("1,2,3,4,5,6,7,8", ("--mode", "float"), "gear1to8_float_conjugate"),
], ids=["rational", "float", "tht", "size72-float"])
def test_conjugate_matches_golden_file(tmp_path, lengths, extra, name):
    out = tmp_path / "conj.json"
    assert run("conjugate", "--lengths", lengths, "--w", "3/2", *extra, "-o", str(out)) == 0
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


@pytest.mark.parametrize("argv", [
    ("spectrum", "--graph", "g", "--k-max", "3", "--params", "grid_step=0.01"),
    ("compare", "--graph1", "g", "--graph2", "g", "--k-max", "3", "--tol", "1e-8"),
    ("build", "--lengths", "1,2,3", "--digraph", "--tooth-mode", "fig6"),
], ids=["params", "tol", "tooth-mode"])
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


def test_disconnected_graph_file_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    gio.write_graph(MetricGraph(4, (Edge(0, 0, 1, 1.0), Edge(1, 2, 3, 1.0))), bad)
    errors = []
    for argv in (("spectrum", "--graph", str(bad)),
                 ("compare", "--graph1", str(bad), "--graph2", str(bad))):
        capsys.readouterr()
        assert run(*argv, "--k-max", "3") == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "gearlab: not connected\n"


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


@pytest.mark.parametrize("command", ["markov", "conjugate"])
@pytest.mark.parametrize("extra", [
    ("--w", "abc"), ("--w", "1/0"), ("--w", "1e400"), ("--w", "0"), ("--w=-1/2",),
    ("--w", "1e-400", "--mode", "float"), ("--w", "inf", "--mode", "float"),
    ("--w", "nan", "--mode", "float"),
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
