"""Command-line surface: exit codes, file outputs, determinism."""

import json
import math

import pytest

from gearlab import io as gio
from gearlab.cli import main
from gearlab.graphs import Edge, MetricGraph


def run(*argv):
    return main(list(argv))


def test_build_writes_gear_file(tmp_path):
    out = tmp_path / "gear.graph"
    assert run("build", "--lengths", "1,2,3", "--dual", "-o", str(out)) == 0
    g = gio.read_graph(out)
    assert g.vertex_count == 6 and g.edge_count == 6


def test_build_rejects_small_n(tmp_path):
    out = tmp_path / "bad.graph"
    assert run("build", "--n", "2", "--lengths", "1,2", "-o", str(out)) == 2
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


def test_isomorphic_fixtures(tmp_path):
    out = tmp_path / "iso.json"
    assert run("isomorphic", "--fig6", "-o", str(out)) == 0
    assert json.loads(out.read_text())["isomorphic"] is False


def test_zeta_fig2_distinguished(tmp_path):
    out = tmp_path / "v2.json"
    assert run("zeta", "--fig2", "--trials", "20", "--seed", "11", "-o", str(out)) == 0
    assert json.loads(out.read_text())["verdict"] == "distinguished"
