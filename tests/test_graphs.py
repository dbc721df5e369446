"""Gear construction, duals, subdivisions, fixtures, and file round-trips."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gearlab.graphs import (MAX_SUBDIVISION_VERTICES, Digraph, Edge, GearSpec, GraphError,
                            MetricGraph, bipartition_sign, build_fig3_pair, build_gear,
                            digraph_paths, dual_gear, fig2_control_pair, fig6_digraph_pair,
                            gear_to_digraph, insert_degree_two_vertex, subdivide,
                            validate_metric)
from gearlab import io as gio


def arcs_1based(dg):
    return {(t + 1, h + 1) for t, h in dg.arcs}


# ---------------------------------------------------------------------------
# gear specs and metric gears
# ---------------------------------------------------------------------------

def test_build_gear_counts_123():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    assert g.vertex_count == 6
    assert g.edge_count == 6
    assert g.total_length() == 12


def test_build_gear_dual_counts_and_attachment():
    spec = GearSpec(3, (1, 2, 3), "primal")
    g, gd = build_gear(spec), build_gear(dual_gear(spec))
    assert gd.vertex_count == 6 and gd.edge_count == 6
    # primal tooth i attaches at side i's tail, dual at its head
    for i in range(3):
        assert g.edges[3 + i].tail == g.edges[i].tail
        assert gd.edges[3 + i].head == gd.edges[i].head


def test_dual_is_involution():
    spec = GearSpec(4, (1, 2, 1, 3), "primal", ("tail", "head", "head", "tail"))
    assert dual_gear(dual_gear(spec)) == spec


def test_dual_toggles_variant():
    assert dual_gear(GearSpec(3, (1, 2, 3), "primal")).variant == "dual"
    assert dual_gear(GearSpec(3, (1, 1, 1), "dual")).variant == "primal"


def test_gear_rejects_bad_specs():
    with pytest.raises(GraphError):
        GearSpec(2, (1, 1))
    with pytest.raises(GraphError):
        GearSpec(3, (1, 0, 1))
    with pytest.raises(GraphError):
        GearSpec(3, (1, 1, 1), "both")
    with pytest.raises(GraphError):
        GearSpec(3, (1, 1, 1), attachments=("tail", "up", "head"))


@pytest.mark.parametrize("kwargs, message", [
    ({"lengths": (1, 2)}, "^expected 3 lengths, got 2$"),
    ({"lengths": (1, 2, 3, 4)}, "^expected 3 lengths, got 4$"),
    ({"lengths": (1, 2, 3), "attachments": ("tail", "head")},
     "^attachment pattern must have one entry per tooth$"),
], ids=["short-lengths", "long-lengths", "short-attachments"])
def test_gear_spec_rejects_wrong_counts(kwargs, message):
    with pytest.raises(GraphError, match=message):
        GearSpec(3, **kwargs)


@pytest.mark.parametrize("tail, head", [(0, 2), (-1, 0), (2, 0)])
def test_endpoint_out_of_range_raises(tail, head):
    with pytest.raises(GraphError, match="^edge 7 endpoint out of range$"):
        MetricGraph(2, (Edge(7, tail, head, 1.0),))
    with pytest.raises(GraphError, match="^arc endpoint out of range$"):
        Digraph(2, ((tail, head),))


def test_digraph_size_is_bounded():
    assert Digraph(MAX_SUBDIVISION_VERTICES, ((0, 1),)).vertex_count == MAX_SUBDIVISION_VERTICES
    with pytest.raises(GraphError, match="^digraph of 4097 vertices exceeds "
                                         "MAX_SUBDIVISION_VERTICES = 4096$"):
        Digraph(MAX_SUBDIVISION_VERTICES + 1, ((0, 1),))


@pytest.mark.parametrize("length", [math.inf, -math.inf, math.nan, 0, -1, Fraction(-1, 2)])
def test_gear_spec_lengths_must_be_positive_and_finite(length):
    with pytest.raises(GraphError, match="^all lengths must be positive and finite$"):
        GearSpec(3, (1, 2, length))


@settings(deadline=None, max_examples=40)
@given(st.integers(3, 7), st.data())
def test_gear_degree_profile(n, data):
    lengths = tuple(data.draw(st.integers(1, 4)) for _ in range(n))
    attach = tuple(data.draw(st.sampled_from(["tail", "head"])) for _ in range(n))
    g = build_gear(GearSpec(n, lengths, "primal", attach))
    assert validate_metric(g) == []
    # the sides run once round the polygon; tooth i shares side i's length
    # and the end it is attached at
    assert [(e.tail, e.head) for e in g.edges[:n]] == [(i, (i + 1) % n) for i in range(n)]
    for side, tooth, end in zip(g.edges[:n], g.edges[n:], attach):
        assert tooth.length == side.length
        assert tooth.tail == side.tail if end == "tail" else tooth.head == side.head
    deg = g.degrees()
    leaves = [v for v in range(g.vertex_count) if deg[v] == 1]
    assert len(leaves) == n
    assert all(deg[v] in (2, 3, 4) for v in range(n))


def test_validate_reports_violations():
    g = MetricGraph(3, (Edge(0, 0, 1, 1.0), Edge(1, 1, 2, 0.0)))
    assert validate_metric(g) == ["edge 1: length must be positive and finite"]
    g2 = MetricGraph(4, (Edge(0, 0, 1, 1.0), Edge(1, 2, 3, 1.0)))
    assert "not connected" in validate_metric(g2)
    assert validate_metric(build_gear(GearSpec(3, (1, 1, 1)))) == []


def test_validate_reports_too_few_edges_before_any_per_vertex_list():
    # a connected graph has at most edge_count + 1 vertices, so one edge
    # among two million vertices is "not connected" at no per-vertex cost
    g = MetricGraph(2_000_000, (Edge(0, 0, 1, 1.0),))
    tracemalloc.start()
    try:
        problems = validate_metric(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problems == ["not connected"]
    assert peak < 1 << 20


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_degree_two_vertex_splits_strictly_inside_the_edge(fraction):
    with pytest.raises(GraphError, match="^fraction must lie strictly between 0 and 1$"):
        insert_degree_two_vertex(build_gear(GearSpec(3, (1, 2, 3))), 0, fraction)


@pytest.mark.parametrize("edge, problem", [
    (Edge(1, 1, 1, 1.0), "edge 1: loop edges are not supported"),
    (Edge(1, 0, 1, math.inf), "edge 1: length must be positive and finite"),
    (Edge(1, 0, 1, math.nan), "edge 1: length must be positive and finite"),
    (Edge(1, 0, 1, 1.0, 0.0), "edge 1: weight must be positive and finite"),
    (Edge(1, 0, 1, 1.0, math.inf), "edge 1: weight must be positive and finite"),
    (Edge(1, 0, 1, 1.0, math.nan), "edge 1: weight must be positive and finite"),
    (Edge(0, 1, 0, 1.0), "edge 0: duplicate id"),
], ids=["loop", "length-inf", "length-nan", "weight-zero", "weight-inf", "weight-nan",
        "duplicate-id"])
def test_validate_reports_each_bad_edge(edge, problem):
    g = MetricGraph(2, (Edge(0, 0, 1, 1.0), edge))
    assert validate_metric(g) == [problem]


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------

def test_subdivide_counts():
    cg = subdivide(build_gear(GearSpec(3, (1, 2, 3), "primal")))
    assert cg.vertex_count == 12 and len(cg.edges) == 12
    cg = subdivide(build_gear(GearSpec(3, (1, 1, 1), "primal")))
    assert cg.vertex_count == 6 and len(cg.edges) == 6


def test_subdivide_preserves_total_length():
    g = build_gear(GearSpec(4, (2, 3, 1, 4), "dual"))
    cg = subdivide(g)
    assert len(cg.edges) == g.total_length()


def test_subdivide_bipartite_iff_even_cycle():
    assert bipartition_sign(subdivide(build_gear(GearSpec(3, (1, 2, 3))))) is not None
    assert bipartition_sign(subdivide(build_gear(GearSpec(3, (1, 1, 1))))) is None


def test_subdivide_rejects_non_integer():
    with pytest.raises(GraphError):
        subdivide(build_gear(GearSpec(3, (1.0, 1.5, 1.0))))


def test_subdivision_size_is_bounded_before_allocation():
    # a gear has 2 sum(lengths) subdivision and digraph vertices
    top = MAX_SUBDIVISION_VERTICES // 2 - 2
    at_bound = GearSpec(3, (top, 1, 1))
    assert subdivide(build_gear(at_bound)).vertex_count == MAX_SUBDIVISION_VERTICES
    labels = {v for side, tooth in digraph_paths(at_bound) for v in side + tooth}
    assert len(labels) == MAX_SUBDIVISION_VERTICES
    for lengths in ((top + 1, 1, 1), (10 ** 11, 1, 1)):
        spec = GearSpec(3, lengths)
        with pytest.raises(GraphError, match="MAX_SUBDIVISION_VERTICES = 4096"):
            subdivide(build_gear(spec))
        with pytest.raises(GraphError, match="MAX_SUBDIVISION_VERTICES = 4096"):
            digraph_paths(spec)


def test_subdivide_paths():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    cg = subdivide(g)
    for e in g.edges:
        path = cg.paths[e.id]
        assert path[0] == e.tail and path[-1] == e.head
        assert len(path) == int(e.length) + 1


def test_bipartition_sign_two_colors():
    cg = subdivide(build_gear(GearSpec(3, (1, 2, 3))))
    s = bipartition_sign(cg)
    assert set(s) == {1, -1}
    for u, v, _ in cg.edges:
        assert s[u] == -s[v]


# ---------------------------------------------------------------------------
# digraph exports
# ---------------------------------------------------------------------------

FIG6_G = {(6, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
          (6, 7), (1, 8), (8, 9), (3, 10), (10, 11), (11, 12)}
FIG6_GT = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
           (2, 7), (4, 9), (9, 8), (1, 12), (12, 11), (11, 10)}


def test_fig6_pair_matches_reference_drawing():
    g, gt = fig6_digraph_pair()
    assert g.vertex_count == 12 and gt.vertex_count == 12
    assert arcs_1based(g) == FIG6_G
    assert arcs_1based(gt) == FIG6_GT


def test_fig6_vertex3_neighborhood():
    # in-arc from 2, out-arcs to 4 and 10 (1-based labels)
    g, _ = fig6_digraph_pair()
    arcs = arcs_1based(g)
    assert (2, 3) in arcs and (3, 4) in arcs and (3, 10) in arcs
    assert sum(1 for t, h in arcs if t == 3) == 2
    assert sum(1 for t, h in arcs if h == 3) == 1


def test_gear_to_digraph_counts():
    dg = gear_to_digraph(GearSpec(3, (1, 1, 1), "primal"))
    assert dg.vertex_count == 6 and len(dg.arcs) == 6
    dg = gear_to_digraph(GearSpec(3, (1, 2, 3), "dual"))
    assert len(dg.arcs) == 2 * 6


def test_fig2_control_pair_shape():
    a, b = fig2_control_pair((1, 2, 3))
    assert a.vertex_count == b.vertex_count == 12
    assert len(a.arcs) == len(b.arcs) == 12
    # mixed attachment: one polygon vertex of degree 4, one of degree 2
    deg = [0] * 12
    for t, h in a.arcs:
        deg[t] += 1
        deg[h] += 1
    assert sorted(deg).count(4) >= 1


# ---------------------------------------------------------------------------
# fig3 fixture pairs
# ---------------------------------------------------------------------------

def test_fig3a_counts_and_handshake():
    left, right = build_fig3_pair("a", (1, 2, 3))
    for g in (left, right):
        assert g.vertex_count == 8
        assert g.edge_count == 15
        assert sum(g.degrees()) == 2 * g.edge_count
        assert validate_metric(g) == []
    assert sorted(left.degrees()) == sorted(right.degrees()) == [1, 1, 1, 3, 3, 4, 7, 10]


def test_fig3b_counts_and_handshake():
    left, right = build_fig3_pair("b", (1, 1, 1, 1))
    for g in (left, right):
        assert g.edge_count == 12
        assert g.vertex_count == 11
        assert sum(g.degrees()) == 24
        assert validate_metric(g) == []


def test_fig3_length_multisets_agree():
    for variant, lengths in (("a", (1, 2, 3)), ("b", (1, 2, 3, 4))):
        left, right = build_fig3_pair(variant, lengths)
        assert sorted(e.length for e in left.edges) == sorted(e.length for e in right.edges)


def test_fig3_rejects_wrong_arity():
    with pytest.raises(GraphError):
        build_fig3_pair("a", (1, 2, 3, 4))
    with pytest.raises(GraphError):
        build_fig3_pair("b", (1, 2, 3))
    with pytest.raises(GraphError):
        build_fig3_pair("c", (1, 2, 3))


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def test_graph_text_roundtrip(tmp_path):
    g = build_gear(GearSpec(3, (1, 2.5, 3), "dual"))
    path = tmp_path / "gear.graph"
    gio.write_graph(g, path)
    back = gio.read_graph(path)
    assert back.vertex_count == g.vertex_count
    assert back.edges == g.edges
    assert back.name == g.name


def test_digraph_text_roundtrip(tmp_path):
    dg, _ = fig6_digraph_pair()
    path = tmp_path / "g.digraph"
    gio.write_digraph(dg, path)
    assert gio.read_digraph(path).arc_set() == dg.arc_set()


def test_graph_text_comments_and_errors():
    text = "# header\ngraph demo\nvertices 2\nedge 0 0 1 1.0 1.0 plain # trailing\n"
    g = gio.graph_from_text(text)
    assert g.edge_count == 1
    with pytest.raises(GraphError):
        gio.graph_from_text("vertices 2\n")
    with pytest.raises(GraphError):
        gio.graph_from_text("graph x\nvertices 2\nedge 0 0\n")


@pytest.mark.parametrize("read, text, message", [
    (gio.graph_from_text, "graph x\nvertices 2\nfoo 1\n", "line 3: unknown record 'foo'"),
    (gio.graph_from_text, "graph x\narc 0 1\n", "line 2: unknown record 'arc'"),
    (gio.graph_from_text, "graph x\nvertices two\n", "line 2: malformed record"),
    (gio.graph_from_text, "graph x\nvertices 2\nedge 0 0 1 1 1\n", "line 3: malformed record"),
    (gio.graph_from_text, "graph x\nvertices 2\nedge 0 0 1 1 1 toth\n",
     "line 3: unknown edge class 'toth'"),
    (gio.graph_from_text, "graph x\n", "missing graph/vertices header"),
    (gio.digraph_from_text, "digraph x\nedge 0 0 1 1 1 plain\n",
     "line 2: unknown record 'edge'"),
    (gio.digraph_from_text, "digraph x\nvertices 2\narc 0\n", "line 3: malformed record"),
    (gio.digraph_from_text, "vertices 2\n", "missing digraph/vertices header"),
    # a field past the layout is an error, not ignored: a shifted column
    # would otherwise drop the tooth class without a word
    (gio.graph_from_text, "graph x\nvertices 2\nedge 0 0 1 1 1 plain tooth\n",
     "line 3: malformed record"),
    (gio.graph_from_text, "graph my x\nvertices 2\n", "line 1: malformed record"),
    (gio.digraph_from_text, "digraph x\nvertices 2\narc 0 1 2\n", "line 3: malformed record"),
], ids=["graph-unknown", "graph-arc", "graph-vertices", "graph-edge", "edge-class",
        "graph-header", "digraph-edge", "digraph-arc", "digraph-header", "graph-edge-extra",
        "graph-header-extra", "digraph-arc-extra"])
def test_record_reader_errors(read, text, message):
    with pytest.raises(gio.FormatError, match=f"^{message}$"):
        read(text)
