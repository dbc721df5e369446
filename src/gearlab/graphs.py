"""Gear graphs, their duals, unit subdivisions, and digraph exports.

An n-gear is a polygon with n sides of lengths l_1..l_n plus n pendant
"teeth" of the same lengths, tooth i sharing one endpoint with side i.
Flipping every tooth to the other endpoint of its side gives the dual
gear.  Edges are oriented so the polygon is a directed cycle and each
tooth is parameterized head-to-head or tail-to-tail with its side:

  * attachment at the side's tail  -> tooth runs polygon -> leaf,
  * attachment at the side's head  -> tooth runs leaf -> polygon.

The ``primal`` variant attaches every tooth at its side's tail, ``dual``
at the head; mixed per-tooth patterns are supported through
``GearSpec.attachments`` (needed for the fixture pairs below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

POLYGON = "polygon"
TOOTH = "tooth"
PLAIN = "plain"

_VARIANTS = ("primal", "dual")
_ENDS = ("tail", "head")
# most vertices of a unit subdivision or digraph: the walk's dense n x n
# float matrices then take 128 MiB each
MAX_SUBDIVISION_VERTICES = 4096
_TOO_LARGE = f"subdivision exceeds MAX_SUBDIVISION_VERTICES = {MAX_SUBDIVISION_VERTICES}"
# most rows (2m) of the secular system that scans a metric graph: its dense
# 2m x 2m float matrices then take 32 MiB each
MAX_SECULAR_SIZE = 2048


class GearlabError(ValueError):
    """Base of the errors that the CLI reports as validation failures."""


class GraphError(GearlabError):
    """Invalid graph construction or validation failure."""


@dataclass(frozen=True)
class GearSpec:
    """Combinatorial description of an n-gear.

    ``lengths[i]`` is shared by side i and tooth i.  ``attachments``
    optionally fixes, per tooth, which endpoint of its side it uses;
    when omitted it is derived from ``variant``.
    """

    n: int
    lengths: tuple
    variant: str = "primal"
    attachments: tuple | None = None

    def __post_init__(self):
        if self.n < 3:
            raise GraphError(f"need n >= 3 polygon sides, got {self.n}")
        object.__setattr__(self, "lengths", tuple(self.lengths))
        if len(self.lengths) != self.n:
            raise GraphError(f"expected {self.n} lengths, got {len(self.lengths)}")
        if any(not (0 < l < math.inf) for l in self.lengths):
            raise GraphError("all lengths must be positive and finite")
        if self.variant not in _VARIANTS:
            raise GraphError(f"variant must be one of {_VARIANTS}")
        if self.attachments is not None:
            object.__setattr__(self, "attachments", tuple(self.attachments))
            if len(self.attachments) != self.n:
                raise GraphError("attachment pattern must have one entry per tooth")
            if any(a not in _ENDS for a in self.attachments):
                raise GraphError(f"attachments must be one of {_ENDS}")

    @property
    def tooth_ends(self) -> tuple:
        """Per-tooth attachment endpoint ('tail' or 'head') of each side."""
        if self.attachments is not None:
            return self.attachments
        return ("tail",) * self.n if self.variant == "primal" else ("head",) * self.n

    def is_integral(self) -> bool:
        """Whether every length is a positive integer under `_unit_count`."""
        return all(_unit_count(l) for l in self.lengths)


def _unit_count(length) -> int | None:
    """round(length) when it is at least 1 and within 1e-9 of length, else
    None: the one rule for a length that subdivides into unit edges."""
    r = int(round(length))
    return r if r >= 1 and abs(length - r) <= 1e-9 else None


# the primal gear of the fig6 pair
FIG6 = GearSpec(3, (1, 2, 3))


def dual_gear(spec: GearSpec) -> GearSpec:
    """Attach every tooth at the other endpoint of its side."""
    variant = "dual" if spec.variant == "primal" else "primal"
    attachments = None
    if spec.attachments is not None:
        attachments = tuple("head" if a == "tail" else "tail" for a in spec.attachments)
    return GearSpec(spec.n, spec.lengths, variant, attachments)


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    length: float
    weight: float = 1.0
    cls: str = PLAIN


@dataclass(frozen=True)
class MetricGraph:
    """Finite metric graph with oriented, weighted edges.

    Edge i is parameterized by x in [0, length]; x = 0 at the tail.
    An edge's class only chooses its weight (tooth edges carry the w of
    `spectral.VertexConditions`); the gear layout is not checked.
    Parallel edges are allowed; loop edges (tail == head) fail
    `validate_metric` and the secular system, and a loop split by a
    degree-2 vertex (`insert_degree_two_vertex`) has the same spectrum.
    Immutable after construction.
    """

    vertex_count: int
    edges: tuple
    name: str = "graph"

    def __post_init__(self):
        if self.vertex_count < 1:
            raise GraphError(f"need at least one vertex, got {self.vertex_count}")
        object.__setattr__(self, "edges", tuple(self.edges))
        for e in self.edges:
            if not (0 <= e.tail < self.vertex_count and 0 <= e.head < self.vertex_count):
                raise GraphError(f"edge {e.id} endpoint out of range")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def total_length(self) -> float:
        return sum(e.length for e in self.edges)

    def incidences(self):
        """Per vertex, the list of (edge_index, end) with end 0=tail, 1=head."""
        inc = [[] for _ in range(self.vertex_count)]
        for i, e in enumerate(self.edges):
            inc[e.tail].append((i, 0))
            inc[e.head].append((i, 1))
        return inc

    def degrees(self):
        return [len(inc) for inc in self.incidences()]


@dataclass(frozen=True)
class CombinatorialGraph:
    """Unit-length subdivision of a metric graph.

    ``paths[edge_id]`` lists the subdivided vertices of that edge in
    tail-to-head order, so slot j sits at distance j from the tail.
    """

    vertex_count: int
    edges: tuple          # (u, v, cls) unit edges
    paths: dict


@dataclass(frozen=True)
class Digraph:
    """A digraph on vertices 0..vertex_count-1; GraphError for no vertex,
    more than MAX_SUBDIVISION_VERTICES, or an arc endpoint out of range."""

    vertex_count: int
    arcs: tuple
    name: str = "digraph"

    def __post_init__(self):
        if self.vertex_count < 1:
            raise GraphError(f"need at least one vertex, got {self.vertex_count}")
        if self.vertex_count > MAX_SUBDIVISION_VERTICES:
            raise GraphError(f"digraph of {self.vertex_count} vertices exceeds "
                             f"MAX_SUBDIVISION_VERTICES = {MAX_SUBDIVISION_VERTICES}")
        object.__setattr__(self, "arcs", tuple(self.arcs))
        for t, h in self.arcs:
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise GraphError("arc endpoint out of range")

    def arc_set(self):
        return frozenset(self.arcs)


def build_gear(spec: GearSpec) -> MetricGraph:
    """Metric realization of a gear: 2n vertices, 2n edges.

    Polygon vertices are 0..n-1 (side i runs i -> i+1 mod n), leaves are
    n..2n-1 (leaf n+i belongs to tooth i).
    """
    n = spec.n
    edges = []
    for i in range(n):
        edges.append(Edge(i, i, (i + 1) % n, float(spec.lengths[i]), 1.0, POLYGON))
    for i, end in enumerate(spec.tooth_ends):
        leaf = n + i
        attach = i if end == "tail" else (i + 1) % n
        tail, head = (attach, leaf) if end == "tail" else (leaf, attach)
        edges.append(Edge(n + i, tail, head, float(spec.lengths[i]), 1.0, TOOTH))
    return MetricGraph(2 * n, tuple(edges), f"gear_n{n}_{spec.variant}")


def _two_colouring(vertex_count, pairs):
    """The +-1 colouring, with sign 1 at vertex 0, of the vertices that the
    undirected ``pairs`` reach from vertex 0 (0 where unreached), and
    whether it is proper: no pair joins two vertices of one sign."""
    sign = [1] + [0] * (vertex_count - 1)
    adj = [[] for _ in range(vertex_count)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    proper = True
    queue = [0]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if sign[v] == 0:
                sign[v] = -sign[u]
                queue.append(v)
            elif sign[v] == sign[u]:
                proper = False
    return sign, proper


def validate_metric(g: MetricGraph) -> list:
    """The violated invariants of g as a metric graph that a scan can take
    (empty means valid); the gear layout is not checked."""
    report = []
    if not g.edges:
        report.append("no edges")
    if 2 * g.edge_count > MAX_SECULAR_SIZE:
        report.append(f"secular system of {2 * g.edge_count} rows exceeds "
                      f"MAX_SECULAR_SIZE = {MAX_SECULAR_SIZE}")
    seen = set()
    for e in g.edges:
        if e.tail == e.head:
            # at k l in 2 pi Z the secular row pairing the loop's ends
            # vanishes, and row normalisation would hide that rank drop
            report.append(f"edge {e.id}: loop edges are not supported")
        for name in ("length", "weight"):
            if not (0 < getattr(e, name) < math.inf):
                report.append(f"edge {e.id}: {name} must be positive and finite")
        if e.id in seen:
            report.append(f"edge {e.id}: duplicate id")
        seen.add(e.id)
    # a connected graph has at most edge_count + 1 vertices: test that first
    pairs = [(e.tail, e.head) for e in g.edges]
    if g.vertex_count > len(pairs) + 1 or 0 in _two_colouring(g.vertex_count, pairs)[0]:
        report.append("not connected")
    return report


def _integer_length(e: Edge) -> int:
    l = _unit_count(e.length)
    if l is None:
        raise GraphError(f"edge {e.id}: length {e.length} is not a positive integer")
    return l


def subdivide(g: MetricGraph) -> CombinatorialGraph:
    """Replace each edge of integer length l by a path of l unit edges.

    Original vertex ids are preserved; subdivision vertices are appended
    edge by edge in tail-to-head order.  More than MAX_SUBDIVISION_VERTICES
    vertices raise GraphError before anything is allocated.
    """
    lengths = [_integer_length(e) for e in g.edges]
    if g.vertex_count + sum(lengths) - len(lengths) > MAX_SUBDIVISION_VERTICES:
        raise GraphError(_TOO_LARGE)
    edges = []
    paths = {}
    next_id = g.vertex_count
    for e, l in zip(g.edges, lengths):
        path = [e.tail]
        for _ in range(l - 1):
            path.append(next_id)
            next_id += 1
        path.append(e.head)
        paths[e.id] = tuple(path)
        for a, b in zip(path[:-1], path[1:]):
            edges.append((a, b, e.cls))
    return CombinatorialGraph(next_id, tuple(edges), paths)


def bipartition_sign(cg: CombinatorialGraph):
    """Two-coloring of a connected graph as a +-1 vector, or None if odd cycle."""
    sign, proper = _two_colouring(cg.vertex_count, ((u, v) for u, v, _ in cg.edges))
    return sign if proper else None


# ---------------------------------------------------------------------------
# digraph exports
# ---------------------------------------------------------------------------

def digraph_lengths(spec: GearSpec) -> list:
    """The lengths of `spec` as ints for a digraph export.  GraphError for
    a length that is not a positive integer under `_unit_count` or more than
    MAX_SUBDIVISION_VERTICES vertices."""
    lengths = [_unit_count(l) for l in spec.lengths]
    if None in lengths:
        raise GraphError("digraph export needs positive integer lengths")
    if 2 * sum(lengths) > MAX_SUBDIVISION_VERTICES:
        raise GraphError(_TOO_LARGE)
    return lengths


def digraph_paths(spec: GearSpec) -> tuple:
    """Per index i, the digraph labels of side i and of tooth i, both in
    metric (tail-to-head) order.  Cycle labels start at the endpoint of
    side 1 not carrying tooth 1 and increase along the cycle; tooth
    vertices are numbered along each path, teeth in order; 0-based.
    Lengths are checked by `digraph_lengths`.
    """
    lengths = digraph_lengths(spec)
    total = sum(lengths)
    # label 1 (0-based: 0) goes to the tooth-free endpoint of side 1
    pos = -lengths[0] if spec.tooth_ends[0] == "tail" else 0
    fresh = total
    paths = []
    for l, end in zip(lengths, spec.tooth_ends):
        side = tuple((pos + k) % total for k in range(l + 1))
        leaves = tuple(range(fresh, fresh + l))
        paths.append((side, side[:1] + leaves if end == "tail" else leaves + side[-1:]))
        pos += l
        fresh += l
    return tuple(paths)


def gear_to_digraph(spec: GearSpec) -> Digraph:
    """Subdivided gear as a simple digraph with the labels of `digraph_paths`.

    The orientation is that of the paper's Fig. 6: polygon arcs follow
    the cycle and every tooth points away from the polygon.
    """
    paths = digraph_paths(spec)
    arcs = [arc for side, _ in paths for arc in zip(side[:-1], side[1:])]
    for (_, tooth), end in zip(paths, spec.tooth_ends):
        out = tooth if end == "tail" else tooth[::-1]
        arcs.extend(zip(out[:-1], out[1:]))
    # connected with one cycle: as many vertices as arcs
    return Digraph(len(arcs), tuple(arcs), f"gear_n{spec.n}_{spec.variant}_fig6")


def fig6_digraph_pair():
    """The reference zeta-equivalent digraph pair (catalog id fig6)."""
    return gear_to_digraph(FIG6), gear_to_digraph(dual_gear(FIG6))


def fig2_control_pair(lengths=(1, 2, 3)):
    """Negative-control pair (catalog id fig2): mixed tooth attachments."""
    top = GearSpec(3, lengths, "primal", attachments=("tail", "head", "tail"))
    return gear_to_digraph(top), gear_to_digraph(dual_gear(top))


# ---------------------------------------------------------------------------
# expanded fixture pairs (catalog id fig3)
# ---------------------------------------------------------------------------

def _plain_graph(vertex_count, raw_edges, name):
    edges = tuple(Edge(i, t, h, float(l), 1.0, PLAIN)
                  for i, (t, h, l) in enumerate(raw_edges))
    return MetricGraph(vertex_count, edges, name)


def build_fig3_pair(variant: str, lengths):
    """Isospectral pair with plain Kirchhoff conditions (catalog id fig3).

    Variant ``a`` (3 lengths): central triangle with every side doubled;
    per corner either 3 pendant leaves or a bundle of 3 parallel edges.
    Variant ``b`` (4 lengths): square with single sides and doubled
    teeth (pairs of leaves or 2-edge bundles).
    """
    lengths = tuple(lengths)
    if variant == "a":
        if len(lengths) != 3:
            raise GraphError("variant a takes 3 lengths")
        a, b, c = lengths
        # corners 0,1,2; a-leaves 3,4,5; bundle endpoints 6 (b), 7 (c)
        left = _plain_graph(8, [
            (0, 1, a), (0, 1, a), (1, 2, b), (1, 2, b), (2, 0, c), (2, 0, c),
            (0, 3, a), (0, 4, a), (0, 5, a),
            (2, 6, b), (2, 6, b), (2, 6, b),
            (2, 7, c), (2, 7, c), (2, 7, c),
        ], "fig3a_left")
        right = _plain_graph(8, [
            (0, 1, a), (0, 1, a), (1, 2, b), (1, 2, b), (2, 0, c), (2, 0, c),
            (1, 3, a), (1, 4, a), (1, 5, a),
            (1, 6, b), (1, 6, b), (1, 6, b),
            (0, 7, c), (0, 7, c), (0, 7, c),
        ], "fig3a_right")
        return left, right
    if variant == "b":
        if len(lengths) != 4:
            raise GraphError("variant b takes 4 lengths")
        a, b, c, d = lengths
        # square corners 0..3; leaves 4..10 as annotated below
        left = _plain_graph(11, [
            (0, 1, a), (1, 2, b), (2, 3, c), (3, 0, d),
            (0, 4, a), (0, 5, a),
            (1, 6, b), (1, 7, b),
            (2, 8, c), (2, 8, c),
            (0, 9, d), (0, 10, d),
        ], "fig3b_left")
        right = _plain_graph(11, [
            (0, 1, c), (1, 2, b), (2, 3, a), (3, 0, d),
            (2, 4, a), (2, 5, a),
            (1, 6, b), (1, 7, b),
            (0, 8, c), (0, 8, c),
            (0, 9, d), (0, 10, d),
        ], "fig3b_right")
        return left, right
    raise GraphError("fig3 variant must be 'a' or 'b'")


def insert_degree_two_vertex(g: MetricGraph, edge_index: int, fraction: float = 0.5) -> MetricGraph:
    """Split one edge at the given fraction by a dummy degree-2 vertex."""
    if not (0 < fraction < 1):
        raise GraphError("fraction must lie strictly between 0 and 1")
    e = g.edges[edge_index]
    mid = g.vertex_count
    first = Edge(e.id, e.tail, mid, e.length * fraction, e.weight, e.cls)
    second = Edge(len(g.edges), mid, e.head, e.length * (1 - fraction), e.weight, e.cls)
    edges = list(g.edges)
    edges[edge_index] = first
    edges.append(second)
    return MetricGraph(g.vertex_count + 1, tuple(edges), g.name + "_split")
