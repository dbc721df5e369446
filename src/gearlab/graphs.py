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

from dataclasses import dataclass

POLYGON = "polygon"
TOOTH = "tooth"
PLAIN = "plain"

_VARIANTS = ("primal", "dual")
_ENDS = ("tail", "head")


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
        if any(not (l > 0) for l in self.lengths):
            raise GraphError("all lengths must be positive")
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
        return all(abs(l - round(l)) < 1e-9 for l in self.lengths)


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
    Parallel edges are allowed.  Immutable after construction.
    """

    vertex_count: int
    edges: tuple
    name: str = "graph"

    def __post_init__(self):
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
        deg = [0] * self.vertex_count
        for e in self.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        return deg


@dataclass(frozen=True)
class CombinatorialGraph:
    """Unit-length subdivision of a metric graph.

    ``paths[edge_id]`` lists the subdivided vertices of that edge in
    tail-to-head order, so slot j sits at distance j from the tail.
    """

    vertex_count: int
    edges: tuple          # (u, v, cls) unit edges
    vertex_roles: dict
    paths: dict

    def is_bipartite(self) -> bool:
        return bipartition_sign(self) is not None


@dataclass(frozen=True)
class Digraph:
    vertex_count: int
    arcs: tuple
    name: str = "digraph"

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        for t, h in self.arcs:
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise GraphError("arc endpoint out of range")

    def arc_set(self):
        return frozenset(self.arcs)


def build_gear(spec: GearSpec, name: str | None = None) -> MetricGraph:
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
    if name is None:
        name = f"gear_n{n}_{spec.variant}"
    return MetricGraph(2 * n, tuple(edges), name)


def connected_components(vertex_count, pairs):
    """Union-find over undirected vertex pairs; returns component count."""
    parent = list(range(vertex_count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(vertex_count)})


def validate_graph(g) -> list:
    """Return the list of violated invariants (empty means valid)."""
    report = []
    if isinstance(g, MetricGraph):
        for e in g.edges:
            if not (e.length > 0):
                report.append(f"edge {e.id}: nonpositive length")
            if not (e.weight > 0):
                report.append(f"edge {e.id}: nonpositive weight")
        pairs = [(e.tail, e.head) for e in g.edges]
        if g.vertex_count > 0 and connected_components(g.vertex_count, pairs) != 1:
            report.append("not connected")
        report.extend(_validate_gear_structure(g))
    elif isinstance(g, CombinatorialGraph):
        pairs = [(u, v) for u, v, _ in g.edges]
        if g.vertex_count > 0 and connected_components(g.vertex_count, pairs) != 1:
            report.append("not connected")
    else:
        report.append(f"unsupported graph type {type(g).__name__}")
    return report


def _validate_gear_structure(g: MetricGraph) -> list:
    """Gear-specific checks, applied only when polygon/tooth classes appear."""
    sides = [e for e in g.edges if e.cls == POLYGON]
    teeth = [e for e in g.edges if e.cls == TOOTH]
    if not sides and not teeth:
        return []
    report = []
    if len(sides) != len(teeth):
        report.append("side/tooth counts differ")
        return report
    # polygon must be one directed cycle: every polygon vertex has exactly
    # one outgoing and one incoming side
    outs = {e.tail: e for e in sides}
    ins = {e.head: e for e in sides}
    poly_vertices = {e.tail for e in sides} | {e.head for e in sides}
    if len(outs) != len(sides) or len(ins) != len(sides) or len(poly_vertices) != len(sides):
        report.append("polygon edges do not form one oriented cycle")
        return report
    v0 = sides[0].tail
    seen, v = 0, v0
    while True:
        v = outs[v].head
        seen += 1
        if v == v0 or seen > len(sides):
            break
    if seen != len(sides):
        report.append("polygon edges do not form one oriented cycle")
    deg = g.degrees()
    for side, tooth in zip(sides, teeth):
        if abs(side.length - tooth.length) > 1e-12:
            report.append(f"tooth {tooth.id}: length differs from its side")
        ends = {tooth.tail, tooth.head}
        leaf = [v for v in ends if deg[v] == 1]
        if len(leaf) != 1:
            report.append(f"tooth {tooth.id}: not a pendant edge")
            continue
        attach = (ends - set(leaf)).pop()
        if attach not in (side.tail, side.head):
            report.append(f"tooth {tooth.id}: not attached to its side")
        elif attach == side.tail and tooth.tail != attach:
            report.append(f"tooth {tooth.id}: attachment is not tail-to-tail")
        elif attach == side.head and tooth.head != attach:
            report.append(f"tooth {tooth.id}: attachment is not head-to-head")
    return report


def _integer_length(e: Edge) -> int:
    l = round(e.length)
    if abs(e.length - l) > 1e-9 or l <= 0:
        raise GraphError(f"edge {e.id}: length {e.length} is not a positive integer")
    return int(l)


def subdivide(g: MetricGraph) -> CombinatorialGraph:
    """Replace each edge of integer length l by a path of l unit edges.

    Original vertex ids are preserved; subdivision vertices are appended
    edge by edge in tail-to-head order.
    """
    edges = []
    paths = {}
    next_id = g.vertex_count
    for e in g.edges:
        l = _integer_length(e)
        path = [e.tail]
        for _ in range(l - 1):
            path.append(next_id)
            next_id += 1
        path.append(e.head)
        paths[e.id] = tuple(path)
        for a, b in zip(path[:-1], path[1:]):
            edges.append((a, b, e.cls))
    deg = [0] * next_id
    touches = [set() for _ in range(next_id)]
    for u, v, cls in edges:
        deg[u] += 1
        deg[v] += 1
        touches[u].add(cls)
        touches[v].add(cls)
    roles = {}
    for v in range(next_id):
        if deg[v] == 1:
            roles[v] = "leaf"
        elif POLYGON in touches[v]:
            roles[v] = "polygon"
        elif TOOTH in touches[v]:
            roles[v] = "tooth-interior"
        else:
            roles[v] = PLAIN
    return CombinatorialGraph(next_id, tuple(edges), roles, paths)


def bipartition_sign(cg: CombinatorialGraph):
    """Two-coloring of a connected graph as a +-1 vector, or None if odd cycle."""
    sign = [0] * cg.vertex_count
    adj = [[] for _ in range(cg.vertex_count)]
    for u, v, _ in cg.edges:
        adj[u].append(v)
        adj[v].append(u)
    sign[0] = 1
    queue = [0]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if sign[v] == 0:
                sign[v] = -sign[u]
                queue.append(v)
            elif sign[v] == sign[u]:
                return None
    return sign


# ---------------------------------------------------------------------------
# digraph exports
# ---------------------------------------------------------------------------

def gear_to_digraph(spec: GearSpec) -> Digraph:
    """Subdivided gear as a simple digraph with canonical vertex labels.

    The orientation is that of the paper's Fig. 6: polygon arcs follow
    the cycle and every tooth points away from the polygon.  Cycle labels
    start at the endpoint of side 1 not carrying tooth 1 and increase
    along the cycle; tooth vertices are numbered consecutively along each
    tooth's metric direction, teeth in order.  Labels here are 0-based.
    """
    if not spec.is_integral():
        raise GraphError("digraph export needs integer lengths")
    lengths = [int(round(l)) for l in spec.lengths]
    n, total = spec.n, sum(lengths)
    prefix = [0]
    for l in lengths:
        prefix.append(prefix[-1] + l)
    ends = spec.tooth_ends
    # label 1 (0-based: 0) goes to the tooth-free endpoint of side 1
    start = lengths[0] if ends[0] == "tail" else 0

    def cyc(pos):
        return (pos - start) % total

    arcs = [(cyc(p), cyc(p + 1)) for p in range(total)]
    next_label = total
    for i in range(n):
        l = lengths[i]
        attach_pos = prefix[i] if ends[i] == "tail" else prefix[i] + l
        attach = cyc(attach_pos)
        fresh = list(range(next_label, next_label + l))
        next_label += l
        # outward from the polygon; a head-attached tooth is labelled leaf first
        chain = [attach] + (fresh if ends[i] == "tail" else fresh[::-1])
        arcs.extend(zip(chain[:-1], chain[1:]))
    name = f"gear_n{n}_{spec.variant}_fig6"
    return Digraph(2 * total, tuple(arcs), name)


def fig6_digraph_pair(lengths=(1, 2, 3)):
    """The reference zeta-equivalent digraph pair (catalog id fig6)."""
    primal = GearSpec(3, lengths, "primal")
    return gear_to_digraph(primal), gear_to_digraph(dual_gear(primal))


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
