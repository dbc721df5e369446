"""Reference helpers that only the tests use: no command needs them.

Pointwise evaluation of an eigenfunction and of its derivative, a degree-2
vertex inserted into one edge, and the combinatorial derivative and
transplant of vertex functions on a subdivided gear, exact for int or
Fraction values.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gearlab.graphs import Edge, GraphError, MetricGraph
from gearlab.markov import MarkovError, MarkovSystem, _derivative_row, transplantation_matrix
from gearlab.spectral import Eigenfunction, SpectralError


def evaluate(f: Eigenfunction, edge_index: int, x: float) -> float:
    e = f.graph.edges[edge_index]
    if not (-1e-12 <= x <= e.length + 1e-12):
        raise SpectralError(f"x={x} outside [0, {e.length}]")
    a, b = f.coeffs[edge_index].tolist()
    return a * math.cos(f.k * x) + b * math.sin(f.k * x)


def evaluate_derivative(f: Eigenfunction, edge_index: int, x: float) -> float:
    e = f.graph.edges[edge_index]
    if not (-1e-12 <= x <= e.length + 1e-12):
        raise SpectralError(f"x={x} outside [0, {e.length}]")
    a, b = f.coeffs[edge_index].tolist()
    return -a * f.k * math.sin(f.k * x) + b * f.k * math.cos(f.k * x)


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


def combinatorial_derivative(ms: MarkovSystem, f, v: int, vp: int):
    """Outward derivative of f at v towards neighbor vp; exact for int or Fraction f."""
    if vp not in ms.adjacency[v]:
        raise MarkovError(f"vertices {v} and {vp} are not adjacent")
    row = _derivative_row(ms.adjacency[v], ms.degrees[v], vp)    # W's row v is row v of d(v) M
    return sum(c * f[u] for u, c in row.items()) / Fraction(ms.degrees[v])


def combinatorial_transplant(src: MarkovSystem, dst: MarkovSystem, f):
    """Transplant a vertex function from one subdivided gear to its dual: T f."""
    rows, den = transplantation_matrix(src, dst)
    return [sum(c * f[u] for u, c in row.items()) / Fraction(den) for row in rows]
