"""Eigenderivative transplantation between mutually dual gears.

For an eigenfunction f with restrictions p_i (sides) and t_i (teeth) and
eigenvalue lam = k^2 > 0, the transplanted function on the dual gear is
built edgewise from first derivatives by one rule on every index i:

    side_i~ = p_i' + w t_i'      tooth_i~ = p_i' - t_i'

so nothing is searched.  The result is checked once against the dual
graph's vertex conditions and a violation raises.  Constants (lam = 0)
are annihilated, and `Eigenfunction` holds k > 0 only.  On the
(edge_count, 2) coefficient arrays the derivative of a row (a, b) is
(k b, -k a), so the rule is one array map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import GearlabError, MetricGraph, POLYGON, TOOTH
from .spectral import Eigenfunction, VertexConditions, vertex_residual, weighted_inner


class TransplantError(GearlabError):
    pass


@dataclass(frozen=True)
class TransplantMap:
    """Record of one transplantation: weight, wavenumber, the vertex
    residual on the dual graph, and assignment, always (0,) * n."""

    w: float
    k: float
    assignment: tuple
    residual: float


def gear_edge_split(g: MetricGraph) -> int:
    """Check the side/tooth layout (sides 0..n-1, teeth n..2n-1); return n."""
    m = g.edge_count
    if m % 2:
        raise TransplantError("gear graphs have an even edge count")
    n = m // 2
    for i in range(n):
        if g.edges[i].cls != POLYGON or g.edges[n + i].cls != TOOTH:
            raise TransplantError("expected sides 0..n-1 then teeth n..2n-1")
        if abs(g.edges[i].length - g.edges[n + i].length) > 1e-12:
            raise TransplantError(f"side {i} and tooth {i} lengths differ")
    return n


def _gear_size(source: MetricGraph, target: MetricGraph) -> int:
    """n, when ``source`` and ``target`` are both n-gears."""
    n = gear_edge_split(source)
    if gear_edge_split(target) != n:
        raise TransplantError("source and target gears differ in size")
    return n


def _rule(k, coeffs, w):
    """side~ = p' + w t', tooth~ = p' - t' on the rows of ``coeffs``
    (sides, then teeth) at wavenumber k."""
    n = len(coeffs) // 2
    d = coeffs[:, ::-1] * (k, -k)
    return np.concatenate([d[:n] + w * d[n:], d[:n] - d[n:]])


def transplant(f: Eigenfunction, target: MetricGraph, w: float):
    """Transplant f onto the dual gear ``target``.

    Returns (eigenfunction on target, TransplantMap); a vertex residual
    of 1e-8 or more on ``target`` raises TransplantError.
    """
    n = _gear_size(f.graph, target)
    ft = Eigenfunction(target, f.k, _rule(f.k, f.coeffs, w))
    res = vertex_residual(ft, VertexConditions(w))
    if res >= 1e-8:
        raise TransplantError(
            f"the transplant violates the dual vertex conditions (residual {res:.3e})")
    return ft, TransplantMap(w, f.k, (0,) * n, res)


def inverse_transplant(ft: Eigenfunction, target: MetricGraph, w: float,
                       assignment=None) -> Eigenfunction:
    """Invert the transplantation on a lam > 0 eigenspace.

    Componentwise the forward map applies B = [[1, w], [1, -1]] to first
    derivatives.  Since B^2 = (1+w) I and f'' = -lam f, the same rule
    applied to ft gives the source function times -lam (1+w).
    ``assignment`` is None or `TransplantMap.assignment`, (0,) * n;
    anything else raises TransplantError.  `VertexConditions` checks w, as
    in `transplant`: SpectralError unless it is positive and finite.
    """
    n = _gear_size(ft.graph, target)
    if assignment is not None and (type(assignment) is not tuple or assignment != (0,) * n):
        raise TransplantError(f"assignment must be None or (0,) * {n}, got {assignment!r}")
    w = VertexConditions(w).w
    scale = -1.0 / (ft.k * ft.k * (1.0 + w))
    return Eigenfunction(target, ft.k, scale * _rule(ft.k, ft.coeffs, w))


def check_isometry(f: Eigenfunction, ft: Eigenfunction, w: float):
    """Both sides of |ft|_w^2 = lam (1+w) |f|_w^2 and their relative error."""
    cond = VertexConditions(w)
    lhs = weighted_inner(ft, ft, cond)
    rhs = f.k * f.k * (1.0 + w) * weighted_inner(f, f, cond)
    denom = max(abs(lhs), abs(rhs))
    rel = 0.0 if denom == 0 else abs(lhs - rhs) / denom
    return lhs, rhs, rel


def transplant_report(f, ft, tmap: TransplantMap) -> dict:
    lhs, rhs, rel = check_isometry(f, ft, tmap.w)
    return {
        "k": tmap.k,
        "vertex_residual": tmap.residual,
        "isometry_rel_error": rel,
    }
