"""Eigenderivative transplantation between mutually dual gears.

For an eigenfunction f with restrictions p_i (sides) and t_i (teeth) and
eigenvalue lam = k^2 > 0, the transplanted function on the dual gear is
built edgewise from first derivatives:

    side_i~ = p_i' + w t_i'      tooth_i~ = p_i' - t_i'        (standard)

on every index i; the construction fixes this rule, so nothing is
searched.  The result is checked once against the dual graph's vertex
conditions and a violation raises.  A caller may prescribe the swapped
form (the two target edges exchanged) per index through an explicit bit
pattern.  Constants (lam = 0) are annihilated and therefore rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import MetricGraph, POLYGON, TOOTH
from .spectral import (Eigenfunction, VertexConditions, evaluate,
                       vertex_residual, weighted_norm_sq)


class TransplantError(ValueError):
    pass


@dataclass(frozen=True)
class TransplantMap:
    """Record of one transplantation: weight, wavenumber, per-index bits.

    assignment[i] == 0 means the standard form on index i, 1 the swapped
    one; residual is the dual-graph vertex-condition violation.
    """

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


def _derivative_coeffs(f: Eigenfunction, edge_index: int):
    a, b = f.coeffs[edge_index]
    k = f.k
    return (k * b, -k * a)


def _assemble(f: Eigenfunction, target: MetricGraph, w: float, bits) -> Eigenfunction:
    n = gear_edge_split(f.graph)
    side = [None] * n
    tooth = [None] * n
    for i in range(n):
        dpa, dpb = _derivative_coeffs(f, i)
        dta, dtb = _derivative_coeffs(f, n + i)
        plus = (dpa + w * dta, dpb + w * dtb)
        minus = (dpa - dta, dpb - dtb)
        if bits[i] == 0:
            side[i], tooth[i] = plus, minus
        else:
            side[i], tooth[i] = minus, plus
    return Eigenfunction(target, f.k, tuple(side + tooth))


def transplant(f: Eigenfunction, target: MetricGraph, w: float, assignment=None):
    """Transplant f onto the dual gear ``target``.

    Returns (eigenfunction on target, TransplantMap).  The bit pattern is
    ``assignment`` when given, else the standard form (0,) * n; a vertex
    residual of 1e-8 or more on ``target`` raises TransplantError.
    """
    if f.k <= 0:
        raise TransplantError("transplantation annihilates the lam = 0 space")
    n = gear_edge_split(f.graph)
    gear_edge_split(target)
    bits = tuple(assignment) if assignment is not None else (0,) * n
    ft = _assemble(f, target, w, bits)
    res = vertex_residual(ft, VertexConditions(w))
    if res >= 1e-8:
        raise TransplantError(
            f"assignment {bits} violates the dual vertex conditions (residual {res:.3e})")
    return ft, TransplantMap(w, f.k, bits, res)


def inverse_transplant(ft: Eigenfunction, target: MetricGraph, w: float,
                       assignment=None) -> Eigenfunction:
    """Invert the transplantation on a lam > 0 eigenspace.

    Componentwise the forward map applies B = [[1, w], [1, -1]] (or its
    row swap) to first derivatives; since B^2 = (1+w) I and f'' = -lam f,
    the inverse applies -B/(lam (1+w)) to the derivatives of ft.
    """
    if ft.k <= 0:
        raise TransplantError("inverse transplantation needs lam > 0")
    n = gear_edge_split(ft.graph)
    gear_edge_split(target)
    lam = ft.k * ft.k
    bits = tuple(assignment) if assignment is not None else (0,) * n
    scale = -1.0 / (lam * (1.0 + w))
    side = [None] * n
    tooth = [None] * n
    for i in range(n):
        dsa, dsb = _derivative_coeffs(ft, i)
        dta, dtb = _derivative_coeffs(ft, n + i)
        if bits[i] == 0:
            # inverse of (p~, t~) = [[1, w], [1, -1]] (p', t')
            pa, pb = scale * (dsa + w * dta), scale * (dsb + w * dtb)
            ta, tb = scale * (dsa - dta), scale * (dsb - dtb)
        else:
            # inverse of (p~, t~) = [[1, -1], [1, w]] (p', t')
            pa, pb = scale * (w * dsa + dta), scale * (w * dsb + dtb)
            ta, tb = scale * (-dsa + dta), scale * (-dsb + dtb)
        side[i], tooth[i] = (pa, pb), (ta, tb)
    return Eigenfunction(target, ft.k, tuple(side + tooth))


def check_eigen_equation(f: Eigenfunction, ft: Eigenfunction, w: float,
                         assignment=None, samples: int = 7) -> float:
    """Residual of ft'' + lam ft on a sample grid.

    The second derivative is formed independently by transplanting the
    second derivative of the source f, so a corrupted ft shows up as a
    nonzero residual even though any single trig pair solves its own ODE.
    """
    n = gear_edge_split(f.graph)
    bits = tuple(assignment) if assignment is not None else (0,) * n
    lam = f.k * f.k
    # transplant of f'' = -lam f equals (ft)''
    f2 = Eigenfunction(f.graph, f.k,
                       tuple((-lam * a, -lam * b) for a, b in f.coeffs))
    ft2 = _assemble(f2, ft.graph, w, bits)
    worst = 0.0
    for e in range(ft.graph.edge_count):
        l = ft.graph.edges[e].length
        for j in range(samples):
            x = l * j / (samples - 1)
            worst = max(worst, abs(evaluate(ft2, e, x) + lam * evaluate(ft, e, x)))
    return worst


def check_isometry(f: Eigenfunction, ft: Eigenfunction, w: float):
    """Both sides of |ft|_w^2 = lam (1+w) |f|_w^2 and their relative error."""
    cond = VertexConditions(w)
    lhs = weighted_norm_sq(ft, cond)
    rhs = f.k * f.k * (1.0 + w) * weighted_norm_sq(f, cond)
    denom = max(abs(lhs), abs(rhs))
    rel = 0.0 if denom == 0 else abs(lhs - rhs) / denom
    return lhs, rhs, rel


def transplant_report(f, ft, tmap: TransplantMap) -> dict:
    lhs, rhs, rel = check_isometry(f, ft, tmap.w)
    return {
        "k": tmap.k,
        "assignment": list(tmap.assignment),
        "vertex_residual": tmap.residual,
        "isometry_rel_error": rel,
    }
