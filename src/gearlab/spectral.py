"""Spectra of weighted metric graphs via secular linear systems.

On each edge an eigenfunction with eigenvalue lam = k^2 > 0 is written as
f_e(x) = a_e cos(kx) + b_e sin(kx); the vertex conditions (continuity plus
weighted Kirchhoff: sum of edge-weight times outward derivative vanishes)
become a square homogeneous system in the 2m coefficients.  k is an
eigenwavenumber exactly when the row-normalized system loses rank, which
is detected by scanning the smallest singular value over a k-grid and
refining each local minimum by golden-section search.  This coefficient
basis stays valid at wavenumbers where vertex-value bases degenerate, so
no eigenvalue family needs special casing; lam = 0 (the constants) is the
single analytic exception and is inserted directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import MetricGraph, TOOTH, validate_graph

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# relative eigenvalue gap below which two compared spectra agree
GAP_TOL = 1e-8


class SpectralError(ValueError):
    pass


class NotAnEigenvalue(SpectralError):
    pass


@dataclass(frozen=True)
class VertexConditions:
    """Continuity + weighted Kirchhoff; tooth-class edges carry weight w."""

    w: float = 1.0

    def __post_init__(self):
        if not (self.w > 0):
            raise SpectralError("weight w must be positive")

    def edge_weight(self, edge):
        return edge.weight * (self.w if edge.cls == TOOTH else 1.0)


@dataclass(frozen=True)
class ScanParams:
    k_max: float
    grid_step: float = 0.01
    refine_tol: float = 1e-12
    rank_tol: float = 1e-9
    mult_tol: float = 1e-8
    dedup_gap: float = 1e-9

    def __post_init__(self):
        for name in ("k_max", "grid_step", "refine_tol", "rank_tol",
                     "mult_tol", "dedup_gap"):
            if not (getattr(self, name) > 0):
                raise SpectralError(f"{name} must be positive")


@dataclass(frozen=True)
class Eigenfunction:
    """Per-edge coefficient pairs at wavenumber k.

    For k > 0 edge e carries a_e cos(kx) + b_e sin(kx); at k = 0 the pair
    means a_e + b_e x.
    """

    graph: MetricGraph
    k: float
    coeffs: tuple  # ((a_e, b_e), ...) aligned with graph.edges

    @property
    def lam(self):
        return self.k * self.k

    def flat(self):
        return np.array(self.coeffs, dtype=float).reshape(-1)


@dataclass(frozen=True)
class Spectrum:
    entries: tuple  # ((lam, multiplicity), ...) strictly increasing lam
    k_max: float

    def expanded(self):
        out = []
        for lam, mult in self.entries:
            out.extend([lam] * mult)
        return out

    def count(self):
        return sum(m for _, m in self.entries)


# ---------------------------------------------------------------------------
# secular system
# ---------------------------------------------------------------------------

def secular_matrix(g: MetricGraph, cond: VertexConditions, k: float) -> np.ndarray:
    """Row-normalized 2m x 2m vertex-condition system at wavenumber k > 0.

    Rows: per vertex, deg-1 continuity differences followed by one
    weighted Kirchhoff row; columns: (a_e, b_e) per edge.  The null space
    is isomorphic to the k^2-eigenspace.
    """
    if not (k > 0):
        raise SpectralError("secular matrix needs k > 0")
    m = g.edge_count
    lengths = np.array([e.length for e in g.edges])
    ckl = np.cos(k * lengths)
    skl = np.sin(k * lengths)
    rows = np.zeros((2 * m, 2 * m))
    r = 0

    def value_coeffs(e, end):
        if end == 0:
            return 1.0, 0.0
        return ckl[e], skl[e]

    for v, incs in enumerate(g.incidences()):
        if not incs:
            raise SpectralError(f"vertex {v} is isolated")
        e0, end0 = incs[0]
        a0, b0 = value_coeffs(e0, end0)
        for e, end in incs[1:]:
            a1, b1 = value_coeffs(e, end)
            rows[r, 2 * e0] += a0
            rows[r, 2 * e0 + 1] += b0
            rows[r, 2 * e] -= a1
            rows[r, 2 * e + 1] -= b1
            r += 1
        for e, end in incs:
            wgt = cond.edge_weight(g.edges[e])
            if end == 0:
                # outward derivative at the tail: f'(0) = k b
                rows[r, 2 * e + 1] += wgt * k
            else:
                # outward derivative at the head: -f'(l)
                rows[r, 2 * e] += wgt * k * skl[e]
                rows[r, 2 * e + 1] -= wgt * k * ckl[e]
        r += 1
    assert r == 2 * m
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0] = 1.0
    return rows / norms[:, None]


def rank_indicator(g: MetricGraph, cond: VertexConditions, k: float):
    """(sigma_min, all singular values descending) of the secular matrix."""
    s = np.linalg.svd(secular_matrix(g, cond, k), compute_uv=False)
    if not np.all(np.isfinite(s)):
        raise SpectralError(f"singular values not finite at k={k}")
    return s[-1], s


def eigenfunction_basis(g, cond, k, params: ScanParams | None = None):
    """Orthonormal (coefficient-space) basis of the secular null space at k."""
    tol_rank = params.rank_tol if params else ScanParams.rank_tol
    tol_mult = params.mult_tol if params else ScanParams.mult_tol
    a = secular_matrix(g, cond, k)
    _, s, vh = np.linalg.svd(a)
    smax = s[0]
    if s[-1] >= tol_rank * smax:
        raise NotAnEigenvalue(f"k={k} is not an eigenwavenumber (sigma_min={s[-1]:.3e})")
    mult = int((s < tol_mult * smax).sum())
    basis = []
    for row in vh[len(s) - mult:]:
        coeffs = tuple((row[2 * e], row[2 * e + 1]) for e in range(g.edge_count))
        basis.append(Eigenfunction(g, k, coeffs))
    return basis


def constant_eigenfunction(g: MetricGraph) -> Eigenfunction:
    return Eigenfunction(g, 0.0, tuple((1.0, 0.0) for _ in g.edges))


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def _golden_min(f, a, b, tol):
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def scan_spectrum(g: MetricGraph, cond: VertexConditions, params: ScanParams) -> Spectrum:
    """Locate all eigenvalues with k in (0, k_max].

    lam = 0 is inserted analytically with multiplicity 1 (connected
    graph).  Grid minima of sigma_min are refined by golden-section to
    ``refine_tol`` on k and accepted when sigma_min < rank_tol * sigma_max;
    the multiplicity is the number of singular values below
    mult_tol * sigma_max.  Deterministic for fixed parameters.
    """
    bad = validate_graph(g)
    if any(v == "not connected" for v in bad):
        raise SpectralError("graph must be connected")
    step = params.grid_step
    grid = np.arange(step, params.k_max + 2.5 * step, step)

    def sigma(k):
        return rank_indicator(g, cond, k)[0]

    sig = np.array([sigma(k) for k in grid])

    roots = []
    for i in range(1, len(grid) - 1):
        if sig[i] <= sig[i - 1] and sig[i] <= sig[i + 1]:
            k_star = _golden_min(sigma, grid[i - 1], grid[i + 1], params.refine_tol)
            smin, svals = rank_indicator(g, cond, k_star)
            if smin < params.rank_tol * svals[0] and k_star <= params.k_max + params.dedup_gap:
                mult = int((svals < params.mult_tol * svals[0]).sum())
                roots.append((k_star, mult))
    roots.sort()
    entries = [(0.0, 1)]
    for k_star, mult in roots:
        if entries[-1][0] > 0 and abs(math.sqrt(entries[-1][0]) - k_star) <= params.dedup_gap:
            continue
        entries.append((float(k_star * k_star), mult))
    return Spectrum(tuple(entries), params.k_max)


def suggest_k_max(g: MetricGraph, count: int) -> float:
    """Scan ceiling expected to cover the first ``count`` eigenvalues (Weyl)."""
    return math.pi * (count + 3) / g.total_length() * 1.15


# ---------------------------------------------------------------------------
# evaluation and inner products
# ---------------------------------------------------------------------------

def evaluate(f: Eigenfunction, edge_index: int, x: float) -> float:
    e = f.graph.edges[edge_index]
    if not (-1e-12 <= x <= e.length + 1e-12):
        raise SpectralError(f"x={x} outside [0, {e.length}]")
    a, b = f.coeffs[edge_index]
    if f.k == 0.0:
        return a + b * x
    return a * math.cos(f.k * x) + b * math.sin(f.k * x)


def evaluate_derivative(f: Eigenfunction, edge_index: int, x: float) -> float:
    e = f.graph.edges[edge_index]
    if not (-1e-12 <= x <= e.length + 1e-12):
        raise SpectralError(f"x={x} outside [0, {e.length}]")
    a, b = f.coeffs[edge_index]
    if f.k == 0.0:
        return b
    return -a * f.k * math.sin(f.k * x) + b * f.k * math.cos(f.k * x)


def _pair_integral(k1, a1, b1, k2, a2, b2, l):
    """Closed form of int_0^l f g dx for trig/linear edge restrictions."""
    if k1 == 0.0 and k2 == 0.0:
        return (a1 * a2 * l + (a1 * b2 + a2 * b1) * l * l / 2.0
                + b1 * b2 * l ** 3 / 3.0)
    if k1 == 0.0 or k2 == 0.0:
        if k1 == 0.0:
            ac, bl, k, a, b = a1, b1, k2, a2, b2
        else:
            ac, bl, k, a, b = a2, b2, k1, a1, b1
        ckl, skl = math.cos(k * l), math.sin(k * l)
        i_cos = skl / k
        i_sin = (1.0 - ckl) / k
        i_xcos = (ckl - 1.0) / (k * k) + l * skl / k
        i_xsin = skl / (k * k) - l * ckl / k
        return ac * (a * i_cos + b * i_sin) + bl * (a * i_xcos + b * i_xsin)
    if abs(k1 - k2) <= 1e-12 * max(k1, k2):
        k = 0.5 * (k1 + k2)
        s2, c2 = math.sin(2 * k * l), math.cos(2 * k * l)
        i_cc = l / 2.0 + s2 / (4.0 * k)
        i_ss = l / 2.0 - s2 / (4.0 * k)
        i_sc = (1.0 - c2) / (4.0 * k)
        return (a1 * a2 * i_cc + b1 * b2 * i_ss + (a1 * b2 + b1 * a2) * i_sc)
    dm, dp = k1 - k2, k1 + k2
    sm, sp = math.sin(dm * l), math.sin(dp * l)
    cm, cp = math.cos(dm * l), math.cos(dp * l)
    i_cc = sm / (2 * dm) + sp / (2 * dp)
    i_ss = sm / (2 * dm) - sp / (2 * dp)
    i_sc = (1 - cp) / (2 * dp) + (1 - cm) / (2 * dm)   # sin(k1 x) cos(k2 x)
    i_cs = (1 - cp) / (2 * dp) - (1 - cm) / (2 * dm)   # cos(k1 x) sin(k2 x)
    return (a1 * a2 * i_cc + a1 * b2 * i_cs + b1 * a2 * i_sc + b1 * b2 * i_ss)


def weighted_inner(f: Eigenfunction, h: Eigenfunction, cond: VertexConditions) -> float:
    """<f, h>_w by closed-form edgewise trig integrals (no quadrature)."""
    if f.graph is not h.graph and f.graph.edges != h.graph.edges:
        raise SpectralError("eigenfunctions live on different graphs")
    total = 0.0
    for i, e in enumerate(f.graph.edges):
        a1, b1 = f.coeffs[i]
        a2, b2 = h.coeffs[i]
        total += cond.edge_weight(e) * _pair_integral(f.k, a1, b1, h.k, a2, b2, e.length)
    return total


def weighted_norm_sq(f: Eigenfunction, cond: VertexConditions) -> float:
    return weighted_inner(f, f, cond)


def vertex_residual(f: Eigenfunction, cond: VertexConditions) -> float:
    """Max violation of the vertex conditions, scale-free.

    Infinity norm of the row-normalized secular system applied to the
    unit-normalized coefficient vector.
    """
    if f.k <= 0:
        raise SpectralError("vertex residual defined for k > 0")
    x = f.flat()
    nrm = np.linalg.norm(x)
    if nrm == 0:
        return 0.0
    a = secular_matrix(f.graph, cond, f.k)
    return float(np.abs(a @ (x / nrm)).max())


# ---------------------------------------------------------------------------
# spectrum comparison
# ---------------------------------------------------------------------------

def compare_spectra(s1: Spectrum, s2: Spectrum, tol: float = GAP_TOL) -> dict:
    """Pair eigenvalues in order and report gaps and multiplicity mismatches."""
    if s1.k_max != s2.k_max:
        raise SpectralError("spectra were scanned with different k_max")
    pairs = []
    mism = []
    max_gap = 0.0
    for i in range(min(len(s1.entries), len(s2.entries))):
        l1, m1 = s1.entries[i]
        l2, m2 = s2.entries[i]
        denom = max(abs(l1), abs(l2))
        gap = 0.0 if denom == 0 else abs(l1 - l2) / denom
        max_gap = max(max_gap, gap)
        pairs.append((l1, l2, m1, m2))
        if m1 != m2:
            mism.append({"index": i, "lam": l1, "mult_1": m1, "mult_2": m2})
    if len(s1.entries) != len(s2.entries):
        mism.append({"index": min(len(s1.entries), len(s2.entries)),
                     "lam": None,
                     "mult_1": len(s1.entries), "mult_2": len(s2.entries)})
    return {
        "max_rel_gap": float(max_gap),
        "multiplicity_mismatches": mism,
        "pairs": pairs,
        "match": bool(max_gap <= tol and not mism),
    }


def compare_first(s1: Spectrum, s2: Spectrum, count: int) -> dict:
    """Gap/multiplicity report restricted to the first ``count`` eigenvalues."""
    e1, e2 = s1.expanded(), s2.expanded()
    if len(e1) < count or len(e2) < count:
        return {"max_rel_gap": math.inf, "multiplicity_mismatches": [
            {"index": None, "lam": None, "mult_1": len(e1), "mult_2": len(e2)}],
            "pairs": [], "match": False}
    max_gap = 0.0
    pairs = []
    for l1, l2 in zip(e1[:count], e2[:count]):
        denom = max(abs(l1), abs(l2))
        gap = 0.0 if denom == 0 else abs(l1 - l2) / denom
        max_gap = max(max_gap, gap)
        pairs.append((l1, l2))
    mism = []
    budget = count
    for i in range(min(len(s1.entries), len(s2.entries))):
        if budget <= 0:
            break
        l1, m1 = s1.entries[i]
        _, m2 = s2.entries[i]
        if budget >= max(m1, m2) and m1 != m2:
            mism.append({"index": i, "lam": l1, "mult_1": m1, "mult_2": m2})
        budget -= m1
    return {"max_rel_gap": max_gap, "multiplicity_mismatches": mism,
            "pairs": pairs, "match": max_gap <= GAP_TOL and not mism}
