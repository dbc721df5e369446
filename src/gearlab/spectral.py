"""Spectra of weighted metric graphs via secular linear systems.

On each edge an eigenfunction with eigenvalue lam = k^2 > 0 is written as
f_e(x) = a_e cos(kx) + b_e sin(kx); the vertex conditions (continuity plus
weighted Kirchhoff: sum of edge-weight times outward derivative vanishes)
become a square homogeneous system in the 2m coefficients.  k is an
eigenwavenumber exactly when the row-normalized system loses rank, which
is detected by scanning the smallest singular value over a k-grid and
refining each local minimum by golden-section search.  The scan builds
the k-independent entry list of the system once, assembles a stack of
matrices per block of k-points and takes one batched SVD per block; the
golden-section searches of all grid minima advance in lockstep, one
batched SVD per step.  This coefficient basis stays valid at wavenumbers
where vertex-value bases degenerate, so no eigenvalue family needs
special casing; lam = 0 (the constants) is the single analytic exception
and is inserted directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import GearlabError, MetricGraph, TOOTH, validate_graph

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# k-points per batched SVD in the scan: amortises the per-call cost while
# keeping the stack, and so peak memory, independent of the grid length
_SCAN_BLOCK = 64

# relative eigenvalue gap below which two compared spectra agree
GAP_TOL = 1e-8

# scan tolerances: bracket width on k that ends root refinement; the
# sigma_min / sigma_max below which k is a root; the sigma / sigma_max
# below which a singular value adds to the multiplicity; the distance on
# k below which two refined roots are one
REFINE_TOL = 1e-12
RANK_TOL = 1e-9
MULT_TOL = 1e-8
DEDUP_GAP = 1e-9


class SpectralError(GearlabError):
    pass


class NotAnEigenvalue(SpectralError):
    pass


@dataclass(frozen=True)
class VertexConditions:
    """Continuity + weighted Kirchhoff; tooth-class edges carry weight w."""

    w: float = 1.0

    def __post_init__(self):
        if not (0 < self.w < math.inf):
            raise SpectralError("weight w must be positive and finite")

    def edge_weight(self, edge):
        return edge.weight * (self.w if edge.cls == TOOTH else 1.0)


@dataclass(frozen=True)
class ScanParams:
    """Scan ceiling and k-grid spacing; the tolerances are module constants.

    ``grid_step`` changes which roots a scan finds (see `scan_spectrum`).
    """

    k_max: float
    grid_step: float = 0.01

    def __post_init__(self):
        for name in ("k_max", "grid_step"):
            if not (0 < getattr(self, name) < math.inf):
                raise SpectralError(f"{name} must be positive and finite")


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

class _SecularSystem(NamedTuple):
    """k-independent entry list of a secular system, in assembly order.

    Entry i adds ``(coef[i] * (k if scaled[i] else 1)) * t`` to cell
    (row[i], col[i]), where t = 1, cos(k l_e) or sin(k l_e) is column
    ``term[i]`` of the table [1, cos(k l), sin(k l)] built per k.  coef is
    +-1 on continuity rows and +-(edge weight) on Kirchhoff rows.  ``layer``
    counts the earlier entries on the same cell, so that a cell hit twice
    (a loop edge) is summed in loop order.  Zero terms are left out.
    """

    lengths: np.ndarray
    row: np.ndarray
    col: np.ndarray
    term: np.ndarray
    scaled: np.ndarray
    coef: np.ndarray
    layer: np.ndarray


def _secular_system(g: MetricGraph, cond: VertexConditions) -> _SecularSystem:
    """The entry list of g's secular system, in the order of the row loop."""
    m = g.edge_count
    entries = []
    r = 0

    def value_terms(e, end):
        # (column offset, term) of f_e at its tail (1, 0) or head (cos, sin)
        return ((0, 0),) if end == 0 else ((0, 1 + e), (1, 1 + m + e))

    for v, incs in enumerate(g.incidences()):
        if not incs:
            raise SpectralError(f"vertex {v} is isolated")
        e0, end0 = incs[0]
        for e, end in incs[1:]:
            entries += [(r, 2 * e0 + off, t, False, 1.0) for off, t in value_terms(e0, end0)]
            entries += [(r, 2 * e + off, t, False, -1.0) for off, t in value_terms(e, end)]
            r += 1
        for e, end in incs:
            wgt = cond.edge_weight(g.edges[e])
            if end == 0:
                # outward derivative at the tail: f'(0) = k b
                entries.append((r, 2 * e + 1, 0, True, wgt))
            else:
                # outward derivative at the head: -f'(l)
                entries.append((r, 2 * e, 1 + m + e, True, wgt))
                entries.append((r, 2 * e + 1, 1 + e, True, -wgt))
        r += 1
    assert r == 2 * m
    hits = {}
    layer = []
    for cell in (entry[:2] for entry in entries):
        layer.append(hits.get(cell, 0))
        hits[cell] = layer[-1] + 1
    row, col, term, scaled, coef = zip(*entries)
    return _SecularSystem(np.array([e.length for e in g.edges]), np.array(row),
                          np.array(col), np.array(term), np.array(scaled),
                          np.array(coef, dtype=float), np.array(layer))


def _secular_stack(system: _SecularSystem, ks: np.ndarray) -> np.ndarray:
    """Row-normalized secular matrices at every k of ``ks``, shape (K, 2m, 2m)."""
    size = 2 * len(system.lengths)
    kl = ks[:, None] * system.lengths
    trig = np.concatenate([np.ones((len(ks), 1)), np.cos(kl), np.sin(kl)], axis=1)
    stack = np.zeros((len(ks), size, size))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (system.coef * np.where(system.scaled, ks[:, None], 1.0)) * trig[:, system.term]
        for lay in range(system.layer.max() + 1):
            on = system.layer == lay
            stack[:, system.row[on], system.col[on]] += vals[:, on]
        norms = np.linalg.norm(stack, axis=2)
    # a non-finite entry makes its row norm non-finite too
    if not np.isfinite(norms).all():
        bad = ~np.all(np.isfinite(norms), axis=1)
        raise SpectralError(f"secular matrix overflows at k={ks[np.argmax(bad)]}")
    norms[norms == 0] = 1.0
    return stack / norms[..., None]


def _singular_values(stack: np.ndarray, ks) -> np.ndarray:
    """Descending singular values of each matrix of the stack, shape (K, 2m)."""
    try:
        s = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"SVD did not converge for k in [{ks[0]}, {ks[-1]}]") from exc
    bad = ~np.all(np.isfinite(s), axis=1)
    if bad.any():
        raise SpectralError(f"singular values not finite at k={ks[np.argmax(bad)]}")
    return s


def secular_matrix(g: MetricGraph, cond: VertexConditions, k: float) -> np.ndarray:
    """Row-normalized 2m x 2m vertex-condition system at wavenumber k > 0.

    Rows: per vertex, deg-1 continuity differences followed by one
    weighted Kirchhoff row; columns: (a_e, b_e) per edge.  The null space
    is isomorphic to the k^2-eigenspace.
    """
    if not (k > 0):
        raise SpectralError("secular matrix needs k > 0")
    return _secular_stack(_secular_system(g, cond), np.array([k], dtype=float))[0]


def rank_indicator(g: MetricGraph, cond: VertexConditions, k: float):
    """(sigma_min, all singular values descending) of the secular matrix."""
    s = _singular_values(secular_matrix(g, cond, k)[None], [k])[0]
    return s[-1], s


def eigenfunction_basis(g, cond, k):
    """Orthonormal (coefficient-space) basis of the secular null space at k.

    k must pass the scan's RANK_TOL test; MULT_TOL sets the dimension.
    """
    a = secular_matrix(g, cond, k)
    _, s, vh = np.linalg.svd(a)
    smax = s[0]
    if s[-1] >= RANK_TOL * smax:
        raise NotAnEigenvalue(f"k={k} is not an eigenwavenumber (sigma_min={s[-1]:.3e})")
    mult = int((s < MULT_TOL * smax).sum())
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

def _golden_refine(sigma, a, b, tol):
    """Golden-section minima of ``sigma`` on the brackets [a_i, b_i], in lockstep.

    Each bracket visits exactly the points a scalar golden-section search
    visits; one batched ``sigma`` call per step evaluates the new probe of
    every bracket still wider than ``tol``.  A bracket also stops once its
    width no longer shrinks, as when ``tol`` is below the float spacing
    at k.  Returns the final bracket midpoints.
    """
    a, b = a.copy(), b.copy()
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = np.split(sigma(np.concatenate([c, d])), 2)
    width = b - a
    live = np.flatnonzero(width > tol)
    while live.size:
        left = fc[live] < fd[live]          # keep [a, d], probe a new c
        lo, hi = live[left], live[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - _GOLDEN * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + _GOLDEN * (b[hi] - a[hi])
        shrunk = b[live] - a[live]
        keep = (shrunk > tol) & (shrunk < width[live])
        width[live] = shrunk
        live, left = live[keep], left[keep]
        f = sigma(np.where(left, c[live], d[live]))
        fc[live[left]] = f[left]
        fd[live[~left]] = f[~left]
    return 0.5 * (a + b)


def scan_spectrum(g: MetricGraph, cond: VertexConditions, params: ScanParams) -> Spectrum:
    """Locate all eigenvalues with k in (0, k_max].

    lam = 0 is inserted analytically with multiplicity 1 (connected
    graph).  sigma_min is evaluated on the k-grid by batched SVDs of
    ``_SCAN_BLOCK`` secular matrices at a time.  Every grid minimum is
    refined by golden-section to REFINE_TOL on k, all of them in
    lockstep, and accepted when sigma_min < RANK_TOL * sigma_max; the
    multiplicity is the number of singular values below
    MULT_TOL * sigma_max.  Two roots that share one grid minimum come
    out as one, so ``grid_step`` decides which roots are found.
    Deterministic, and independent of the block size.
    """
    bad = validate_graph(g)
    if any(v == "not connected" for v in bad):
        raise SpectralError("graph must be connected")
    system = _secular_system(g, cond)

    def svals(ks):
        out = np.empty((len(ks), 2 * g.edge_count))
        for i in range(0, len(ks), _SCAN_BLOCK):
            block = ks[i:i + _SCAN_BLOCK]
            out[i:i + _SCAN_BLOCK] = _singular_values(_secular_stack(system, block), block)
        return out

    step = params.grid_step
    grid = np.arange(step, params.k_max + 2.5 * step, step)
    sig = svals(grid)[:, -1]
    i = np.arange(1, len(grid) - 1)
    lows = i[(sig[i] <= sig[i - 1]) & (sig[i] <= sig[i + 1])]
    ks = _golden_refine(lambda x: svals(x)[:, -1],
                        grid[lows - 1], grid[lows + 1], REFINE_TOL)
    s = svals(ks)
    accept = (s[:, -1] < RANK_TOL * s[:, 0]) & (ks <= params.k_max + DEDUP_GAP)
    mults = (s < MULT_TOL * s[:, :1]).sum(axis=1)
    roots = sorted(zip(ks[accept].tolist(), mults[accept].tolist()))
    entries = [(0.0, 1)]
    for k_star, mult in roots:
        if entries[-1][0] > 0 and abs(math.sqrt(entries[-1][0]) - k_star) <= DEDUP_GAP:
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

def compare_spectra(s1: Spectrum, s2: Spectrum) -> dict:
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
        "match": bool(max_gap <= GAP_TOL and not mism),
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
