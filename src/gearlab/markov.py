"""Weighted random walks on subdivided gears and their exact conjugation.

The walk on a unit subdivision takes tooth edges w times as likely as
polygon edges: M[v, u] = weight(v, u) / d(v) with d(v) the weighted
degree.  M is self-adjoint for the inner product diag(d), has spectrum
in [-1, 1], and mutually dual gears yield isospectral M, M~ -- certified
here by an explicit conjugator C = T + J+ + J- built from the
combinatorial transplantation T and rank-1 corrections on the +-1
eigenspaces.  Everything runs in exact rational arithmetic ("rational"
mode) or floating point ("float" mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (CombinatorialGraph, GearSpec, GearlabError, TOOTH,
                     bipartition_sign, build_gear, dual_gear, subdivide)
from .linalg import unicyclic_det
from .polynomials import SparsePolynomial
from .spectral import ScanParams, VertexConditions, scan_spectrum

MODES = ("rational", "float")


class MarkovError(GearlabError):
    pass


def _as_fraction(w):
    if isinstance(w, float):
        return Fraction(w).limit_denominator(10 ** 12)
    return Fraction(w)


@dataclass(frozen=True)
class MarkovSystem:
    """Row-stochastic walk matrix with its weighted-degree inner product."""

    cg: CombinatorialGraph
    w: object              # Fraction in rational mode, float otherwise
    mode: str
    rows: tuple            # per vertex: dict neighbor -> transition probability
    degrees: tuple         # weighted vertex degrees d(v)
    adjacency: tuple       # per vertex: dict neighbor -> edge weight sum

    @property
    def size(self):
        return self.cg.vertex_count

    def dense(self):
        n = self.size
        out = np.zeros((n, n))
        for v, row in enumerate(self.rows):
            for u, p in row.items():
                out[v, u] = float(p)
        return out


def markov_matrix(cg: CombinatorialGraph, w, mode: str = "rational") -> MarkovSystem:
    """Walk matrix of a unit subdivision; tooth edges carry weight w."""
    if mode not in MODES:
        raise MarkovError(f"mode must be one of {MODES}")
    if mode == "rational":
        wv = _as_fraction(w)
        one = Fraction(1)
    else:
        wv = float(w)
        one = 1.0
    if not (wv > 0):
        raise MarkovError("tooth weight w must be positive")
    n = cg.vertex_count
    adj = [dict() for _ in range(n)]
    for u, v, cls in cg.edges:
        wgt = wv if cls == TOOTH else one
        adj[u][v] = adj[u].get(v, 0) + wgt
        adj[v][u] = adj[v].get(u, 0) + wgt
    degrees = tuple(sum(row.values()) for row in adj)
    if any(d == 0 for d in degrees):
        raise MarkovError("isolated vertex")
    rows = tuple({u: wgt / degrees[v] for u, wgt in row.items()}
                 for v, row in enumerate(adj))
    return MarkovSystem(cg, wv, mode, rows, degrees, tuple(adj))


def _symmetric_walk(ms: MarkovSystem):
    """S = D^{1/2} M D^{-1/2} = D^{-1/2} W D^{-1/2} as floats, with the degrees d."""
    n = ms.size
    d = np.array([float(x) for x in ms.degrees])
    s = np.zeros((n, n))
    for v, row in enumerate(ms.adjacency):
        for u, wgt in row.items():
            s[v, u] = float(wgt) / math.sqrt(d[v] * d[u])
    return s, d


def markov_spectrum(ms: MarkovSystem):
    """Eigenvalues (ascending) and eigenvectors of M via LAPACK (numpy eigh).

    M is conjugated to the symmetric S = D^{1/2} M D^{-1/2} = D^{-1/2} W D^{-1/2};
    the returned vectors are eigenvectors of M itself (columns).
    """
    s, d = _symmetric_walk(ms)
    vals, vecs = np.linalg.eigh(s)
    vecs = vecs / np.sqrt(d)[:, None]
    return vals, vecs


def markov_eigenvalues(ms: MarkovSystem):
    """Eigenvalues of M (ascending) from numpy eigvalsh on the same S."""
    return np.linalg.eigvalsh(_symmetric_walk(ms)[0])


def characteristic_polynomial_exact(ms: MarkovSystem):
    """Monic char poly of M as ascending Fractions, exact.

    det(xI - M) = det(xD - W)/det(D); denominators are cleared once and
    the integer pencil det(xD - W), whose support is the unicyclic
    subdivided gear, is expanded by `unicyclic_det` over Z[x].
    """
    if ms.mode != "rational":
        raise MarkovError("exact characteristic polynomial needs rational mode")
    n = ms.size

    def cleared(q):
        q = q * ms.w.denominator
        assert q.denominator == 1
        return q.numerator

    x = SparsePolynomial.variable("x")
    rows = [[0] * n for _ in range(n)]
    for v in range(n):
        for u, wgt in ms.adjacency[v].items():
            rows[v][u] = -cleared(wgt)
        rows[v][v] = x * cleared(ms.degrees[v]) + rows[v][v]
    try:
        det = unicyclic_det(rows)
    except ValueError as exc:
        raise MarkovError(f"walk pencil: {exc}") from exc
    coeffs = [det.coefficient(x=k) for k in range(n + 1)]
    lead = coeffs[-1]
    return [Fraction(a, lead) for a in coeffs]


# ---------------------------------------------------------------------------
# combinatorial derivatives and transplantation
# ---------------------------------------------------------------------------

def _derivative_row(ms: MarkovSystem, v: int, vp: int) -> dict:
    """Outward derivative -(Mf)(v) + f(vp) at v towards vp, as a row over f."""
    if vp not in ms.rows[v]:
        raise MarkovError(f"vertices {v} and {vp} are not adjacent")
    row = {u: -p for u, p in ms.rows[v].items()}
    row[vp] += 1
    return row


def combinatorial_derivative(ms: MarkovSystem, f, v: int, vp: int):
    """Outward derivative of f at v along the edge towards neighbor vp."""
    return sum(c * f[u] for u, c in _derivative_row(ms, v, vp).items())


def _path_rows(ms: MarkovSystem, path):
    """One-sided derivative rows along a tail-to-head path, slot by slot.

    Every slot but the last looks forward; the last looks back to its
    predecessor, negated, so each slot measures along the path direction.
    """
    rows = [_derivative_row(ms, v, path[j + 1]) for j, v in enumerate(path[:-1])]
    rows.append({u: -c for u, c in _derivative_row(ms, path[-1], path[-2]).items()})
    return rows


def _combine(a: dict, b: dict, scale) -> dict:
    """Row a + scale * b."""
    return {u: a.get(u, 0) + scale * b.get(u, 0) for u in {**a, **b}}


def _gear_path_count(cg: CombinatorialGraph) -> int:
    n = len(cg.paths) // 2
    if sorted(cg.paths) != list(range(2 * n)):
        raise MarkovError("expected gear paths with ids 0..n-1 (sides), n..2n-1 (teeth)")
    return n


def transplantation_matrix(src: MarkovSystem, dst: MarkovSystem):
    """Rows of the combinatorial transplantation T, one dict per dual vertex.

    Slot j of dual side path i gets the row p_i'(slot j) + w t_i'(slot j)
    and slot j of dual tooth path i gets p_i'(slot j) - t_i'(slot j),
    where p_i', t_i' are the derivative rows on the source paths.  A
    vertex on several dual paths must get the same row from each, exactly
    in rational mode and per coefficient to 1e-12 relative in float mode,
    or MarkovError is raised; so every image T f is consistent.
    """
    n = _gear_path_count(src.cg)
    if _gear_path_count(dst.cg) != n:
        raise MarkovError("source and target gears differ in size")
    if src.w != dst.w:
        raise MarkovError("source and target weights differ")
    w = src.w
    rows = [None] * dst.size
    worst = 0
    for i in range(n):
        side_d = _path_rows(src, src.cg.paths[i])
        tooth_d = _path_rows(src, src.cg.paths[n + i])
        plus = [_combine(sd, td, w) for sd, td in zip(side_d, tooth_d)]
        minus = [_combine(sd, td, -1) for sd, td in zip(side_d, tooth_d)]
        for path, path_rows in ((dst.cg.paths[i], plus), (dst.cg.paths[n + i], minus)):
            for vertex, row in zip(path, path_rows):
                if rows[vertex] is None:
                    rows[vertex] = row
                    continue
                for u in {**rows[vertex], **row}:
                    old, new = rows[vertex].get(u, 0), row.get(u, 0)
                    if old != new:
                        worst = max(worst, abs(old - new) / max(1, abs(new)))
    if worst > (0 if src.mode == "rational" else 1e-12):
        raise MarkovError("transplantation is inconsistent at shared vertices "
                          f"(discrepancy {float(worst):.3e})")
    return rows


def combinatorial_transplant(src: MarkovSystem, dst: MarkovSystem, f):
    """Transplant a vertex function from one subdivided gear to its dual: T f."""
    return [sum(c * f[u] for u, c in row.items())
            for row in transplantation_matrix(src, dst)]


@dataclass(frozen=True)
class Conjugator:
    T: tuple               # sparse rows of the transplantation
    J_plus: tuple
    J_minus: tuple
    C: tuple
    mode: str


def build_conjugator(src: MarkovSystem, dst: MarkovSystem) -> Conjugator:
    """C = T + J+ + J- with M~ C = C M.

    J+ = ones * diag(d) maps the 1-eigenspace (constants) across and kills
    everything d-orthogonal to it; when the subdivision is bipartite, J-
    does the same for the sign vectors of the -1-eigenspaces, else J- = 0.

    Both corrections are rank one: every row of J+ is d, and row i of J-
    is st_i v with v_j = s_j d_j / sum(d).  So the shared rows d, v and -v
    are computed once (O(n) Fraction operations), every row of C starts as
    a copy of d + v or d - v, and only its <= 3 T entries are recomputed,
    as (t_ij + d_j) + J-_ij.
    """
    n = src.size
    t = transplantation_matrix(src, dst)
    d = src.degrees
    s = bipartition_sign(src.cg)
    st = bipartition_sign(dst.cg)
    if (s is None) != (st is None):
        raise MarkovError("dual pair disagrees on bipartiteness")
    if s is not None:
        total = sum(d)
        v = tuple(s[j] * d[j] / total for j in range(n))
        shared = {1: v, -1: tuple(-x for x in v)}
    else:
        st = (1,) * n
        shared = {1: (Fraction(0) if src.mode == "rational" else 0.0,) * n}
    base = {sign: tuple(dj + x for dj, x in zip(d, row)) for sign, row in shared.items()}
    c = []
    for trow, sign in zip(t, st):
        row, jrow = list(base[sign]), shared[sign]
        for j, tij in trow.items():
            row[j] = (tij + d[j]) + jrow[j]
        c.append(tuple(row))
    jm = tuple(shared[sign] for sign in st)
    return Conjugator(tuple(t), (d,) * n, jm, tuple(c), src.mode)


def conjugation_residual(src: MarkovSystem, dst: MarkovSystem, conj: Conjugator):
    """Max-abs entry of M~ C - C M (exact zero expected in rational mode).

    Row i is sum_k M~[i,k] C[k,:] - sum_k C[i,k] M[k,:], built from the
    sparse rows of M~ and M (at most three entries each): O(n^2) work.
    In rational mode the denominators are cleared first: with L the lcm
    over C and Lambda the lcm over both walk matrices, the same loop runs
    on Python ints and the result is max_abs / (L Lambda), exactly.
    """
    n = src.size
    c, m, mt = conj.C, src.rows, dst.rows
    if src.mode == "rational":
        big_l = math.lcm(*{q.denominator for row in c for q in row})
        lam = math.lcm(*{p.denominator for row in m + mt for p in row.values()})
        c = [[q.numerator * (big_l // q.denominator) for q in row] for row in c]
        m, mt = ([{j: p.numerator * (lam // p.denominator) for j, p in row.items()}
                  for row in rows] for rows in (m, mt))
    worst = 0
    for i, row in enumerate(mt):
        diff = [0] * n
        for k, p in row.items():
            for j, ckj in enumerate(c[k]):
                diff[j] += p * ckj
        for k, cik in enumerate(c[i]):
            if cik:
                for j, p in m[k].items():
                    diff[j] -= cik * p
        worst = max(worst, max(map(abs, diff)))
    return Fraction(worst, big_l * lam) if src.mode == "rational" else worst


def conjugator_sigma_min(conj: Conjugator) -> float:
    c = np.array([[float(x) for x in row] for row in conj.C])
    return float(np.linalg.svd(c, compute_uv=False)[-1])


def conjugator_report(spec: GearSpec, w, mode: str = "rational") -> dict:
    """Build the dual pair, conjugate, and summarize the verification."""
    g1 = subdivide(build_gear(spec))
    g2 = subdivide(build_gear(dual_gear(spec)))
    src = markov_matrix(g1, w, mode)
    dst = markov_matrix(g2, w, mode)
    conj = build_conjugator(src, dst)
    residual = conjugation_residual(src, dst, conj)
    report = {
        "n": spec.n,
        "lengths": [float(l) for l in spec.lengths],
        "w": str(_as_fraction(w)) if mode == "rational" else float(w),
        "mode": mode,
        "conj_residual": float(residual),
        "sigma_min_C": conjugator_sigma_min(conj),
        "charpoly_equal": None,
    }
    if mode == "rational":
        report["charpoly_equal"] = (characteristic_polynomial_exact(src)
                                    == characteristic_polynomial_exact(dst))
    return report


# ---------------------------------------------------------------------------
# quantum <-> walk correspondence
# ---------------------------------------------------------------------------

def _cluster(values):
    out = []
    for v in values:
        if out and abs(v - out[-1][0]) <= 1e-9:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return [(v, m) for v, m in out]


def predicted_wavenumbers(ms: MarkovSystem, circle_length: int, k_limit: float):
    """Wavenumbers below k_limit implied by the walk spectrum.

    Interior walk eigenvalues mu contribute the arccos branches
    arccos(mu) + 2 pi j and 2 pi (j+1) - arccos(mu); wavenumbers j pi
    whose square is an eigenvalue of the circle of the polygon's
    circumference contribute multiplicity 2.
    """
    vals = markov_eigenvalues(ms)
    predicted = []
    for mu, mult in _cluster(list(vals)):
        if mu >= 1 - 1e-9 or mu <= -1 + 1e-9:
            continue
        a = math.acos(mu)
        j = 0
        while a + 2 * math.pi * j < k_limit or 2 * math.pi * (j + 1) - a < k_limit:
            k1 = a + 2 * math.pi * j
            k2 = 2 * math.pi * (j + 1) - a
            if k1 < k_limit:
                predicted.append((k1, mult))
            if k2 < k_limit:
                predicted.append((k2, mult))
            j += 1
    j = 1
    while j * math.pi < k_limit:
        if (j * circle_length) % 2 == 0:
            predicted.append((j * math.pi, 2))
        j += 1
    predicted.sort()
    return predicted


def crosscheck_quantum(spec: GearSpec, w, k_max: float) -> dict:
    """Compare the scanned quantum spectrum with the walk prediction.

    Nonzero quantum eigenvalues strictly below (k_max - margin)^2 must
    equal the arccos branches of the interior walk spectrum plus the
    circle-derived Dirichlet values, multiplicities included.
    """
    if not spec.is_integral():
        raise MarkovError("crosscheck needs integer edge lengths")
    g = build_gear(spec)
    cond = VertexConditions(float(w))
    spect = scan_spectrum(g, cond, ScanParams(k_max=k_max))
    ms = markov_matrix(subdivide(g), w, "float")
    limit = k_max - 1e-6
    circle = int(round(sum(spec.lengths)))
    predicted = predicted_wavenumbers(ms, circle, limit)
    scanned = [(math.sqrt(lam), mult) for lam, mult in spect.entries
               if lam > 0 and math.sqrt(lam) < limit]
    pairs = []
    mismatches = []
    max_gap = 0.0
    for i in range(max(len(predicted), len(scanned))):
        p = predicted[i] if i < len(predicted) else None
        q = scanned[i] if i < len(scanned) else None
        pairs.append({"predicted": p, "scanned": q})
        if p is None or q is None or abs(p[0] - q[0]) > 1e-8 or p[1] != q[1]:
            mismatches.append({"index": i, "predicted": p, "scanned": q})
        if p and q:
            max_gap = max(max_gap, abs(p[0] - q[0]))
    return {
        "agree": not mismatches,
        "max_gap": max_gap,
        "predicted_count": len(predicted),
        "scanned_count": len(scanned),
        "pairs": pairs,
        "mismatches": mismatches,
    }
