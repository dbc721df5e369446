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

    def apply(self, f):
        return [sum(p * f[u] for u, p in row.items()) for row in self.rows]


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


def markov_spectrum(ms: MarkovSystem):
    """Eigenvalues (ascending) and eigenvectors of M via LAPACK (numpy eigh).

    M is conjugated to the symmetric S = D^{1/2} M D^{-1/2} = D^{-1/2} W D^{-1/2};
    the returned vectors are eigenvectors of M itself (columns).
    """
    n = ms.size
    d = np.array([float(x) for x in ms.degrees])
    s = np.zeros((n, n))
    for v, row in enumerate(ms.adjacency):
        for u, wgt in row.items():
            s[v, u] = float(wgt) / math.sqrt(d[v] * d[u])
    vals, vecs = np.linalg.eigh(s)
    vecs = vecs / np.sqrt(d)[:, None]
    return vals, vecs


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

def combinatorial_derivative(ms: MarkovSystem, f, v: int, vp: int):
    """Outward derivative of f at v along the edge towards neighbor vp."""
    if vp not in ms.rows[v]:
        raise MarkovError(f"vertices {v} and {vp} are not adjacent")
    mf = sum(p * f[u] for u, p in ms.rows[v].items())
    return -mf + f[vp]


def _path_derivatives(f, mf, path):
    """One-sided derivatives along a tail-to-head path, slot by slot."""
    last = len(path) - 1
    out = []
    for j, v in enumerate(path):
        if j < last:
            out.append(-mf[v] + f[path[j + 1]])
        else:
            out.append(mf[v] - f[path[j - 1]])
    return out


def _gear_path_count(cg: CombinatorialGraph) -> int:
    n = len(cg.paths) // 2
    if sorted(cg.paths) != list(range(2 * n)):
        raise MarkovError("expected gear paths with ids 0..n-1 (sides), n..2n-1 (teeth)")
    return n


def combinatorial_transplant(src: MarkovSystem, dst: MarkovSystem, f,
                             assignment=None):
    """Transplant a vertex function from one subdivided gear to its dual.

    Slot j of each dual side/tooth path receives p_i'(slot j) + w t_i'(slot j)
    (side) and p_i'(slot j) - t_i'(slot j) (tooth), or the swapped pair when
    assignment[i] == 1; without ``assignment`` every index takes the first
    form.  Values assigned to a shared vertex from several paths must agree,
    exactly in rational mode and to 1e-12 relative in float mode, or
    MarkovError is raised.  Returns (values, assignment_bits).
    """
    n = _gear_path_count(src.cg)
    if _gear_path_count(dst.cg) != n:
        raise MarkovError("source and target gears differ in size")
    if src.w != dst.w:
        raise MarkovError("source and target weights differ")
    bits = tuple(assignment) if assignment is not None else (0,) * n
    w = src.w
    mf = src.apply(f)
    out = [None] * dst.cg.vertex_count
    worst = 0
    for i in range(n):
        side_d = _path_derivatives(f, mf, src.cg.paths[i])
        tooth_d = _path_derivatives(f, mf, src.cg.paths[n + i])
        plus = [sd + w * td for sd, td in zip(side_d, tooth_d)]
        minus = [sd - td for sd, td in zip(side_d, tooth_d)]
        side_vals, tooth_vals = (plus, minus) if bits[i] == 0 else (minus, plus)
        for path, vals in ((dst.cg.paths[i], side_vals),
                           (dst.cg.paths[n + i], tooth_vals)):
            for vertex, val in zip(path, vals):
                if out[vertex] is None:
                    out[vertex] = val
                elif out[vertex] != val:
                    worst = max(worst, abs(out[vertex] - val) / max(1, abs(val)))
    if worst > (0 if src.mode == "rational" else 1e-12):
        raise MarkovError(f"assignment {bits} is inconsistent at shared vertices "
                          f"(discrepancy {float(worst):.3e})")
    return out, bits


def transplantation_matrix(src: MarkovSystem, dst: MarkovSystem, assignment=None):
    """Matrix T of the combinatorial transplantation (column j = image of e_j).

    The bits are ``assignment`` or, without it, all zero.  Each column
    passes the shared-vertex check, so by linearity every image under T
    is consistent.
    """
    n = src.size
    zero = Fraction(0) if src.mode == "rational" else 0.0
    one = Fraction(1) if src.mode == "rational" else 1.0
    cols = []
    for j in range(n):
        e = [zero] * n
        e[j] = one
        img, assignment = combinatorial_transplant(src, dst, e, assignment)
        cols.append(img)
    t = [[cols[j][i] for j in range(n)] for i in range(n)]
    return t, assignment


@dataclass(frozen=True)
class Conjugator:
    T: tuple
    J_plus: tuple
    J_minus: tuple
    C: tuple
    mode: str
    assignment: tuple


def build_conjugator(src: MarkovSystem, dst: MarkovSystem) -> Conjugator:
    """C = T + J+ + J- with M~ C = C M.

    J+ = ones * diag(d) maps the 1-eigenspace (constants) across and kills
    everything d-orthogonal to it; when the subdivision is bipartite, J-
    does the same for the sign vectors of the -1-eigenspaces, else J- = 0.
    """
    n = src.size
    t, assignment = transplantation_matrix(src, dst)
    d = src.degrees
    jp = [[d[j] for j in range(n)] for _ in range(n)]
    s = bipartition_sign(src.cg)
    st = bipartition_sign(dst.cg)
    if (s is None) != (st is None):
        raise MarkovError("dual pair disagrees on bipartiteness")
    if s is not None:
        total = sum(d)
        jm = [[st[i] * s[j] * d[j] / total for j in range(n)] for i in range(n)]
    else:
        zero = Fraction(0) if src.mode == "rational" else 0.0
        jm = [[zero] * n for _ in range(n)]
    c = [[t[i][j] + jp[i][j] + jm[i][j] for j in range(n)] for i in range(n)]
    as_t = tuple(tuple(row) for row in t)
    as_jp = tuple(tuple(row) for row in jp)
    as_jm = tuple(tuple(row) for row in jm)
    as_c = tuple(tuple(row) for row in c)
    return Conjugator(as_t, as_jp, as_jm, as_c, src.mode, assignment)


def conjugation_residual(src: MarkovSystem, dst: MarkovSystem, conj: Conjugator):
    """Max-abs entry of M~ C - C M (exact zero expected in rational mode).

    Row i is sum_k M~[i,k] C[k,:] - sum_k C[i,k] M[k,:], built from the
    sparse rows of M~ and M (at most three entries each): O(n^2) work.
    """
    n = src.size
    c = conj.C
    worst = 0
    for i, row in enumerate(dst.rows):
        diff = [0] * n
        for k, p in row.items():
            for j, ckj in enumerate(c[k]):
                diff[j] += p * ckj
        for k, cik in enumerate(c[i]):
            if cik:
                for j, p in src.rows[k].items():
                    diff[j] -= cik * p
        worst = max(worst, max(map(abs, diff)))
    return worst


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
    vals, _ = markov_spectrum(ms)
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
