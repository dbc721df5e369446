"""Weighted random walks on subdivided gears and their exact conjugation.

The walk on a unit subdivision takes tooth edges w times as likely as
polygon edges: M[v, u] = weight(v, u) / d(v) with d(v) the weighted
degree.  M is self-adjoint for the inner product diag(d), has spectrum
in [-1, 1], and mutually dual gears yield isospectral M, M~ -- certified
here by an explicit conjugator C = T + 1 d^T + st v^T: the combinatorial
transplantation T, sparse rows with at most 4 entries, plus rank-one
corrections on the +-1 eigenspaces.  C is kept as those parts and checked
by sparse-row products in O(n).  The walk, T, C and the residual are
exact rational, a float w read as its exact binary fraction; floats
appear only where numpy takes over, in the eigensolve and sigma_min(C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (CombinatorialGraph, GearSpec, GearlabError, TOOTH,
                     bipartition_sign, build_gear, dual_gear, subdivide)
from .linalg import row_times, unicyclic_det
from .polynomials import SparsePolynomial
from .spectral import ScanParams, VertexConditions, scan_spectrum

MODES = ("rational", "float")


class MarkovError(GearlabError):
    pass


@dataclass(frozen=True)
class MarkovSystem:
    """Row-stochastic walk matrix with its weighted-degree inner product."""

    cg: CombinatorialGraph
    w: Fraction
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
    """Walk matrix of a unit subdivision; tooth edges carry weight w, read exactly."""
    # mode changes nothing: the benchmark's workloads still pass it positionally
    if mode not in MODES:
        raise MarkovError(f"mode must be one of {MODES}")
    try:
        wv = Fraction(w)
        ok = 0 < float(wv) < math.inf       # positive and finite as a float
    except (OverflowError, ValueError):
        ok = False                          # inf, nan, or beyond the float range
    if not ok:
        raise MarkovError("tooth weight w must be positive and finite")
    one = Fraction(1)
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
    return MarkovSystem(cg, wv, rows, degrees, tuple(adj))


def _exponent(x: Fraction) -> int:
    """An e with 2^(e-1) < x < 2^(e+1) for x > 0."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def _scaled(x: Fraction, e: int) -> float:
    """x / 2^e as a float, rounded once."""
    p, q = x.numerator, x.denominator
    return p / (q << e) if e >= 0 else (p << -e) / q


def _symmetric_walk(ms: MarkovSystem):
    """S = D^{1/2} M D^{-1/2} = D^{-1/2} W D^{-1/2} as floats, with sqrt(D).

    S is unchanged when every weight is divided by one power of four 4^h;
    h from the largest weight keeps the weights and degrees near 1, where
    no float overflows, and dividing each weight by the square root of
    each degree in turn leaves no product of degrees to underflow.  The
    exact weights and degrees are each rounded once after the division
    by 4^h, as float() rounds them; so where the scaled values stay
    normal, S and sqrt(D) = 2^h sqrt(D / 4^h) are what the unscaled
    weights give.
    """
    n = ms.size
    h = max(_exponent(wgt) for row in ms.adjacency for wgt in row.values()) // 2
    rows = [{u: _scaled(wgt, 2 * h) for u, wgt in row.items()} for row in ms.adjacency]
    d = [_scaled(x, 2 * h) for x in ms.degrees]
    root = [math.sqrt(x) for x in d]
    s = np.zeros((n, n))
    for v, row in enumerate(rows):
        for u, wgt in row.items():
            s[v, u] = wgt / root[v] / root[u]
    return s, np.ldexp(root, h)


def markov_spectrum(ms: MarkovSystem):
    """Eigenvalues (ascending) and eigenvectors of M via LAPACK (numpy eigh).

    M is conjugated to the symmetric S = D^{1/2} M D^{-1/2} = D^{-1/2} W D^{-1/2};
    the returned vectors are eigenvectors of M itself (columns).
    """
    s, root = _symmetric_walk(ms)
    vals, vecs = np.linalg.eigh(s)
    vecs = vecs / root[:, None]
    return vals, vecs


def markov_eigenvalues(ms: MarkovSystem):
    """Eigenvalues of M (ascending) from numpy eigvalsh on the same S."""
    return np.linalg.eigvalsh(_symmetric_walk(ms)[0])


def characteristic_polynomial_exact(ms: MarkovSystem):
    """Monic char poly of M as ascending Fractions, exact.

    det(xI - M) = det(xD - W)/det(D); denominators are cleared once, and
    x D - W, sparse integer rows read off the adjacency of the unicyclic
    subdivided gear, is expanded by `unicyclic_det` over Z[x].
    """
    def cleared(q):
        q = q * ms.w.denominator
        assert q.denominator == 1
        return q.numerator

    x = SparsePolynomial.variable("x")
    rows = [{u: -cleared(wgt) for u, wgt in adj.items()} for adj in ms.adjacency]
    for v, row in enumerate(rows):
        row[v] = x * cleared(ms.degrees[v]) + row.get(v, 0)
    try:
        det = unicyclic_det(rows)
    except ValueError as exc:
        raise MarkovError(f"walk pencil: {exc}") from exc
    coeffs = det.coefficients("x", ms.size + 1)
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
    """Row a + scale * b, entries that cancel to exactly zero dropped."""
    return {u: c for u in {**a, **b} if (c := a.get(u, 0) + scale * b.get(u, 0))}


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
    vertex on several dual paths must get exactly the same row from each,
    or MarkovError is raised; so every image T f is consistent.
    """
    n = _gear_path_count(src.cg)
    if _gear_path_count(dst.cg) != n:
        raise MarkovError("source and target gears differ in size")
    if src.w != dst.w:
        raise MarkovError("source and target weights differ")
    w = src.w
    rows = [None] * dst.size
    for i in range(n):
        side_d = _path_rows(src, src.cg.paths[i])
        tooth_d = _path_rows(src, src.cg.paths[n + i])
        plus = [_combine(sd, td, w) for sd, td in zip(side_d, tooth_d)]
        minus = [_combine(sd, td, -1) for sd, td in zip(side_d, tooth_d)]
        for path, path_rows in ((dst.cg.paths[i], plus), (dst.cg.paths[n + i], minus)):
            for vertex, row in zip(path, path_rows):
                if rows[vertex] is None:
                    rows[vertex] = row
                elif rows[vertex] != row:       # rows hold no zeros: exact comparison
                    raise MarkovError(
                        f"transplantation is inconsistent at shared vertex {vertex}")
    return rows


def combinatorial_transplant(src: MarkovSystem, dst: MarkovSystem, f):
    """Transplant a vertex function from one subdivided gear to its dual: T f."""
    return [sum(c * f[u] for u, c in row.items())
            for row in transplantation_matrix(src, dst)]


@dataclass(frozen=True)
class Conjugator:
    """C = T + 1 d^T + st v^T, kept as its parts; no n x n matrix is stored."""

    T: tuple               # sparse rows of the transplantation, <= 4 entries each
    d: tuple               # source weighted degrees: 1 d^T is J+
    v: tuple               # s_j d_j / sum(d) on a bipartite subdivision, else zeros
    st: tuple              # dual bipartition sign, else ones: st v^T is J-


def build_conjugator(src: MarkovSystem, dst: MarkovSystem) -> Conjugator:
    """C = T + J+ + J- with M~ C = C M.

    J+ = 1 d^T maps the 1-eigenspace (constants) across and kills
    everything d-orthogonal to it; when the subdivision is bipartite,
    J- = st v^T does the same for the sign vectors s, st of the
    -1-eigenspaces, else v = 0.
    """
    t = tuple(transplantation_matrix(src, dst))
    d, s, st = src.degrees, bipartition_sign(src.cg), bipartition_sign(dst.cg)
    if (s is None) != (st is None):
        raise MarkovError("dual pair disagrees on bipartiteness")
    total = sum(d)
    v = (tuple(0 * dj for dj in d) if s is None
         else tuple(sj * dj / total for sj, dj in zip(s, d)))
    return Conjugator(t, d, v, tuple(st or (1,) * len(d)))


def _cleared(rows):
    """Sparse Fraction rows times the lcm L of their denominators, as int rows, and L."""
    big_l = math.lcm(*{q.denominator for row in rows for q in row.values()})
    return [{j: q.numerator * (big_l // q.denominator) for j, q in row.items()}
            for row in rows], big_l


def _parts(conj: Conjugator):
    """T's rows, then d and v as rows, over one common denominator L."""
    return _cleared([*conj.T, dict(enumerate(conj.d)), dict(enumerate(conj.v))])


def conjugation_residual(src: MarkovSystem, dst: MarkovSystem, conj: Conjugator):
    """Max-abs entry of M~ C - C M for C = T + 1 d^T + st v^T.

    M~ 1 = 1, d^T M = d^T, M~ st = -st (needed only where v != 0) and
    v^T M = -v^T cancel the rank-one terms, so M~ C - C M = M~ T - T M.
    The identities are checked first, exactly, or MarkovError is raised.
    Every product is `row_times` on sparse int rows, O(n) in all, the
    denominators cleared by lcms Lambda over both walk matrices and L
    over T, d and v: the result is max_abs / (L Lambda).
    """
    (*t, d, v), big_l = _parts(conj)
    walk, lam = _cleared(src.rows + dst.rows)
    m, mt, st = walk[:src.size], walk[src.size:], conj.st
    flip = 1 if any(v.values()) else 0          # st matters only where v != 0
    cols = [{0: 1, 1: flip * s} for s in st]     # the columns 1 and st
    for name, got, want in (
            ("M~ 1 = 1, M~ st = -st", [row_times(row, cols) for row in mt],
             [{0: lam, 1: -lam * flip * s} for s in st]),
            ("d^T M = d^T", [row_times(d, m)], [{j: lam * x for j, x in d.items()}]),
            ("v^T M = -v^T", [row_times(v, m)], [{j: -lam * x for j, x in v.items()}])):
        if any(_combine(a, b, -1) for a, b in zip(got, want)):   # a - b, zeros dropped
            raise MarkovError(f"conjugator: {name} fails")
    worst = 0
    for row, trow in zip(mt, t):
        diff = row_times(row, t)                 # row i of M~ T - T M
        for j, e in row_times(trow, m).items():
            diff[j] = diff.get(j, 0) - e
        worst = max(worst, max(map(abs, diff.values()), default=0))
    return Fraction(worst, big_l * lam)


def conjugator_sigma_min(conj: Conjugator) -> float:
    """Smallest singular value of C, each entry rounded once to a float.

    Over L from `_parts`, row i is the base row (d_j + st_i v_j) / L, one
    of two, with ((t_ij + d_j) + st_i v_j) / L on T's support: correctly
    rounded int divisions.
    """
    (*t, d, v), big_l = _parts(conj)
    plus, minus = ([(d[j] + s * v[j]) / big_l for j in range(len(t))] for s in (1, -1))
    c = np.where(np.array(conj.st)[:, None] > 0, plus, minus)
    for i, (trow, s) in enumerate(zip(t, conj.st)):
        for j, tij in trow.items():
            c[i, j] = ((tij + d[j]) + s * v[j]) / big_l
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
        "w": str(src.w) if mode == "rational" else float(src.w),
        "mode": mode,
        "conj_residual": float(residual),
        "sigma_min_C": conjugator_sigma_min(conj),
        "charpoly_equal": None,
    }
    if mode == "rational":                  # float mode skips the polynomials
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
    ms = markov_matrix(subdivide(g), w)
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
