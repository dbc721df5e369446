"""Weighted random walks on subdivided gears and their exact conjugation.

The walk on a unit subdivision takes tooth edges w times as likely as
polygon edges: M[v, u] = weight(v, u) / d(v) with d(v) the weighted
degree.  M is self-adjoint for the inner product diag(d), has spectrum
in [-1, 1], and mutually dual gears yield isospectral M, M~ -- certified
here by an explicit conjugator C = T + 1 d^T + st v^T: the combinatorial
transplantation T, sparse rows with at most 4 entries, plus rank-one
corrections on the +-1 eigenspaces.  C is kept as those parts and checked
by sparse-row products in O(n); equal characteristic polynomials by
`linalg.identity_test`, with det(x D - W) exact at random integers x, all
of them by one `linalg.unicyclic_dets` call per walk.  The
walk is kept as integer weights W and degrees D on the scale q of w = p/q,
a float w read as its exact binary fraction, and C's parts T, d and v as
ints over one denominator.  Floats appear only where numpy takes over, in
the eigensolve and sigma_min(C); `conjugator_report`'s verdict `ok` reads
the exact residual, never its float.  A `mode` argument selects nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (CombinatorialGraph, GearSpec, GearlabError, TOOTH,
                     bipartition_sign, build_gear, dual_gear, subdivide)
from .linalg import PRIME, identity_test, row_times, unicyclic_dets
from .polynomials import SparsePolynomial

MODES = ("rational", "float")


class MarkovError(GearlabError):
    pass


@dataclass(frozen=True)
class MarkovSystem:
    """Walk matrix M[v, u] = adjacency[v][u] / degrees[v], all ints.

    With w = p/q in lowest terms, a polygon edge weighs q and a tooth edge
    p: the weights and degrees are q times those of the walk.
    """

    cg: CombinatorialGraph
    w: Fraction
    degrees: tuple         # weighted vertex degrees q d(v)
    adjacency: tuple       # per vertex: dict neighbor -> edge weight sum, times q

    @property
    def size(self):
        return self.cg.vertex_count


def markov_matrix(cg: CombinatorialGraph, w, mode: str = "rational") -> MarkovSystem:
    """Walk matrix of a unit subdivision; tooth edges carry weight w, read exactly."""
    # mode changes nothing: the benchmark's workloads still pass it positionally
    if mode not in MODES:
        raise MarkovError(f"mode must be one of {MODES}")
    try:
        wv = Fraction(w)
        ok = 0 < float(wv) < math.inf       # positive and finite as a float
    except (OverflowError, ValueError, ZeroDivisionError, TypeError):
        ok = False                          # inf, nan, beyond the float range, or no number
    if not ok:
        raise MarkovError("tooth weight w must be positive and finite")
    n = cg.vertex_count
    adj = [dict() for _ in range(n)]
    for u, v, cls in cg.edges:
        wgt = wv.numerator if cls == TOOTH else wv.denominator
        adj[u][v] = adj[u].get(v, 0) + wgt
        adj[v][u] = adj[v].get(u, 0) + wgt
    degrees = tuple(sum(row.values()) for row in adj)
    if any(d == 0 for d in degrees):
        raise MarkovError("isolated vertex")
    return MarkovSystem(cg, wv, degrees, tuple(adj))


def _scaled(x: int, q: int, e: int) -> float:
    """x / (q 2^e) as a float, rounded once."""
    return x / (q << e) if e >= 0 else (x << -e) / q


def _symmetric_walk(ms: MarkovSystem):
    """S = D^{1/2} M D^{-1/2} = D^{-1/2} W D^{-1/2} as floats, with sqrt(D).

    S is unchanged when every weight is divided by one power of four 4^h;
    h from the largest weight keeps the weights and degrees near 1, where
    no float overflows, and dividing each weight by the square root of
    each degree in turn leaves no product of degrees to underflow.  The
    integer weights and degrees over q are each rounded once after the
    division by 4^h, as float() rounds them; so where the scaled values
    stay normal, S and sqrt(D) = 2^h sqrt(D / 4^h) are what the unscaled
    weights give.
    """
    n, q = ms.size, ms.w.denominator
    top = max(wgt for row in ms.adjacency for wgt in row.values())
    h = (top.bit_length() - q.bit_length()) // 2
    rows = [{u: _scaled(wgt, q, 2 * h) for u, wgt in row.items()} for row in ms.adjacency]
    d = [_scaled(x, q, 2 * h) for x in ms.degrees]
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


def _pencil_dets(ms: MarkovSystem, xs):
    """det(x D - W) = (-1)^n det(W - x D) at each x of xs, over any ring that
    holds them: one `unicyclic_dets` call on the adjacency W of the unicyclic
    subdivided gear, whose support is analysed once, with the diagonals
    W_vv - x D_v."""
    loops = [adj.get(v, 0) for v, adj in enumerate(ms.adjacency)]
    try:
        dets = unicyclic_dets(ms.adjacency, [[w - x * d for d, w in zip(ms.degrees, loops)]
                                             for x in xs])
    except ValueError as exc:
        raise MarkovError(f"walk pencil: {exc}") from exc
    return dets if ms.size % 2 == 0 else [-det for det in dets]


def characteristic_polynomial_exact(ms: MarkovSystem):
    """Monic char poly of M as ascending Fractions, exact.

    det(xI - M) = det(xD - W)/det(D) with the integer W and D, and
    det(x D - W) is expanded over Z[x].
    """
    (det,) = _pencil_dets(ms, [SparsePolynomial.variable("x")])
    coeffs = det.coefficients("x", ms.size + 1)
    return [Fraction(a, coeffs[-1]) for a in coeffs]


def charpoly_test(src: MarkovSystem, dst: MarkovSystem) -> dict:
    """`linalg.identity_test` of det(xI - M) = det(xI - M~), over Z at 2 points.

    det(xI - M) = det(xD - W)/prod D, so the two agree iff det(xD - W) prod D~
    = det(xD~ - W~) prod D, of degree <= max(n, n~) in x.  Random(0) draws
    each x from range(PRIME), and a false "equivalent-with-bound" has
    probability at most (max(n, n~)/PRIME)^2, 3.2e-30 at 4096 vertices.
    Each walk's support is analysed once, for both points.
    """
    prod, prod_t = math.prod(src.degrees), math.prod(dst.degrees)

    def evaluate(points):
        xs = [x for x, in points]
        return ([det * prod_t for det in _pencil_dets(src, xs)],
                [det * prod for det in _pencil_dets(dst, xs)])

    return identity_test(lambda rng: (rng.randrange(PRIME),), evaluate,
                         max(src.size, dst.size), trials=2, seed=0)


# ---------------------------------------------------------------------------
# combinatorial derivatives and transplantation
# ---------------------------------------------------------------------------

def _walk_rows(ms: MarkovSystem, lam: int):
    """lam M as int rows, lam a multiple of every degree: W[v][u] (lam / d(v))."""
    return [{u: wgt * (lam // dv) for u, wgt in row.items()}
            for row, dv in zip(ms.adjacency, ms.degrees)]


def _derivative_row(mrow: dict, lam: int, vp: int) -> dict:
    """Outward derivative -(M f)(v) + f(vp) times lam, from row v of lam M."""
    row = {u: -x for u, x in mrow.items()}
    row[vp] += lam
    return row


def combinatorial_derivative(ms: MarkovSystem, f, v: int, vp: int):
    """Outward derivative of f at v towards neighbor vp; exact for int or Fraction f."""
    if vp not in ms.adjacency[v]:
        raise MarkovError(f"vertices {v} and {vp} are not adjacent")
    row = _derivative_row(ms.adjacency[v], ms.degrees[v], vp)    # W's row v is row v of d(v) M
    return sum(c * f[u] for u, c in row.items()) / Fraction(ms.degrees[v])


def _path_rows(m: list, lam: int, path):
    """One-sided derivative rows along a tail-to-head path from lam M, slot by slot.

    Every slot but the last looks forward; the last looks back to its
    predecessor, negated, so each slot measures along the path direction.
    """
    rows = [_derivative_row(m[v], lam, path[j + 1]) for j, v in enumerate(path[:-1])]
    rows.append({u: -c for u, c in _derivative_row(m[path[-1]], lam, path[-2]).items()})
    return rows


def _combine(a: dict, b: dict, x: int, y: int) -> dict:
    """Row x a + y b, entries that cancel to exactly zero dropped."""
    row = {u: x * c for u, c in a.items()}
    for u, c in b.items():
        row[u] = row.get(u, 0) + y * c
    return {u: c for u, c in row.items() if c}


def _gear_path_count(cg: CombinatorialGraph) -> int:
    n = len(cg.paths) // 2
    if sorted(cg.paths) != list(range(2 * n)):
        raise MarkovError("expected gear paths with ids 0..n-1 (sides), n..2n-1 (teeth)")
    return n


def transplantation_matrix(src: MarkovSystem, dst: MarkovSystem):
    """Int rows of the combinatorial transplantation T, one dict per dual vertex, over q lam.

    With w = p/q and sd, td the derivative rows of slot j on source side
    and tooth path i, ints over lam = lcm of the source degrees, the dual
    side gets sd + w td = q sd + p td and the dual tooth q (sd - td).  A
    vertex on several dual paths must get exactly the same row from each,
    or MarkovError is raised; so every image T f is consistent.
    """
    n = _gear_path_count(src.cg)
    if _gear_path_count(dst.cg) != n:
        raise MarkovError("source and target gears differ in size")
    if src.w != dst.w:
        raise MarkovError("source and target weights differ")
    p, q = src.w.numerator, src.w.denominator
    lam = math.lcm(*src.degrees)
    m = _walk_rows(src, lam)
    rows = [None] * dst.size
    for i in range(n):
        side_d = _path_rows(m, lam, src.cg.paths[i])
        tooth_d = _path_rows(m, lam, src.cg.paths[n + i])
        plus = [_combine(sd, td, q, p) for sd, td in zip(side_d, tooth_d)]
        minus = [_combine(sd, td, q, -q) for sd, td in zip(side_d, tooth_d)]
        for path, path_rows in ((dst.cg.paths[i], plus), (dst.cg.paths[n + i], minus)):
            for vertex, row in zip(path, path_rows):
                if rows[vertex] is None:
                    rows[vertex] = row
                elif rows[vertex] != row:       # rows hold no zeros: exact comparison
                    raise MarkovError(
                        f"transplantation is inconsistent at shared vertex {vertex}")
    return rows, q * lam


def combinatorial_transplant(src: MarkovSystem, dst: MarkovSystem, f):
    """Transplant a vertex function from one subdivided gear to its dual: T f."""
    rows, den = transplantation_matrix(src, dst)
    return [sum(c * f[u] for u, c in row.items()) / Fraction(den) for row in rows]


@dataclass(frozen=True)
class Conjugator:
    """C = (T + 1 d^T + st v^T) / L, kept as int parts; no n x n matrix is stored."""

    T: tuple               # sparse rows of L T, <= 4 entries each
    d: tuple               # L d(v), source degrees with polygon edges 1: 1 d^T is L J+
    v: tuple               # L s_j d_j / sum(d) on a bipartite subdivision, else zeros
    st: tuple              # dual bipartition sign, else ones: st v^T is L J-
    denominator: int       # L = lcm(q lam, sum(D)), D = q d the walk's degrees


def build_conjugator(src: MarkovSystem, dst: MarkovSystem) -> Conjugator:
    """C = T + J+ + J- with M~ C = C M.

    J+ = 1 d^T maps the 1-eigenspace (constants) across and kills
    everything d-orthogonal to it; when the subdivision is bipartite,
    J- = st v^T does the same for the sign vectors s, st of the
    -1-eigenspaces, else v = 0.  As ints: L d_j = D_j L/q, L v_j = s_j D_j L/sum(D).
    """
    t, den = transplantation_matrix(src, dst)
    d, s, st = src.degrees, bipartition_sign(src.cg), bipartition_sign(dst.cg)
    if (s is None) != (st is None):
        raise MarkovError("dual pair disagrees on bipartiteness")
    total, q = sum(d), src.w.denominator
    big_l = math.lcm(den, total)
    k, kd, kv = big_l // den, big_l // q, big_l // total
    v = (0,) * len(d) if s is None else tuple(sj * dj * kv for sj, dj in zip(s, d))
    return Conjugator(tuple({j: k * x for j, x in row.items()} for row in t),
                      tuple(dj * kd for dj in d), v, tuple(st or (1,) * len(d)), big_l)


def conjugation_residual(src: MarkovSystem, dst: MarkovSystem, conj: Conjugator):
    """Max-abs entry of M~ C - C M for C = T + 1 d^T + st v^T.

    M~ 1 = 1, d^T M = d^T, M~ st = -st (needed only where v != 0) and
    v^T M = -v^T cancel the rank-one terms, so M~ C - C M = M~ T - T M.
    The identities are checked first, exactly, or MarkovError is raised.
    M~ 1 and M~ st are row sums, each row of T M is subtracted entry by
    entry into its row of M~ T, every other product is `row_times`, all on
    sparse int rows in O(n): the walk rows over Lambda = lcm of both gears'
    degrees, and the conjugator's parts over its L.  The result is
    max_abs / (L Lambda).
    """
    lam = math.lcm(*src.degrees, *dst.degrees)
    m, mt = _walk_rows(src, lam), _walk_rows(dst, lam)
    d, st = dict(enumerate(conj.d)), conj.st
    v = {j: x for j, x in enumerate(conj.v) if x}     # st matters only where v != 0
    for name, holds in (
            ("M~ 1 = 1, M~ st = -st", all(sum(row.values()) == lam for row in mt) and (
                not v or all(sum(x * st[u] for u, x in row.items()) == -lam * s
                             for row, s in zip(mt, st)))),
            ("d^T M = d^T", row_times(d, m) == {j: lam * x for j, x in d.items() if x}),
            ("v^T M = -v^T", row_times(v, m) == {j: -lam * x for j, x in v.items()})):
        if not holds:                           # row_times drops zeros: exact comparison
            raise MarkovError(f"conjugator: {name} fails")
    worst = 0
    for row, trow in zip(mt, conj.T):
        diff = row_times(row, conj.T)            # row i of M~ T - T M
        for k, c in trow.items():
            for j, e in m[k].items():
                diff[j] = diff.get(j, 0) - c * e
        worst = max(worst, max(map(abs, diff.values()), default=0))
    return Fraction(worst, conj.denominator * lam)


def conjugator_sigma_min(conj: Conjugator) -> float:
    """Smallest singular value of C, each entry rounded once to a float.

    Row i is the base row (d_j + st_i v_j) / L, one of two, with
    ((t_ij + d_j) + st_i v_j) / L on T's support: correctly rounded int
    divisions.
    """
    d, v, big_l = conj.d, conj.v, conj.denominator
    plus, minus = ([(d[j] + s * v[j]) / big_l for j in range(len(d))] for s in (1, -1))
    c = np.where(np.array(conj.st)[:, None] > 0, plus, minus)
    for i, (trow, s) in enumerate(zip(conj.T, conj.st)):
        for j, tij in trow.items():
            c[i, j] = ((tij + d[j]) + s * v[j]) / big_l
    return float(np.linalg.svd(c, compute_uv=False)[-1])


def conjugator_report(spec: GearSpec, w, mode: str = "rational") -> dict:
    """Build the dual pair, conjugate, and summarize the verification: `ok`
    iff the exact residual M~ C - C M is 0, `charpoly_test` finds the char
    polys equal (`charpoly_equal`), and `sigma_min_C` > 1e-8."""
    # mode changes nothing: the benchmark's workloads still pass it positionally
    g1 = subdivide(build_gear(spec))
    g2 = subdivide(build_gear(dual_gear(spec)))
    src = markov_matrix(g1, w, mode)
    dst = markov_matrix(g2, w, mode)
    conj = build_conjugator(src, dst)
    residual = conjugation_residual(src, dst, conj)
    sigma_min = conjugator_sigma_min(conj)
    test = charpoly_test(src, dst)
    equal = test["verdict"] == "equivalent-with-bound"
    return {
        "n": spec.n,
        "lengths": [float(l) for l in spec.lengths],
        "w": str(src.w),
        "conj_residual": float(residual),
        "sigma_min_C": sigma_min,
        "charpoly_equal": equal,
        "charpoly_test": test,
        "ok": residual == 0 and equal and sigma_min > 1e-8,
    }


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


def predicted_wavenumbers(ms: MarkovSystem, k_limit: float):
    """Wavenumbers below k_limit implied by the walk spectrum of a connected
    unit subdivision with m edges and n vertices.

    Interior walk eigenvalues mu contribute the arccos branches
    arccos(mu) + 2 pi j and 2 pi (j+1) - arccos(mu).  At k = j pi, where
    z = e^{ik} = (-1)^j, the bond determinant det(I - z S) = (1 - z^2)^(m-n)
    det((1 + z^2) D - 2 z W) / det D (Bass, Int. J. Math. 3 (1992) 717)
    vanishes to order (m - n) + 2 mult_walk((-1)^j), the multiplicity of
    k: mult_walk(1) = 1, and mult_walk(-1) = 1 if the subdivision is
    bipartite, else 0, both exact.  An order 0 gives no entry.
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
    excess = len(ms.cg.edges) - ms.size
    order = (excess + 2, excess + 2 * (bipartition_sign(ms.cg) is not None))  # j even, odd
    j = 1
    while j * math.pi < k_limit:
        if order[j % 2]:
            predicted.append((j * math.pi, order[j % 2]))
        j += 1
    predicted.sort()
    return predicted


def crosscheck_quantum(spec: GearSpec, w, k_max: float) -> dict:
    """Compare the scanned quantum spectrum with the walk prediction.

    Nonzero quantum eigenvalues strictly below (k_max - margin)^2 must
    equal the arccos branches of the interior walk spectrum plus the
    values at k = j pi from the walk's +-1 eigenvalues, multiplicities
    included (`predicted_wavenumbers`).
    """
    from .spectral import ScanParams, VertexConditions, scan_spectrum
    if not spec.is_integral():
        raise MarkovError("crosscheck needs integer edge lengths")
    g = build_gear(spec)
    cond = VertexConditions(float(w))
    spect = scan_spectrum(g, cond, ScanParams(k_max=k_max))
    ms = markov_matrix(subdivide(g), w)
    limit = k_max - 1e-6
    predicted = predicted_wavenumbers(ms, limit)
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
