"""Generalized characteristic polynomials of digraphs and zeta equivalence.

For a simple digraph G with adjacency A, the pencil

    L_G(z) = x I + y J + alpha A + beta A^T + gamma D_out + delta D_in

(J the all-ones matrix, D_out/D_in the diagonal row sums of A and A^T)
has a determinant that is homogeneous of degree n; its y = 0 restriction
is the generalized characteristic polynomial that carries the digraph's
reversing zeta data.  Zeta equivalence (equality of the y = 0
determinants) is tested two ways: probabilistically at random points of
a 61-bit prime field, by the Schwartz-Zippel protocol
`linalg.identity_test` that the walk route shares, and exactly by
expanding the y = 0 pencil with `linalg.unicyclic_det`, which needs the
one-cycle support that every gear digraph has.  Where every in-degree is
one c (every gear digraph, c = 1), delta enters only through x + c delta,
so the expansion runs without delta and x + c delta replaces x once at
the end (`char_poly_symbolic`).

One function, `_pencil_rows`, assembles the y = 0 pencil's sparse rows
(dicts col -> entry) from the arcs, over any ring, with one diagonal
entry per (D_out, D_in) pair and one each for alpha, beta and alpha +
beta, all shared by the rows.  The symbolic route and the intertwiner
give it polynomials (`_rows_at`).  `eval_dets` gives it lists of
residues, one per point of a block ("lanes"), and evaluates the rows by
one `linalg.det_mod` call; the rows of a gear digraph (every in-degree
1, out-degrees 0 to 3, no 2-cycle) then hold at most six lists, and
`det_mod` reduces each once.  At y = 0 a gear digraph costs O(n) row
operations, and y J enters as one dense border row and column.

`intertwiner` builds, from the walk transplantation's derivative rule,
a T with L_G~ T = T L_G at y = 0 for any gear digraph with every tooth
at its side's tail and the digraph of its dual.  Its determinant
factors into diagonal ones and one `unicyclic_det`, with a closed form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import (FIG6, Digraph, GearSpec, GearlabError, digraph_lengths, digraph_paths,
                     dual_gear, fig6_digraph_pair, gear_to_digraph)
from .linalg import (PRIME, det_mod, identity_bounds, identity_test,
                     permutation_sign, row_times, unicyclic_det)
from .polynomials import SparsePolynomial

ISOMORPHISM_MAX_N = 16
# (x, y, alpha, beta, gamma, delta) with y != 0: where verify_intertwiner
# compares the six-variable determinants of the fig6 pair
FULL_DET_POINT = (1, 1, 1, 1, 1, 1)


class ZetaError(GearlabError):
    pass


@dataclass(frozen=True)
class Pencil:
    """L_G(z) of a simple digraph: its size, out- and in-degrees, and arcs."""

    n: int
    D_out: tuple
    D_in: tuple
    arcs: tuple


def pencil(g: Digraph) -> Pencil:
    n = g.vertex_count
    d_out, d_in = [0] * n, [0] * n
    for t, h in g.arcs:
        if t == h:
            raise ZetaError("self-loops not supported")
        d_out[t] += 1
        d_in[h] += 1
    if len(g.arc_set()) != len(g.arcs):
        raise ZetaError("parallel arcs not supported")
    return Pencil(n, tuple(d_out), tuple(d_in), tuple(g.arcs))


def _pencil_rows(p: Pencil, diagonal, alpha, beta, both):
    """Sparse rows of x I + alpha A + beta A^T + gamma D_out + delta D_in
    over any ring, from the arcs in O(n + arcs), sharing their entries: the
    entry ``diagonal(D_out, D_in)``, computed once per distinct pair, and
    ``alpha``, ``beta``, or ``both`` = alpha + beta where t -> h and h -> t
    are both arcs (`pencil` rejects parallel arcs).  An entry may be zero
    (alpha = 0, say): `det_mod`, `unicyclic_det` and `row_times` skip zeros
    and change no entry in place."""
    degrees = list(zip(p.D_out, p.D_in))
    diagonals = {pair: diagonal(*pair) for pair in set(degrees)}
    rows = [{i: diagonals[pair]} for i, pair in enumerate(degrees)]
    for t, h in p.arcs:
        rows[t][h] = both if h in rows[t] else alpha
        rows[h][t] = both if t in rows[h] else beta
    return rows


def _rows_at(p: Pencil, x, alpha, beta, gamma, delta):
    """`_pencil_rows` at one point of any ring: ints or polynomials."""
    return _pencil_rows(p, lambda d_out, d_in: x + gamma * d_out + delta * d_in,
                        alpha, beta, alpha + beta)


def eval_dets(p: Pencil, points) -> list:
    """[det(L_G(point)) mod PRIME for point in points]: one `det_mod` call
    with the points as lanes.

    Every entry of the `_pencil_rows` is a list of residues, one per point.
    At y = 0 the rows have the digraph's support and a gear digraph costs
    O(n + arcs).  When any point has y != 0, the rank-one term y J =
    y 1 1^T enters at every point as a border, det(M + y 1 1^T) =
    det [[M, y 1], [-1^T, 1]] (Schur complement of the corner; a lane
    with y = 0 has a zero border column and gives det M): eliminating
    pendant vertices fills nothing outside the border, but each step
    rescales the dense border row, so y != 0 costs O(n^2).  No points give
    no residues; a point without six coordinates raises ZetaError.
    """
    if any(len(point) != 6 for point in points):
        raise ZetaError("a point needs 6 coordinates (x, y, alpha, beta, gamma, delta)")
    if not points:
        return []
    width = len(points)
    x, y, al, be, ga, de = ([v % PRIME for v in lane] for lane in zip(*points))
    rows = _pencil_rows(p, lambda d_out, d_in: [a + d_out * g + d_in * d
                                                for a, g, d in zip(x, ga, de)],
                        al, be, [a + b for a, b in zip(al, be)])
    if any(y):
        for row in rows:
            row[p.n] = y
        rows.append({**dict.fromkeys(range(p.n), [-1] * width), p.n: [1] * width})
    return det_mod(rows, PRIME, width)


def eval_det(p: Pencil, point) -> int:
    """det(L_G(point)) mod PRIME: `eval_dets` at one point."""
    return eval_dets(p, [point])[0]


def random_point(rng: random.Random):
    """Random evaluation point with y = 0 (the zeta-carrying restriction)."""
    return (rng.randrange(PRIME), 0, rng.randrange(PRIME), rng.randrange(PRIME),
            rng.randrange(PRIME), rng.randrange(PRIME))


def zeta_equivalent(g1: Digraph, g2: Digraph, trials: int = 20, seed: int = 0) -> dict:
    """Schwartz-Zippel test of the y = 0 pencil determinants, of degree n:
    `linalg.identity_test` at `random_point`s, one `eval_dets` call per digraph
    and block.  Digraphs of different sizes are distinguished without a point."""
    if trials < 1:
        raise ZetaError("need at least one trial")
    p1, p2 = pencil(g1), pencil(g2)
    if p1.n != p2.n:
        return {**identity_bounds(g1.vertex_count, trials, seed), "verdict": "distinguished",
                "distinguishing_point": None, "reason": "different vertex counts"}
    return identity_test(random_point, lambda pts: (eval_dets(p1, pts), eval_dets(p2, pts)),
                         p1.n, trials, seed)


# ---------------------------------------------------------------------------
# exact symbolic route
# ---------------------------------------------------------------------------

_Y0_VARIABLES = tuple(map(SparsePolynomial.variable, ("x", "alpha", "beta", "gamma", "delta")))


def char_poly_symbolic(p: Pencil) -> SparsePolynomial:
    """Exact y = 0 determinant det(L_G(z)) in x, alpha, beta, gamma, delta.

    This is the zeta-carrying restriction that the identity tests sample;
    every term has y exponent 0.  The diagonal is x + gamma D_out(v) +
    delta D_in(v).  When every in-degree is one c (c = 1 on every gear
    digraph), x and delta enter only as x + c delta: `unicyclic_det` expands
    the pencil at delta = 0, one variable fewer, and `shift_x` puts x + c
    delta in for x once at the end.  When the in-degree varies, c = 0 and
    nothing is folded.  Raises ZetaError when the underlying graph of G is
    disconnected or has two cycles; a gear digraph's has one.
    """
    x, al, be, ga, de = _Y0_VARIABLES
    c = 0
    if len(set(p.D_in)) == 1:
        c, de = p.D_in[0], 0
    try:
        det = unicyclic_det(_rows_at(p, x, al, be, ga, de))
    except ValueError as exc:
        raise ZetaError(f"symbolic determinant: {exc}") from exc
    return det.shift_x(c)


# ---------------------------------------------------------------------------
# the intertwiner of a gear digraph and its dual, from its derivative rule
# ---------------------------------------------------------------------------

def _rule_lengths(spec: GearSpec) -> list:
    """The lengths of `spec` as ints; ZetaError where the intertwiner rule does
    not apply, GraphError past MAX_SUBDIVISION_VERTICES as for the digraph."""
    if set(spec.tooth_ends) != {"tail"}:
        raise ZetaError("the intertwiner rule needs every tooth at its side's tail")
    if not spec.is_integral():
        raise ZetaError("the intertwiner rule needs positive integer lengths")
    return digraph_lengths(spec)


def _factors(spec: GearSpec):
    """K = alpha I + gamma A^T as sparse rows, the pencil at x = alpha,
    beta = gamma and 0 elsewhere, and the rows (r, a, b, sign, s_j+1, t_j+1)
    of alpha T = S' B K: S'[r] = alpha^a beta^b, B[r] = e[s_j+1] + sign e[t_j+1]
    for slot j of dual side path i (sign +1) or dual tooth path i (sign -1,
    distance m = l_i - j from the polygon), s, t the primal paths of i."""
    _rule_lengths(spec)
    _, al, _, ga, _ = _Y0_VARIABLES
    k = _rows_at(pencil(gear_to_digraph(spec)), al, 0, ga, 0, 0)
    primal, dual = digraph_paths(spec), digraph_paths(dual_gear(spec))
    top = max(len(side) for side, _ in primal) - 1
    rows = []
    for (s, t), (sigma, tau) in zip(primal, dual):
        l = len(s) - 1
        for j in range(l):
            rows.append((sigma[j], top, 0, 1, s[j + 1], t[j + 1]))
            rows.append((tau[j], top - (l - j), l - j, -1, s[j + 1], t[j + 1]))
    return k, sorted(rows)


def intertwiner(spec: GearSpec) -> list:
    """Sparse rows of T with L_G~ T = T L_G at y = 0, one dict per dual vertex.

    G and G~ are the digraph exports of `spec`, integer lengths and every
    tooth at its side's tail (else ZetaError), and of its dual.  The rule is the walk
    transplantation's: with d_j(p) = alpha e[p_j+1] + gamma e[p_j], the
    row of K = alpha I + gamma A^T at p_j+1, slot j of the dual side path
    i gets alpha^(L-1) (d_j(s) + d_j(t)) and slot j of the dual tooth path
    i, m from the polygon, alpha^(L-1-m) beta^m (d_j(s) - d_j(t)); s, t
    are the primal side and tooth paths of i, L the longest length.
    """
    k, rows = _factors(spec)
    # where a = 0 (m = L, j = 0), d_0(s) - d_0(t) = alpha (e[s_1] - e[t_1])
    # cancels the alpha^-1
    return [{j: SparsePolynomial.monomial(1, alpha=a - 1, beta=b) * e
             for j, e in row_times({s: 1, t: sign}, k).items()}
            for _, a, b, sign, s, t in rows]


def intertwines(pg: Pencil, pgt: Pencil, t) -> bool:
    """Whether L_G~ T = T L_G at y = 0, by sparse row products."""
    lg, lgt = _rows_at(pg, *_Y0_VARIABLES), _rows_at(pgt, *_Y0_VARIABLES)
    return all(row_times(lgt[i], t) == row_times(t[i], lg) for i in range(pgt.n))


def factored_det(spec: GearSpec) -> SparsePolynomial:
    """det T of the `intertwiner` through alpha T = S' B K.

    Every vertex of a gear digraph has in-degree 1, so the heads s_j+1,
    t_j+1 partition the vertices, B^T B = 2 I and det B = sign(pi)
    (-2)^N for pi: r -> s_j+1 (sign +1) or t_j+1 (sign -1).  S' is
    diagonal, and the one other determinant, det K, is `unicyclic_det`.
    """
    k, rows = _factors(spec)
    pi = [s if sign == 1 else t for _, _, _, sign, s, t in rows]
    assert sorted(pi) == list(range(len(pi))), "arc heads do not partition the vertices"
    half = len(pi) // 2
    # alpha^V det T = det S' det B det K
    scale = SparsePolynomial.monomial(permutation_sign(pi) * (-1) ** half * 2 ** half,
                                      alpha=sum(r[1] for r in rows) - len(pi),
                                      beta=sum(r[2] for r in rows))
    return scale * unicyclic_det(k)


def intertwiner_det(spec: GearSpec) -> SparsePolynomial:
    """Closed form of det T for the `intertwiner` of `spec`.

    With N the sum of the lengths, V = 2N, L the longest length and
    M = sum l_i (l_i + 1) / 2:  det T = +-2^N alpha^((L-1)V - M + N)
    beta^M (alpha^N - (-gamma)^N), the sign (-1)^N times that of the
    label map pi of `factored_det`, which rotates the cycle labels by
    1 - l_1 places and fixes the tooth labels.
    """
    lengths = _rule_lengths(spec)
    n, top = sum(lengths), max(lengths)
    m = sum(l * (l + 1) // 2 for l in lengths)
    sign = (-1) ** ((n + (n - 1) * (1 - lengths[0])) % 2)
    scale = SparsePolynomial.monomial(sign * 2 ** n, alpha=(top - 1) * 2 * n - m + n, beta=m)
    return scale * (SparsePolynomial.monomial(1, alpha=n)
                    - SparsePolynomial.monomial((-1) ** n, gamma=n))


def verify_intertwiner() -> dict:
    """Exact checks of the intertwiner of the fig6 pair.

    Verifies L_G~ T = T L_G symbolically for the y = 0 pencils, reports
    whether the all-ones term commutes as well (it does not: T has
    unequal row and column sums, so the identity is specific to y = 0),
    checks det(T) from its factorization against its closed form, and
    confirms the y = 0 determinants of the pair agree exactly.
    `full_determinants_equal` compares the six-variable determinants at
    the single point FULL_DET_POINT (y != 0): False proves they differ,
    True would only mean agreement at that point.  `etas` holds the two
    y = 0 determinants (primal, dual) that `eta_equal` compares.
    """
    pg, pgt = map(pencil, fig6_digraph_pair())
    t = intertwiner(FIG6)
    intertwines_y0 = intertwines(pg, pgt, t)
    # J T = T J iff every row sum of T equals every column sum
    col_sums = row_times(dict.fromkeys(range(pg.n), 1), t)
    sums = {*col_sums.values(), *(sum(row.values(), SparsePolynomial.zero()) for row in t)}
    det_ok = factored_det(FIG6) == intertwiner_det(FIG6)
    etas = (char_poly_symbolic(pg), char_poly_symbolic(pgt))
    eta_equal = etas[0] == etas[1]
    return {
        "intertwines_y0": intertwines_y0,
        "ones_term_commutes": len(col_sums) == pg.n and len(sums) == 1,
        "det_matches": det_ok,
        "eta_equal": eta_equal,
        "full_determinants_equal": eval_det(pg, FULL_DET_POINT) == eval_det(pgt, FULL_DET_POINT),
        "ok": intertwines_y0 and det_ok and eta_equal,
        "etas": etas,
    }


# ---------------------------------------------------------------------------
# small digraph isomorphism
# ---------------------------------------------------------------------------

def digraph_isomorphic(g1: Digraph, g2: Digraph):
    """Backtracking isomorphism search with degree pruning.

    Returns a vertex bijection (list: image of each g1 vertex) or None.
    The search compares arc sets, so parallel arcs raise ZetaError.
    """
    n = g1.vertex_count
    if n > ISOMORPHISM_MAX_N:
        raise ZetaError(f"isomorphism search limited to n <= {ISOMORPHISM_MAX_N}")
    arcs1, arcs2 = g1.arc_set(), g2.arc_set()
    if len(arcs1) != len(g1.arcs) or len(arcs2) != len(g2.arcs):
        raise ZetaError("parallel arcs not supported")
    if n != g2.vertex_count or len(arcs1) != len(arcs2):
        return None

    def degrees(arcs):
        tails, heads = [t for t, _ in arcs], [h for _, h in arcs]
        return [(tails.count(v), heads.count(v)) for v in range(n)]

    deg1, deg2 = degrees(arcs1), degrees(arcs2)
    if sorted(deg1) != sorted(deg2):
        return None
    candidates = [[u for u in range(n) if deg2[u] == deg1[v]] for v in range(n)]
    order = sorted(range(n), key=lambda v: len(candidates[v]))
    image = [-1] * n

    def consistent(v, u):
        return all(((v, x) in arcs1) == ((u, y) in arcs2) and ((x, v) in arcs1) == ((y, u) in arcs2)
                   for x, y in enumerate(image) if y != -1)

    def backtrack(pos):
        if pos == n:
            return True
        v = order[pos]
        for u in candidates[v]:
            if u not in image and consistent(v, u):
                image[v] = u
                if backtrack(pos + 1):
                    return True
                image[v] = -1
        return False

    return list(image) if backtrack(0) else None
