"""Independent oracles (sympy, mpmath, networkx) for the exact kernels.

sympy recomputes the characteristic polynomials and pencil determinants
symbolically, and expands Bartholdi's zeta function, specialised from the
pencil, against a brute-force count of closed walks; mpmath recomputes the walk spectrum at 50 digits, and
from it the quantum roots of gear123 at 40; networkx decides digraph
isomorphism, and connectivity and bipartiteness of multigraphs.  All are
test-only dependencies.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gearlab.graphs import (FIG2, POLYGON, TOOTH, CombinatorialGraph, Digraph, Edge, GearSpec,
                            MetricGraph, bipartition_sign, build_gear,
                            dual_gear, fig2_control_pair, fig6_digraph_pair, gear_to_digraph,
                            subdivide, validate_metric)
from gearlab import markov
from gearlab.markov import (characteristic_polynomial_exact, markov_eigenvalues, markov_matrix,
                            markov_spectrum)
from gearlab.spectral import ScanParams, VertexConditions, scan_spectrum
from gearlab import zeta
from gearlab.zeta import (PRIME, char_poly_symbolic, digraph_isomorphic, eval_det,
                          intertwiner, intertwiner_det, pencil)
from gearlab.linalg import unicyclic_det
from gearlab.polynomials import NVARS, VARIABLES, SparsePolynomial

from test_linalg import pencil_charpoly, random_multivariate_pencil, random_unicyclic_edges, sparse
from test_markov import reference_walk
from test_zeta import dense_pencil

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix

# (lengths, attachments); subdivision sizes 6 to 18
GEARS = [
    ((1, 1, 1), None),
    ((1, 2, 3), None),
    ((2, 2, 3), None),
    ((1, 2, 1, 3), None),
    ((1, 1, 2, 2, 3), None),
    ((1, 2, 3), ("tail", "head", "tail")),
    ((1, 2, 1, 3), ("head", "head", "tail", "tail")),
]
WEIGHTS = [Fraction(1, 2), Fraction(3, 2), Fraction(2)]
# weights whose degrees, or products of two degrees, leave the float range
EXTREME_WEIGHTS = [pytest.param(Fraction(10) ** k, id=f"1e{k}")
                   for k in (-300, -200, 200, 300, 308)]


def gear_walk(lengths, attachments, w):
    spec = GearSpec(len(lengths), lengths, "primal", attachments)
    return markov_matrix(subdivide(build_gear(spec)), w)


def ascending(poly_expr, x, n):
    """Ascending integer/rational coefficients of a sympy expression, padded to n+1."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(poly_expr, x).all_coeffs())]
    return coeffs + [Fraction(0)] * (n + 1 - len(coeffs))


@pytest.mark.parametrize("lengths,attachments", GEARS)
@pytest.mark.parametrize("w", WEIGHTS, ids=str)
def test_charpoly_matches_sympy(lengths, attachments, w):
    ms = gear_walk(lengths, attachments, w)
    n = ms.size
    m = sympy.zeros(n, n)
    for v, row in enumerate(reference_walk(ms.cg, w)):
        for u, p in row.items():
            m[v, u] = sympy.Rational(p.numerator, p.denominator)
    x = sympy.Symbol("x")
    expected = ascending(m.charpoly(x).as_expr(), x, n)
    assert characteristic_polynomial_exact(ms) == expected


@pytest.mark.parametrize("edges", [
    # a path: a tree
    ((0, 1, POLYGON), (1, 2, TOOTH)),
    # a triangle with a pendant path and a loop, so that W_00 != 0
    ((0, 1, POLYGON), (1, 2, TOOTH), (2, 0, POLYGON), (0, 3, TOOTH), (3, 4, POLYGON),
     (0, 0, TOOTH)),
], ids=["path", "triangle-with-loop"])
def test_charpoly_matches_sympy_on_walks_of_odd_size(edges):
    # a gear subdivision always has an even vertex count
    cg = CombinatorialGraph(1 + max(max(u, v) for u, v, _ in edges), edges, {})
    w = Fraction(3, 2)
    ms = markov_matrix(cg, w)
    assert ms.size % 2 == 1
    m = sympy.zeros(ms.size, ms.size)
    for v, row in enumerate(reference_walk(cg, w)):
        for u, p in row.items():
            m[v, u] = sympy.Rational(p.numerator, p.denominator)
    x = sympy.Symbol("x")
    assert characteristic_polynomial_exact(ms) == ascending(m.charpoly(x).as_expr(), x, ms.size)
    # the walk pencil itself, det(x D - W), sign included
    pencil = sympy.zeros(ms.size, ms.size)
    for v, row in enumerate(ms.adjacency):
        pencil[v, v] = x * ms.degrees[v]
        for u, wgt in row.items():
            pencil[v, u] -= wgt
    det = pencil.det()
    assert markov._pencil_dets(ms, [2, -5]) == [det.subs(x, 2), det.subs(x, -5)]


def _random_pencil(rng, n, m, kind):
    """Integer D, W supported on a random m-cycle with pendant trees (m = 0: a tree).

    W is not symmetric.  "full" puts entries of D on the support's edges
    too; "singular" zeroes part of D's diagonal, so deg det < n.
    """
    w = [[0] * n for _ in range(n)]
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        w[i][i] = rng.randint(-4, 4)
        d[i][i] = rng.randint(1, 5)
    if kind == "singular":
        for i in rng.sample(range(n), rng.randint(1, n)):
            d[i][i] = 0
    for u, v in random_unicyclic_edges(rng, n, m):
        w[u][v] = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        w[v][u] = rng.randint(-4, 4)
        if kind == "full":
            d[u][v], d[v][u] = rng.randint(-3, 3), rng.randint(-3, 3)
    return d, w


PENCIL_SEEDS = {"diagonal": 11, "full": 12, "singular": 13}


@pytest.mark.parametrize("kind", sorted(PENCIL_SEEDS))
def test_pencil_charpoly_matches_sympy(kind):
    rng = random.Random(PENCIL_SEEDS[kind])
    x = sympy.Symbol("x")
    for m in (0, 3, 4, 5, 6, 7):
        for _ in range(3):
            n = rng.randint(max(m, 2), 12)
            d, w = _random_pencil(rng, n, m, kind)
            pencil = DomainMatrix.from_Matrix(x * sympy.Matrix(d) - sympy.Matrix(w))
            pencil = pencil.convert_to(sympy.ZZ[x])
            expr = pencil.domain.to_sympy(pencil.det())
            expected = ascending(expr, x, n)
            got = pencil_charpoly(d, w)
            assert len(got) == n + 1
            assert got == expected
            if kind == "singular":
                assert got[-1] == 0


def sympy_det(rows, names):
    """det of a SparsePolynomial matrix in the variables ``names``, by sympy
    over ZZ[names]; the result as {full exponent tuple: coefficient}."""
    symbols = sympy.symbols(" ".join(names))
    ring = sympy.ZZ[symbols]
    index = [VARIABLES.index(name) for name in names]

    def convert(p):
        assert all(e[i] == 0 for e in p.terms for i in range(NVARS) if i not in index)
        return ring.from_sympy(sum((c * sympy.prod(v ** e[i] for v, i in zip(symbols, index))
                                    for e, c in p.terms.items()), sympy.Integer(0)))

    n = len(rows)
    # the constant term of det(t I - M), division free (Berkowitz), is (-1)^n det M;
    # DomainMatrix.det divides in the polynomial ring and is ~25x slower here
    charpoly = DomainMatrix([[convert(p) for p in row] for row in rows], (n, n), ring).charpoly()
    det = charpoly[-1] * (-1) ** n
    full = {}
    for exps, c in det.to_dict().items():
        key = [0] * NVARS
        for i, e in zip(index, exps):
            key[i] = e
        full[tuple(key)] = int(c)
    return full


def test_unicyclic_det_matches_sympy_on_multivariate_pencils():
    # the random (x, alpha, beta) pencils of test_linalg, up to 12 vertices
    rng = random.Random(23)
    for m in (0, 3, 4, 5, 6, 7):
        for _ in range(3):
            rows = random_multivariate_pencil(rng, rng.randint(max(m, 2), 12), m)
            assert unicyclic_det(sparse(rows)).terms == sympy_det(rows, ("x", "alpha", "beta"))


@pytest.mark.parametrize("lengths", [(1, 1, 1), (2, 1, 1), (1, 2, 2), (1, 2, 3), (4, 2, 1),
                                     (1, 2, 1, 3), (1, 1, 1, 1, 1), (1, 1, 2, 2, 3)], ids=str)
def test_intertwiner_det_matches_sympy(lengths):
    spec = GearSpec(len(lengths), lengths)
    t = intertwiner(spec)
    n = len(t)
    assert n <= 18
    rows = [[row.get(j, SparsePolynomial.zero()) for j in range(n)] for row in t]
    assert intertwiner_det(spec).terms == sympy_det(rows, ("alpha", "beta", "gamma"))


def _mpf(q):
    return mpmath.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize("lengths,attachments", GEARS)
@pytest.mark.parametrize("w", WEIGHTS + EXTREME_WEIGHTS, ids=str)
def test_markov_spectrum_matches_mpmath(lengths, attachments, w):
    ms = gear_walk(lengths, attachments, w)
    n = ms.size
    with mpmath.workdps(50):
        s = mpmath.matrix(n, n)
        for v, row in enumerate(ms.adjacency):
            for u, wgt in row.items():
                s[v, u] = _mpf(wgt) / mpmath.sqrt(_mpf(ms.degrees[v] * ms.degrees[u]))
        exact = [float(e) for e in sorted(mpmath.eigsy(s, eigvals_only=True))]
    fvals, _ = markov_spectrum(gear_walk(lengths, attachments, float(w)))
    rvals, _ = markov_spectrum(ms)
    for vals in (fvals, rvals, markov_eigenvalues(ms)):
        assert len(vals) == n
        assert max(abs(a - b) for a, b in zip(vals, exact)) < 1e-14


def walk_roots(lengths, w, k_max):
    """(k, multiplicity) of the quantum graph below k_max at 40 digits.

    For integer lengths the nonzero quantum roots are the arccos branches
    arccos(mu) + 2 pi j and 2 pi (j + 1) - arccos(mu) of the interior
    eigenvalues mu of the subdivided walk, plus j pi with multiplicity 2
    when j times the circumference is even.
    """
    ms = gear_walk(lengths, None, w)
    n = ms.size
    with mpmath.workdps(40):
        s = mpmath.matrix(n, n)
        for v, row in enumerate(ms.adjacency):
            for u, wgt in row.items():
                s[v, u] = _mpf(wgt) / mpmath.sqrt(_mpf(ms.degrees[v] * ms.degrees[u]))
        mus = sorted(mpmath.eigsy(s, eigvals_only=True))
        clusters = []
        for mu in mus:
            if clusters and abs(mu - clusters[-1][0]) < mpmath.mpf(10) ** -30:
                clusters[-1][1] += 1
            else:
                clusters.append([mu, 1])
        roots = []
        for mu, mult in clusters:
            if abs(mu) > 1 - mpmath.mpf(10) ** -30:
                continue
            a = mpmath.acos(mu)
            for j in range(int(k_max / (2 * math.pi)) + 1):
                roots += [(k, mult) for k in (a + 2 * mpmath.pi * j, 2 * mpmath.pi * (j + 1) - a)
                          if k < k_max]
        circumference = sum(lengths)
        roots += [(j * mpmath.pi, 2) for j in range(1, int(k_max / math.pi) + 1)
                  if j * circumference % 2 == 0]
        return sorted(roots)


def test_gear123_scan_roots_match_mpmath_walk_roots():
    # every root of gear123 (w = 3/2) below k = 12, simple and double;
    # the golden-section refinement was off by up to 2.1e-13
    w, k_max = Fraction(3, 2), 12.0
    exact = walk_roots((1, 2, 3), w, k_max)
    assert sorted({m for _, m in exact}) == [1, 2]
    spectrum = scan_spectrum(build_gear(GearSpec(3, (1, 2, 3), "primal")),
                             VertexConditions(float(w)), ScanParams(k_max))
    scanned = [(math.sqrt(lam), mult) for lam, mult in spectrum.entries[1:]]
    assert [m for _, m in scanned] == [m for _, m in exact]
    with mpmath.workdps(40):
        err = max(abs(mpmath.mpf(k) - root) for (k, _), (root, _) in zip(scanned, exact))
    assert err <= 1e-14


# ---------------------------------------------------------------------------
# digraph pencils and isomorphism
# ---------------------------------------------------------------------------

def seeded_gear_pair(seed):
    """Primal and dual digraphs of a random 3- or 4-gear with 8-10 vertices."""
    rng = random.Random(seed)
    while True:
        lengths = tuple(rng.randint(1, 2) for _ in range(rng.choice((3, 4))))
        if 4 <= sum(lengths) <= 5:
            break
    spec = GearSpec(len(lengths), lengths, "primal")
    return gear_to_digraph(spec), gear_to_digraph(dual_gear(spec))


FIG2_112 = dataclasses.replace(FIG2, lengths=(1, 1, 2))
PENCIL_DIGRAPHS = {
    "fig2-112-top": gear_to_digraph(FIG2_112),
    "fig2-112-bottom": gear_to_digraph(dual_gear(FIG2_112)),
    "gear-s21-primal": seeded_gear_pair(21)[0],
    "gear-s21-dual": seeded_gear_pair(21)[1],
    "gear-s22-primal": seeded_gear_pair(22)[0],
    "gear-s22-dual": seeded_gear_pair(22)[1],
    # every in-degree 1 above; out-degree 1 and in-degrees 0 to 3 here
    "gear-s21-reversed": Digraph(seeded_gear_pair(21)[0].vertex_count,
                                 tuple((h, t) for t, h in seeded_gear_pair(21)[0].arcs)),
    # every in- and out-degree 2
    "bidirected-8-cycle": Digraph(8, tuple((i, (i + 1) % 8) for i in range(8))
                                  + tuple(((i + 1) % 8, i) for i in range(8))),
    # a 4-cycle with pendant arcs both ways: neither degree is constant
    "mixed-degrees": Digraph(9, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (5, 1), (2, 6),
                                 (6, 7), (8, 6))),
}


def test_pencil_oracle_has_constant_and_varying_degrees():
    # char_poly_symbolic folds a constant in-degree into x: the oracle
    # holds in-degree 1, in-degree 2 and varying in-degrees
    def constant(degrees):
        return degrees[0] if len(set(degrees)) == 1 else None

    cases = {constant(p.D_in) for p in map(pencil, PENCIL_DIGRAPHS.values())}
    assert {1, 2, None} <= cases


def sympy_y0_det(dg):
    """The y = 0 pencil determinant of ``dg`` by sympy, as exponent tuple ->
    coefficient, built from the arcs, independent of zeta's own pencil
    assembly."""
    x, al, be, ga, de = sympy.symbols("x alpha beta gamma delta")
    mat = sympy.Matrix.diag(*[x] * dg.vertex_count)
    for t, h in dg.arcs:
        mat[t, h] += al
        mat[h, t] += be
        mat[t, t] += ga
        mat[h, h] += de
    dm = DomainMatrix.from_Matrix(mat).convert_to(sympy.ZZ[x, al, be, ga, de])
    return {(e[0], 0) + e[1:]: int(c) for e, c in dm.det().to_dict().items()}


@pytest.mark.parametrize("name", sorted(PENCIL_DIGRAPHS))
def test_y0_pencil_determinant_matches_sympy(name):
    dg = PENCIL_DIGRAPHS[name]
    assert 8 <= dg.vertex_count <= 10
    got = char_poly_symbolic(pencil(dg)).substitute(y=0)
    assert got.terms == sympy_y0_det(dg)


def test_single_vertex_pencil_determinant_matches_sympy():
    # in-degree 0: the fold adds nothing to x
    dg = Digraph(1, ())
    assert char_poly_symbolic(pencil(dg)).terms == sympy_y0_det(dg) == {(1, 0, 0, 0, 0, 0): 1}


def test_fig6_full_determinants_differ_at_certificate_point():
    # the point (x, y, alpha, beta, gamma, delta) with y != 0 at which
    # verify_intertwiner reports full_determinants_equal; exact integers
    point = (1, 1, 1, 1, 1, 1)
    g, gt = fig6_digraph_pair()
    exact = [int(sympy.Matrix(dense_pencil(dg, point)).det()) for dg in (g, gt)]
    assert exact[0] != exact[1]
    assert [eval_det(pencil(dg), point) for dg in (g, gt)] == [v % PRIME for v in exact]


def _swap_arcs(dg, rng, swaps):
    """Degree-preserving rewiring: (a,b),(c,d) -> (a,d),(c,b) when still simple."""
    arcs = list(dg.arcs)
    for _ in range(swaps):
        i, j = rng.sample(range(len(arcs)), 2)
        (a, b), (c, d) = arcs[i], arcs[j]
        if a == d or c == b or (a, d) in arcs or (c, b) in arcs:
            continue
        arcs[i], arcs[j] = (a, d), (c, b)
    return Digraph(dg.vertex_count, tuple(arcs))


def _relabel(dg, rng):
    perm = list(range(dg.vertex_count))
    rng.shuffle(perm)
    return Digraph(dg.vertex_count, tuple((perm[t], perm[h]) for t, h in dg.arcs))


def _random_digraph(rng):
    n = rng.randint(4, 8)
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    return Digraph(n, tuple(rng.sample(pairs, rng.randint(n, 2 * n))))


def isomorphism_cases():
    rng = random.Random(41)
    cases = [("fig6", *fig6_digraph_pair()), ("fig2", *fig2_control_pair())]
    g6 = fig6_digraph_pair()[0]
    cases.append(("fig6-relabelled", g6, _relabel(g6, rng)))
    for seed in (21, 22):
        primal, dual = seeded_gear_pair(seed)
        cases.append((f"gear-s{seed}-relabelled", primal, _relabel(primal, rng)))
        cases.append((f"gear-s{seed}-dual", primal, _relabel(dual, rng)))
    for k in range(30):
        dg = _random_digraph(rng)
        # even k: relabelled copy (isomorphic); odd k: same degree sequences
        other = _relabel(dg, rng) if k % 2 == 0 else _relabel(_swap_arcs(dg, rng, 10), rng)
        cases.append((f"random-{k}", dg, other))
    return cases


def test_digraph_isomorphic_matches_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    def to_nx(dg):
        h = nx.DiGraph()
        h.add_nodes_from(range(dg.vertex_count))
        h.add_edges_from(dg.arcs)
        return h

    verdicts = []
    for name, a, b in isomorphism_cases():
        expected = DiGraphMatcher(to_nx(a), to_nx(b)).is_isomorphic()
        witness = digraph_isomorphic(a, b)
        assert (witness is not None) == expected, name
        verdicts.append(expected)
        if witness is not None:
            assert sorted(witness) == list(range(a.vertex_count)), name
            assert {(witness[t], witness[h]) for t, h in a.arcs} == b.arc_set(), name
    # both verdicts occur, including among same-degree-sequence pairs
    assert True in verdicts and False in verdicts


@st.composite
def multigraphs(draw):
    """Metric multigraphs of 1 to 30 vertices with lengths 1 to 3: a random
    forest that joins all but a few vertices to earlier ones, then random
    extra edges, loops and parallel edges included, on shuffled labels, so
    that isolated vertices, several components and odd cycles all occur."""
    n = draw(st.integers(1, 30))
    label = draw(st.permutations(range(n)))
    vertex = st.integers(0, n - 1)
    unjoined = draw(st.sets(st.integers(1, max(1, n - 1)), max_size=3))
    ends = [(label[i], label[draw(st.integers(0, i - 1))]) for i in range(1, n)
            if i not in unjoined]
    ends += draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    return MetricGraph(n, tuple(Edge(i, u, v, float(draw(st.integers(1, 3))))
                                for i, (u, v) in enumerate(ends)))


@settings(deadline=None, max_examples=300)
@given(multigraphs())
def test_connectivity_and_bipartiteness_match_networkx(g):
    nx = pytest.importorskip("networkx")

    def to_nx(vertex_count, pairs):
        h = nx.MultiGraph()
        h.add_nodes_from(range(vertex_count))
        h.add_edges_from(pairs)
        return h

    connected = nx.is_connected(to_nx(g.vertex_count, [(e.tail, e.head) for e in g.edges]))
    assert ("not connected" in validate_metric(g)) == (not connected)
    if not connected:
        return
    cg = subdivide(g)
    sign = bipartition_sign(cg)
    assert (sign is None) == (not nx.is_bipartite(to_nx(cg.vertex_count, [e[:2] for e in cg.edges])))
    if sign is not None:
        assert len(sign) == cg.vertex_count and sign[0] == 1
        assert set(sign) <= {1, -1}
        assert all(sign[u] == -sign[v] for u, v, _ in cg.edges)


# ---------------------------------------------------------------------------
# Bartholdi's zeta function through the pencil
# ---------------------------------------------------------------------------

BARTHOLDI_LENGTH = 8


def bump_counts(dg, length):
    """N_length(t) by brute force, as {bump count: closed walks}: every closed
    walk of that length on the underlying graph, counted with the cyclic
    bump count, the steps i whose next step walks straight back."""
    nbrs = [set() for _ in range(dg.vertex_count)]
    for t, h in dg.arcs:
        nbrs[t].add(h)
        nbrs[h].add(t)
    counts = {}

    def extend(walk):
        if len(walk) == length:
            if walk[0] in nbrs[walk[-1]]:
                bumps = sum(walk[(i + 2) % length] == walk[i] for i in range(length))
                counts[bumps] = counts.get(bumps, 0) + 1
            return
        for v in nbrs[walk[-1]]:
            extend(walk + [v])

    for v in range(dg.vertex_count):
        extend([v])
    return counts


def bartholdi_series(dg, u, t):
    """The coefficients of u^1 .. u^BARTHOLDI_LENGTH of -u d/du log of
    Bartholdi's (1 - (1 - t)^2 u^2)^(m - n) det(I - u A + (1 - t)(D - (1 - t) I) u^2),
    the y = 0 pencil at alpha = beta = -u, gamma = delta = (1 - t) u^2 and
    x = 1 - (1 - t)^2 u^2, as polynomials in t."""
    ring = sympy.ZZ[u, t]
    x, al, ga = ring.from_sympy(1 - (1 - t) ** 2 * u ** 2), ring.from_sympy(-u), \
        ring.from_sympy((1 - t) * u ** 2)
    det = ring.zero
    for (a, _, c, d, e, f), coeff in char_poly_symbolic(pencil(dg)).terms.items():
        det += coeff * x ** a * al ** (c + d) * ga ** (e + f)
    m, n = len(dg.arcs), dg.vertex_count
    assert m >= n
    inverse_zeta = det * x ** (m - n)
    # by powers of u, as polynomials in t: P = sum P_k u^k with P_0 = 1
    tring = sympy.ZZ[t]
    p = [tring.zero] * (BARTHOLDI_LENGTH + 1)
    for (i, j), coeff in inverse_zeta.terms():
        if i <= BARTHOLDI_LENGTH:
            p[i] += tring(coeff) * tring.gens[0] ** j
    assert p[0] == tring.one
    # S = -u P' / P, term by term: S_k = -k P_k - sum_{j=1..k-1} P_j S_{k-j}
    s = [tring.zero] * (BARTHOLDI_LENGTH + 1)
    for k in range(1, BARTHOLDI_LENGTH + 1):
        s[k] = -k * p[k] - sum((p[j] * s[k - j] for j in range(1, k)), tring.zero)
    return s[1:]


def random_unicyclic_digraph(seed, n):
    """A randomly oriented unicyclic graph of n vertices whose cycle has
    length 3 or more, so the digraph has no 2-cycle."""
    rng = random.Random(seed)
    edges = random_unicyclic_edges(rng, n, rng.randint(3, n))
    return Digraph(n, tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in edges))


BARTHOLDI_DIGRAPHS = {
    **{f"unicyclic-{n}": random_unicyclic_digraph(30 + n, n) for n in range(3, 10)},
    "fig6-primal": fig6_digraph_pair()[0],
    "fig6-dual": fig6_digraph_pair()[1],
}


def bartholdi_holds(dg):
    u, t = sympy.symbols("u t")
    series = bartholdi_series(dg, u, t)
    tring = sympy.ZZ[t]
    for length, got in enumerate(series, start=1):
        counts = bump_counts(dg, length)
        expected = sum((tring(c) * tring.gens[0] ** b for b, c in counts.items()), tring.zero)
        if got != expected:
            return False
    return True


@pytest.mark.parametrize("name", sorted(BARTHOLDI_DIGRAPHS))
def test_pencil_specialises_to_bartholdis_zeta_function(name):
    """Bartholdi, Enseign. Math. 45 (1999) 83: zeta_U(u, t)^-1 is the y = 0
    pencil at the point above, and -u d/du log of it counts the closed
    walks of the underlying graph U by length and cyclic bump count."""
    assert bartholdi_holds(BARTHOLDI_DIGRAPHS[name])


def test_bartholdi_oracle_sees_delta_on_the_out_degrees(monkeypatch):
    # with gamma = delta the mutation doubles gamma D_out in place of
    # gamma (D_out + D_in); the fold of a constant in-degree keeps delta out
    # of the rows, so the digraph has varying in-degrees
    dg = BARTHOLDI_DIGRAPHS["unicyclic-7"]
    p = pencil(dg)
    assert len(set(p.D_in)) > 1 and p.D_in != p.D_out
    assert bartholdi_holds(dg)
    real = zeta._pencil_rows

    def delta_on_d_out(p, diagonal, alpha, beta, both):
        return real(p, lambda d_out, d_in: diagonal(d_out, d_out), alpha, beta, both)

    monkeypatch.setattr(zeta, "_pencil_rows", delta_on_d_out)
    assert not bartholdi_holds(dg)
