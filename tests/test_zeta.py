"""Pencils, identity testing, the explicit intertwiner, and isomorphism."""

import copy
import math
import random

import pytest

from hypothesis import example, given, settings, strategies as st

from gearlab.graphs import (MAX_SUBDIVISION_VERTICES, Digraph, GearSpec, GraphError, build_gear,
                            digraph_paths, dual_gear, fig2_control_pair, fig6_digraph_pair,
                            gear_to_digraph, subdivide)
from gearlab.linalg import TRIAL_BLOCK, det_mod, permutation_sign, unicyclic_det
from gearlab import linalg, zeta
from gearlab.zeta import (FIG6, PRIME, ZetaError, char_poly_symbolic,
                          digraph_isomorphic, eval_det, eval_dets, factored_det, intertwiner,
                          intertwiner_det, intertwines, pencil, random_point,
                          verify_intertwiner, zeta_equivalent)
from gearlab.polynomials import SparsePolynomial

from test_linalg import bareiss_det, random_unicyclic_edges, sparse
from test_polynomials import is_homogeneous

X = SparsePolynomial.variable("x")
AL = SparsePolynomial.variable("alpha")
BE = SparsePolynomial.variable("beta")
GA = SparsePolynomial.variable("gamma")
DE = SparsePolynomial.variable("delta")


def single_arc():
    return Digraph(2, ((0, 1),), "arc")


# ---------------------------------------------------------------------------
# pencils and modular evaluation
# ---------------------------------------------------------------------------

def test_pencil_single_arc():
    p = pencil(single_arc())
    assert p.n == 2
    assert p.arcs == ((0, 1),)
    assert p.D_out == (1, 0)
    assert p.D_in == (0, 1)


def test_pencil_fig6_arc_count():
    g, gt = fig6_digraph_pair()
    for dg in (g, gt):
        p = pencil(dg)
        assert len(p.arcs) == sum(p.D_out) == sum(p.D_in) == 12
        assert p.D_out == tuple(sum(t == v for t, _ in dg.arcs) for v in range(12))
        assert p.D_in == tuple(sum(h == v for _, h in dg.arcs) for v in range(12))


def test_pencil_rejects_loops_and_parallels():
    with pytest.raises(ZetaError):
        pencil(Digraph(2, ((0, 0),)))
    with pytest.raises(ZetaError):
        pencil(Digraph(2, ((0, 1), (0, 1))))


def test_eval_det_trivial_points():
    p = pencil(single_arc())
    assert eval_det(p, (0, 0, 0, 0, 0, 0)) == 0
    assert eval_det(p, (1, 0, 0, 0, 0, 0)) == 1
    empty = pencil(Digraph(3, ()))
    assert eval_det(empty, (5, 0, 0, 0, 0, 0)) == 125


def test_fig6_pair_agrees_at_random_points():
    g, gt = fig6_digraph_pair()
    pg, pgt = pencil(g), pencil(gt)
    rng = random.Random(123)
    for _ in range(20):
        pt = random_point(rng)
        assert eval_det(pg, pt) == eval_det(pgt, pt)


def dense_pencil(dg, point):
    """Dense integer matrix of L_G at a 6-tuple (x, y, alpha, beta, gamma, delta),
    straight from the arcs of the digraph ``dg`` and independent of `pencil`."""
    x, y, al, be, ga, de = point
    n = dg.vertex_count
    mat = [[y] * n for _ in range(n)]
    for t, h in dg.arcs:
        mat[t][h] += al
        mat[h][t] += be
        mat[t][t] += ga
        mat[h][h] += de
    for i in range(n):
        mat[i][i] += x
    return mat


def test_eval_dets_edge_cases():
    # no points give no residues; a point of another length is rejected,
    # also next to a well-formed one (zip would cut it to six coordinates)
    p = pencil(fig6_digraph_pair()[0])
    assert eval_dets(p, []) == []
    for points in ([(1, 0, 2, 3, 4)], [(1, 0, 2, 3, 4, 5), (1, 0, 2, 3, 4, 5, 6)]):
        with pytest.raises(ZetaError, match="a point needs 6 coordinates"):
            eval_dets(p, points)


def test_eval_dets_shares_one_diagonal_per_degree_pair(monkeypatch):
    # one diagonal lane list per (D_out, D_in), so a gear digraph's rows
    # share at most six lists, and det_mod leaves the rows as they were built
    seen = []

    def spy(rows, p, width):
        seen.append((rows, copy.deepcopy(rows)))
        return det_mod(rows, p, width)

    monkeypatch.setattr(zeta, "det_mod", spy)
    pg = pencil(gear_to_digraph(GearSpec(6, (4, 4, 4, 3, 3, 3), "primal",
                                       ("tail", "tail", "head", "head", "tail", "tail"))))
    rng = random.Random(5)
    eval_dets(pg, [random_point(rng) for _ in range(4)])
    (rows, before), = seen
    diagonals = {id(row[i]) for i, row in enumerate(rows)}
    assert len(diagonals) == len(set(zip(pg.D_out, pg.D_in))) == 4
    assert len({id(lanes) for row in rows for lanes in row.values()}) == 6
    assert rows == before


def test_eval_dets_falls_back_to_single_points(monkeypatch):
    # the all-zero point leaves no pivot that is nonzero at every point of
    # the batch: eval_dets makes one call, and det_mod evaluates the batch
    # one point at a time
    widths = []

    def spy(rows, p, width):
        widths.append(width)
        return det_mod(rows, p, width)

    monkeypatch.setattr(zeta, "det_mod", spy)
    monkeypatch.setattr(linalg, "det_mod", spy)
    dg, _ = fig6_digraph_pair()
    rng = random.Random(41)
    points = [random_point(rng), (0,) * 6, random_point(rng)]
    assert eval_dets(pencil(dg), points) == [bareiss_det(dense_pencil(dg, pt)) % PRIME
                                             for pt in points]
    assert widths == [3, 1, 1, 1]


@st.composite
def simple_digraphs(draw):
    """Digraphs on 1 to 8 vertices without loops or parallel arcs."""
    n = draw(st.integers(1, 8))
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    return Digraph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ()))


@settings(deadline=None, max_examples=60)
@given(simple_digraphs(), st.lists(st.integers(0, PRIME - 1), min_size=6, max_size=6),
       st.booleans())
def test_eval_det_matches_dense_determinant(dg, point, y0):
    # any simple digraph (2-cycles, several cycles, isolated vertices),
    # with and without the bordered all-ones term
    if y0:
        point[1] = 0
    assert eval_det(pencil(dg), point) == bareiss_det(dense_pencil(dg, point)) % PRIME


def scale_gear(rng, total, attach):
    """A gear with lengths summing to ``total`` (2 * total digraph vertices)."""
    n = rng.randint(3, max(3, total // 4))
    lengths = [1] * n
    for _ in range(total - n):
        lengths[rng.randrange(n)] += 1
    ends = {"primal": None, "dual": ("head",) * n,
            "mixed": tuple(rng.choice(("tail", "head")) for _ in range(n))}[attach]
    return GearSpec(n, tuple(lengths), "primal", ends)


@pytest.mark.parametrize("attach", ["primal", "dual", "mixed"])
@pytest.mark.parametrize("total", [6, 21, 60, 200])
def test_eval_det_matches_unicyclic_det_at_scale(total, attach):
    # the sparse elimination against Schwenk's leaf peeling on the same
    # integer matrix, 12 to 400 vertices
    rng = random.Random(f"{total}:{attach}")
    dg = gear_to_digraph(scale_gear(rng, total, attach))
    p = pencil(dg)
    assert p.n == 2 * total
    for _ in range(2):
        pt = random_point(rng)
        assert eval_det(p, pt) == unicyclic_det(sparse(dense_pencil(dg, pt))) % PRIME


@st.composite
def zeta_digraphs(draw):
    """Gear digraphs with mixed attachments, the fig2 pair, and simple
    digraphs whose underlying graph has two or more cycles."""
    kind = draw(st.sampled_from(["gear", "fig2", "cycles"]))
    if kind == "gear":
        lengths = tuple(draw(st.lists(st.integers(1, 2), min_size=3, max_size=5)))
        ends = tuple(draw(st.lists(st.sampled_from(["tail", "head"]),
                                   min_size=len(lengths), max_size=len(lengths))))
        variant = draw(st.sampled_from(["primal", "dual"]))
        return gear_to_digraph(GearSpec(len(lengths), lengths, variant, ends))
    if kind == "fig2":
        return draw(st.sampled_from(fig2_control_pair()))
    # a cycle through every vertex, a chord across it, and more arcs
    n = draw(st.integers(4, 8))
    order = draw(st.permutations(range(n)))
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)} | {(order[0], order[2])}
    pairs = sorted((t, h) for t in range(n) for h in range(n) if t != h and (t, h) not in arcs)
    return Digraph(n, tuple(sorted(arcs)) + tuple(draw(st.lists(st.sampled_from(pairs),
                                                                 unique=True, max_size=6))))


@st.composite
def point_batches(draw):
    """1 to 6 points: random ones with y = 0 or y != 0, and degenerate ones,
    x = gamma = delta = 0 (a zero diagonal at y = 0), alpha = 0, all zero."""
    points = []
    for _ in range(draw(st.integers(1, 6))):
        x, y, al, be, ga, de = draw(st.lists(st.integers(0, PRIME - 1), min_size=6, max_size=6))
        y = draw(st.sampled_from([0, y]))
        # mostly random points, so that many batches share every pivot
        kind = draw(st.sampled_from(["random"] * 3 + ["zero-diagonal", "alpha-zero", "zero"]))
        if kind == "zero-diagonal":
            x = ga = de = 0
        elif kind == "alpha-zero":
            al = 0
        elif kind == "zero":
            x = y = al = be = ga = de = 0
        points.append((x, y, al, be, ga, de))
    return points


@settings(deadline=None, max_examples=80)
@given(zeta_digraphs(), point_batches())
# the first point has y = 0 and the second not: the border serves both
@example(fig2_control_pair()[0], [(1, 0, 2, 3, 4, 5), (1, 7, 2, 3, 4, 5)])
def test_eval_dets_matches_single_points_and_dense_determinants(dg, points):
    p = pencil(dg)
    dets = eval_dets(p, points)
    assert dets == [eval_det(p, pt) for pt in points]
    assert dets == [bareiss_det(dense_pencil(dg, pt)) % PRIME for pt in points]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_zeta_self_equivalence():
    g, _ = fig6_digraph_pair()
    v = zeta_equivalent(g, g, trials=5, seed=1)
    assert v["verdict"] == "equivalent-with-bound"


def test_zeta_fig6_equivalent_with_bound():
    g, gt = fig6_digraph_pair()
    v = zeta_equivalent(g, gt, trials=20, seed=7)
    assert v["verdict"] == "equivalent-with-bound"
    assert v["per_trial_bound"] == 12 / PRIME
    # (12 / PRIME) ** 20 underflows to 0.0; only its log10 is reported
    assert "failure_bound" not in v
    assert v["failure_bound_log10"] == pytest.approx(20 * math.log10(12 / PRIME))
    assert v["seed"] == 7 and v["prime"] == PRIME
    # deterministic for a fixed seed
    assert zeta_equivalent(g, gt, trials=20, seed=7) == v


@pytest.mark.parametrize("trials", [0, -1])
def test_zeta_needs_a_trial(trials):
    g, gt = fig6_digraph_pair()
    with pytest.raises(ZetaError, match="^need at least one trial$"):
        zeta_equivalent(g, gt, trials=trials)


def test_zeta_distinguishes_different_sizes():
    v = zeta_equivalent(Digraph(2, ((0, 1),)), Digraph(3, ((0, 1),)), trials=3, seed=0)
    assert v["verdict"] == "distinguished"


@pytest.mark.parametrize("arcs", [((0, 0), (0, 1)), ((0, 1), (0, 1))], ids=["loop", "parallel"])
def test_zeta_validates_both_digraphs_before_comparing_sizes(arcs):
    bad, small = Digraph(3, arcs), Digraph(2, ((0, 1),))
    for g1, g2 in ((bad, small), (small, bad)):
        with pytest.raises(ZetaError):
            zeta_equivalent(g1, g2, trials=3, seed=1)


def reference_zeta_equivalent(g1, g2, trials, seed):
    """The report of `zeta_equivalent` from one `eval_det` per point and
    digraph, stopping at the first point where the two differ."""
    n = g1.vertex_count
    report = {"n": n, "trials": trials, "prime": PRIME, "seed": seed,
              "per_trial_bound": n / PRIME,
              "failure_bound_log10": trials * (math.log10(n) - math.log10(PRIME))}
    p1, p2 = pencil(g1), pencil(g2)
    rng = random.Random(seed)
    for _ in range(trials):
        pt = random_point(rng)
        if eval_det(p1, pt) != eval_det(p2, pt):
            return {**report, "verdict": "distinguished", "distinguishing_point": list(pt)}
    return {**report, "verdict": "equivalent-with-bound"}


VERDICT_PAIRS = {
    "fig6": (fig6_digraph_pair, "equivalent-with-bound"),
    "dual-gears": (lambda: gear_pair_digraphs(seeded_gear(13)), "equivalent-with-bound"),
    "fig2": (fig2_control_pair, "distinguished"),
    "non-dual-gears": (lambda: (gear_to_digraph(GearSpec(3, (1, 2, 3))),
                                gear_to_digraph(GearSpec(3, (2, 2, 2)))), "distinguished"),
}


@pytest.mark.parametrize("trials", [1, 19, 20, 21, 2 * TRIAL_BLOCK + 1])
@pytest.mark.parametrize("pair", VERDICT_PAIRS)
def test_blocked_verdicts_match_the_point_by_point_loop(monkeypatch, pair, trials):
    # identical reports, and no elimination gets more lanes than a block
    make, verdict = VERDICT_PAIRS[pair]
    g1, g2 = make()
    widths = []

    def spy(rows, p, width):
        widths.append(width)
        return det_mod(rows, p, width)

    for seed in (0, 7, 2024):
        expected = reference_zeta_equivalent(g1, g2, trials, seed)
        assert expected["verdict"] == verdict
        with monkeypatch.context() as patch:
            patch.setattr(zeta, "det_mod", spy)
            assert zeta_equivalent(g1, g2, trials=trials, seed=seed) == expected
    assert max(widths) == min(trials, TRIAL_BLOCK)


def test_zeta_fig2_control():
    a, b = fig2_control_pair((1, 2, 3))
    iso = digraph_isomorphic(a, b)
    verdict = zeta_equivalent(a, b, trials=20, seed=7)
    assert iso is not None or verdict["verdict"] == "distinguished"
    assert verdict["verdict"] == "distinguished"
    assert verdict["distinguishing_point"] is not None


# ---------------------------------------------------------------------------
# symbolic determinants
# ---------------------------------------------------------------------------

def test_char_poly_single_vertex():
    p = pencil(Digraph(1, ()))
    assert char_poly_symbolic(p) == X


def test_char_poly_single_arc_hand_expansion():
    # det [[x+gamma, alpha], [beta, x+delta]] expanded brute force
    p = pencil(single_arc())
    expected = (X + GA) * (X + DE) - AL * BE
    assert char_poly_symbolic(p) == expected


def test_char_poly_homogeneous_and_y_restriction():
    g, _ = fig2_control_pair((1, 1, 2))
    p = pencil(g)
    eta = char_poly_symbolic(p)
    assert is_homogeneous(eta, p.n)
    assert all(e[1] == 0 for e in eta.terms)


def test_char_poly_matches_modular_evaluation():
    g, _ = fig2_control_pair((1, 1, 2))
    p = pencil(g)
    eta = char_poly_symbolic(p)
    rng = random.Random(5)
    for _ in range(6):
        pt = random_point(rng)
        assert eta.evaluate(pt, mod=PRIME) == eval_det(p, pt)


def test_determinant_homogeneity_at_field_points():
    # value(s * point) = s^n * value(point) for y = 0 points
    g, _ = fig6_digraph_pair()
    p = pencil(g)
    rng = random.Random(29)
    for _ in range(5):
        pt = random_point(rng)
        s = rng.randrange(2, PRIME)
        scaled = tuple(s * v % PRIME for v in pt)
        assert eval_det(p, scaled) == pow(s, p.n, PRIME) * eval_det(p, pt) % PRIME


def test_transpose_symmetry():
    # det L_G (x,y,a,b,g,d) = det L_{G reversed} (x,y,b,a,d,g)
    g, _ = fig6_digraph_pair()
    rev = Digraph(g.vertex_count, tuple((h, t) for t, h in g.arcs))
    pg, pr = pencil(g), pencil(rev)
    rng = random.Random(17)
    for _ in range(10):
        x, y, a, b, gm, d = random_point(rng)
        assert eval_det(pg, (x, y, a, b, gm, d)) == eval_det(pr, (x, y, b, a, d, gm))


def test_char_poly_rejects_non_unicyclic_support():
    with pytest.raises(ZetaError, match="not connected"):
        char_poly_symbolic(pencil(Digraph(13, ())))
    # a 3-cycle and a 4-cycle sharing the arc 0 -> 1
    two_cycles = Digraph(5, ((0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 0)))
    with pytest.raises(ZetaError, match="more than one cycle"):
        char_poly_symbolic(pencil(two_cycles))


@st.composite
def unicyclic_digraphs(draw):
    """Connected digraphs on 1 to 9 vertices whose underlying graph is a tree
    or has one cycle: every in-degree 1 off a tree's root (the gear digraphs'
    orientation), every out-degree 1 (its reverse), every edge both ways,
    or each edge one way or both at random."""
    n = draw(st.integers(1, 9))
    m = draw(st.sampled_from([0, *range(3, n + 1)]))
    rng = draw(st.randoms(use_true_random=False))
    # cycle edges run along the cycle, tree edges away from it
    edges = random_unicyclic_edges(rng, n, m)
    kind = draw(st.sampled_from(["in-one", "out-one", "both", "random"]))
    ways = {"in-one": [(1, 0)] * len(edges), "out-one": [(0, 1)] * len(edges),
            "both": [(1, 1)] * len(edges),
            "random": [rng.choice([(1, 0), (0, 1), (1, 1)]) for _ in edges]}[kind]
    arcs = [arc for (u, v), (fwd, back) in zip(edges, ways)
            for arc, keep in (((u, v), fwd), ((v, u), back)) if keep]
    return Digraph(n, tuple(arcs))


@settings(deadline=None, max_examples=80)
@given(unicyclic_digraphs())
def test_char_poly_symbolic_matches_the_unfolded_determinant(dg):
    # the determinant in all five variables, no degree folded into x
    p = pencil(dg)
    assert char_poly_symbolic(p) == unicyclic_det(zeta._pencil_rows(p, *zeta._Y0_VARIABLES))


def test_char_poly_exact_on_26_vertex_gear_pair():
    spec = GearSpec(4, (2, 3, 4, 4), "primal")
    pg, pgt = pencil(gear_to_digraph(spec)), pencil(gear_to_digraph(dual_gear(spec)))
    assert pg.n == pgt.n == 26
    eta = char_poly_symbolic(pg)
    assert eta == char_poly_symbolic(pgt)
    assert eta.coefficient(x=26) == 1
    rng = random.Random(31)
    for _ in range(3):
        pt = random_point(rng)
        assert eta.evaluate(pt, mod=PRIME) == eval_det(pg, pt) == eval_det(pgt, pt)


# ---------------------------------------------------------------------------
# the intertwiner from its derivative rule
# ---------------------------------------------------------------------------

# the paper's 12x12 intertwiner of the fig6 pair: (row, column, coefficient,
# (alpha, beta, gamma) exponents), 1-based dual rows and primal columns
FIG6_T = [
    (1, 1, 1, (3, 0, 0)), (1, 6, 2, (2, 0, 1)), (1, 7, 1, (3, 0, 0)),
    (2, 1, 2, (2, 0, 1)), (2, 2, 1, (3, 0, 0)), (2, 8, 1, (3, 0, 0)),
    (3, 2, 1, (2, 0, 1)), (3, 3, 1, (3, 0, 0)), (3, 8, 1, (2, 0, 1)), (3, 9, 1, (3, 0, 0)),
    (4, 3, 2, (2, 0, 1)), (4, 4, 1, (3, 0, 0)), (4, 10, 1, (3, 0, 0)),
    (5, 4, 1, (2, 0, 1)), (5, 5, 1, (3, 0, 0)), (5, 10, 1, (2, 0, 1)), (5, 11, 1, (3, 0, 0)),
    (6, 5, 1, (2, 0, 1)), (6, 6, 1, (3, 0, 0)), (6, 11, 1, (2, 0, 1)), (6, 12, 1, (3, 0, 0)),
    (7, 1, 1, (2, 1, 0)), (7, 7, -1, (2, 1, 0)),
    (8, 2, 1, (1, 2, 0)), (8, 8, -1, (1, 2, 0)),
    (9, 2, 1, (1, 1, 1)), (9, 3, 1, (2, 1, 0)), (9, 8, -1, (1, 1, 1)), (9, 9, -1, (2, 1, 0)),
    (10, 4, 1, (0, 3, 0)), (10, 10, -1, (0, 3, 0)),
    (11, 4, 1, (0, 2, 1)), (11, 5, 1, (1, 2, 0)), (11, 10, -1, (0, 2, 1)), (11, 11, -1, (1, 2, 0)),
    (12, 5, 1, (1, 1, 1)), (12, 6, 1, (2, 1, 0)), (12, 11, -1, (1, 1, 1)), (12, 12, -1, (2, 1, 0)),
]

# digraph sizes 2 * total of the zeta-digraphs benchmark pairs: 12 to 42 vertices
ZETA_TOTALS = (6, 7, 9, 11, 13, 16, 21)


def seeded_gear(total):
    """A primal gear with 3 to 6 sides and lengths 1..4 that sum to ``total``."""
    rng = random.Random(total)
    n = rng.choice([n for n in range(3, 7) if n <= total <= 4 * n])
    lengths = [1] * n
    for _ in range(total - n):
        lengths[rng.choice([i for i in range(n) if lengths[i] < 4])] += 1
    return GearSpec(n, tuple(lengths))


def gear_pair_digraphs(spec):
    return gear_to_digraph(spec), gear_to_digraph(dual_gear(spec))


def gear_pencils(spec):
    return tuple(map(pencil, gear_pair_digraphs(spec)))


def test_intertwiner_entries():
    expected = [{} for _ in range(12)]
    for i, j, coeff, (a, b, g) in FIG6_T:
        expected[i - 1][j - 1] = SparsePolynomial.monomial(coeff, alpha=a, beta=b, gamma=g)
    assert intertwiner(GearSpec(3, (1, 2, 3))) == expected


@pytest.mark.parametrize("spec", [*map(seeded_gear, ZETA_TOTALS), GearSpec(8, (25,) * 8)],
                         ids=[*map(str, ZETA_TOTALS), "400-vertices"])
def test_intertwiner_on_seeded_pairs(spec):
    # the seeded benchmark pairs and one pair of 400 vertices
    pg, pgt = gear_pencils(spec)
    assert pg.n == 2 * sum(spec.lengths)
    t = intertwiner(spec)
    assert intertwines(pg, pgt, t)
    assert factored_det(spec) == intertwiner_det(spec)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 7, 40, 401])
def test_permutation_sign_equals_inversion_parity(size):
    rng = random.Random(size)
    for _ in range(20):
        perm = rng.sample(range(size), size)
        inversions = sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])
        assert permutation_sign(perm) == (-1) ** inversions
    assert permutation_sign(list(range(size))) == 1


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 4), min_size=3, max_size=6))
def test_intertwiner_property(lengths):
    spec = GearSpec(len(lengths), tuple(lengths))
    t = intertwiner(spec)
    assert intertwines(*gear_pencils(spec), t)
    assert factored_det(spec) == intertwiner_det(spec)


def test_corrupted_intertwiner_fails_the_check():
    spec = seeded_gear(9)
    pg, pgt = gear_pencils(spec)
    # a monomial of the entries' own degree, so homogeneity cannot show it
    extra = SparsePolynomial.monomial(1, alpha=max(spec.lengths))
    for r, col in ((0, 0), (5, 3), (pgt.n - 1, pg.n - 1)):
        t = intertwiner(spec)
        t[r][col] = t[r].get(col, SparsePolynomial.zero()) + extra
        assert not intertwines(pg, pgt, t)


@pytest.mark.parametrize("spec,match", [
    (GearSpec(3, (1, 2, 3), "dual"), "tail"),
    (GearSpec(3, (1, 2, 3), "primal", ("tail", "head", "tail")), "tail"),
    (GearSpec(4, (1, 2, 1, 3), "dual", ("tail", "tail", "tail", "head")), "tail"),
    (GearSpec(3, (1.4, 2, 3)), "integer"),
], ids=["dual", "mixed", "mixed-dual", "non-integral"])
def test_intertwiner_rejects_other_attachments(spec, match):
    # the closed form must not answer for a spec the rule does not cover
    for rule in (intertwiner, factored_det, intertwiner_det):
        with pytest.raises(ZetaError, match=match):
            rule(spec)


@pytest.mark.parametrize("length, ok", [(3.0, True), (2 + 5e-10, True), (2 + 2e-9, False),
                                        (1e-10, False), (0.6, False), (2.5, False)])
def test_one_positive_integer_length_rule(length, ok):
    # is_integral, subdivide, the digraph export and the intertwiner rule agree
    spec = GearSpec(3, (length, 1, 1))
    assert spec.is_integral() == ok
    for build, error in ((lambda s: subdivide(build_gear(s)), GraphError),
                         (digraph_paths, GraphError), (intertwiner_det, ZetaError)):
        if ok:
            build(spec)
        else:
            with pytest.raises(error, match="positive integer"):
                build(spec)


@pytest.mark.parametrize("top", [MAX_SUBDIVISION_VERTICES // 2 - 1, 10 ** 11])
def test_intertwiner_rules_share_the_digraph_size_bound(top):
    # the closed form too, so no exponent of a det T can leave its packed field
    spec = GearSpec(3, (top, 1, 1))
    for rule in (intertwiner, factored_det, intertwiner_det):
        with pytest.raises(GraphError, match="MAX_SUBDIVISION_VERTICES = 4096"):
            rule(spec)


def test_intertwiner_determinant_formula_and_values():
    # ((2 a^3)^6 - (2 a^2 g)^6) a^8 b^10, expanded
    expected = (SparsePolynomial.monomial(64, alpha=26, beta=10)
                - SparsePolynomial.monomial(64, alpha=20, beta=10, gamma=6))
    det_t = intertwiner_det(FIG6)
    assert det_t == expected
    assert factored_det(FIG6) == expected
    assert det_t.evaluate((0, 0, 1, 1, 1, 0)) == 0
    assert det_t.evaluate((0, 0, 1, 1, 2, 0)) == 64 * (1 - 64)


def test_verify_intertwiner_report():
    rep = verify_intertwiner()
    assert rep["ok"]
    assert rep["intertwines_y0"]
    assert rep["det_matches"]
    assert rep["eta_equal"]
    # the all-ones term does not commute with T, and the six-variable
    # determinants differ at a y != 0 point; equality is specific to y = 0
    assert not rep["ones_term_commutes"]
    assert not rep["full_determinants_equal"]
    # the two y = 0 determinants it compared, primal then dual
    g, _ = fig6_digraph_pair()
    assert rep["etas"][0] == rep["etas"][1] == char_poly_symbolic(pencil(g))


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def test_isomorphic_to_itself_with_valid_witness():
    g, _ = fig6_digraph_pair()
    image = digraph_isomorphic(g, g)
    assert image is not None
    mapped = {(image[t], image[h]) for t, h in g.arcs}
    assert mapped == g.arc_set()


def test_non_isomorphic_small_digraphs():
    path = Digraph(3, ((0, 1), (1, 2)))
    fork = Digraph(3, ((0, 1), (0, 2)))
    assert digraph_isomorphic(path, fork) is None
    two_cycle = Digraph(2, ((0, 1), (1, 0)))
    two_arcs = Digraph(4, ((0, 1), (2, 3)))
    assert digraph_isomorphic(two_cycle, two_arcs) is None


def test_relabelled_digraph_is_isomorphic():
    g, _ = fig6_digraph_pair()
    perm = list(range(12))
    random.Random(3).shuffle(perm)
    relabelled = Digraph(12, tuple((perm[t], perm[h]) for t, h in g.arcs))
    image = digraph_isomorphic(g, relabelled)
    assert image is not None
    assert {(image[t], image[h]) for t, h in g.arcs} == relabelled.arc_set()


def test_fig6_pair_not_isomorphic():
    g, gt = fig6_digraph_pair()
    assert digraph_isomorphic(g, gt) is None


def test_isomorphism_rejects_parallel_arcs():
    a = Digraph(3, ((0, 1), (0, 1), (1, 2)))
    b = Digraph(3, ((0, 1), (1, 2), (1, 2)))
    with pytest.raises(ZetaError, match="parallel arcs"):
        digraph_isomorphic(a, b)
    with pytest.raises(ZetaError, match="parallel arcs"):
        digraph_isomorphic(b, b)


def test_isomorphism_size_guard():
    with pytest.raises(ZetaError):
        digraph_isomorphic(Digraph(17, ()), Digraph(17, ()))
