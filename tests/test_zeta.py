"""Pencils, identity testing, the explicit intertwiner, and isomorphism."""

import math
import random

import pytest

from gearlab import (PRIME, GearSpec, char_poly_symbolic, digraph_isomorphic, dual_gear,
                     eval_det, fig2_control_pair, fig6_digraph_pair, gear_to_digraph, pencil,
                     verify_intertwiner, zeta_equivalent)
from gearlab.graphs import Digraph
from gearlab.polynomials import SparsePolynomial, det_symbolic
from gearlab.zeta import (ZetaError, intertwiner_12, intertwiner_det_expected,
                          random_point)

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
    assert p.A == ((0, 1), (0, 0))
    assert p.AT == ((0, 0), (1, 0))
    assert p.D_out == (1, 0)
    assert p.D_in == (0, 1)


def test_pencil_fig6_arc_count():
    g, gt = fig6_digraph_pair()
    for dg in (g, gt):
        p = pencil(dg)
        assert sum(sum(row) for row in p.A) == 12
        assert p.D_out == tuple(sum(row) for row in p.A)


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
    assert v["failure_bound"] <= 20 * 12 / PRIME
    assert v["failure_bound_log10"] == pytest.approx(20 * math.log10(12 / PRIME))
    assert v["seed"] == 7 and v["prime"] == PRIME
    # deterministic for a fixed seed
    assert zeta_equivalent(g, gt, trials=20, seed=7) == v


def test_zeta_distinguishes_different_sizes():
    v = zeta_equivalent(Digraph(2, ((0, 1),)), Digraph(3, ((0, 1),)), trials=3, seed=0)
    assert v["verdict"] == "distinguished"


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
    assert eta.is_homogeneous(p.n)
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
# the explicit 12x12 intertwiner
# ---------------------------------------------------------------------------

def test_intertwiner_entries():
    t = intertwiner_12()
    assert t[0][0] == SparsePolynomial.monomial(1, alpha=3)
    assert t[1][0] == SparsePolynomial.monomial(2, alpha=2, gamma=1)
    assert t[6][0] == SparsePolynomial.monomial(1, alpha=2, beta=1)
    assert t[6][6] == SparsePolynomial.monomial(-1, alpha=2, beta=1)


def test_intertwiner_sign_blocks():
    t = intertwiner_12()
    for i in range(6, 12):
        entries = [p for p in t[i] if p]
        assert len(entries) in (2, 4)
        coeffs = [list(p.terms.values())[0] for p in entries]
        assert sorted(coeffs) == sorted([1] * (len(coeffs) // 2) + [-1] * (len(coeffs) // 2))


def test_intertwiner_column_addition_triangularizes():
    t = intertwiner_12()
    folded = [[t[i][j] + t[i][j + 6] for j in range(6)] for i in range(12)]
    # lower-left block vanishes
    for i in range(6, 12):
        for j in range(6):
            assert not folded[i][j]
    upper_left = [row[:6] for row in folded[:6]]
    lower_right = [[t[i][j] for j in range(6, 12)] for i in range(6, 12)]
    product = det_symbolic(upper_left) * det_symbolic(lower_right)
    assert product == det_symbolic(t)


def test_intertwiner_determinant_formula_and_values():
    det_t = det_symbolic(intertwiner_12())
    assert det_t == intertwiner_det_expected()
    # ((2 a^3)^6 - (2 a^2 g)^6) a^8 b^10 at simple points
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


def test_isomorphism_size_guard():
    with pytest.raises(ZetaError):
        digraph_isomorphic(Digraph(17, ()), Digraph(17, ()))
