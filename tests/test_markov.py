"""Walk matrices, exact characteristic polynomials, and conjugators."""

import dataclasses
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from gearlab.graphs import (POLYGON, TOOTH, CombinatorialGraph, Edge, GearSpec, MetricGraph,
                            bipartition_sign, build_fig3_pair, build_gear, dual_gear, subdivide)
from gearlab import markov
from gearlab.linalg import PRIME, det_mod, unicyclic_dets
from gearlab.markov import (MODES, MarkovError, build_conjugator, characteristic_polynomial_exact,
                            charpoly_test, combinatorial_derivative,
                            combinatorial_transplant, conjugation_residual,
                            conjugator_report, conjugator_sigma_min, crosscheck_quantum,
                            markov_eigenvalues, markov_matrix, markov_spectrum,
                            predicted_wavenumbers, transplantation_matrix)

from test_linalg import bareiss_det, fraction_rank, lane_rows, poly_eval


def walk_pair(lengths, w, mode="rational", attachments=None):
    spec = GearSpec(len(lengths), lengths, "primal", attachments)
    src = markov_matrix(subdivide(build_gear(spec)), w, mode)
    dst = markov_matrix(subdivide(build_gear(dual_gear(spec))), w, mode)
    return src, dst


def reference_weights(cg, w):
    """Per vertex, the weight sums of its edges from the edges and w alone:
    a tooth edge weighs w, every other edge 1."""
    adj = [{} for _ in range(cg.vertex_count)]
    for u, v, cls in cg.edges:
        wgt = Fraction(w) if cls == TOOTH else Fraction(1)
        adj[u][v] = adj[u].get(v, 0) + wgt
        adj[v][u] = adj[v].get(u, 0) + wgt
    return adj


def reference_degrees(cg, w):
    return [sum(row.values()) for row in reference_weights(cg, w)]


def reference_walk(cg, w):
    """The rows of M = D^-1 W as Fractions, from `reference_weights`."""
    return [{u: x / sum(row.values()) for u, x in row.items()}
            for row in reference_weights(cg, w)]


def walk_rows(ms):
    """The rows of M as Fractions, read off a walk's integer weights and degrees."""
    return [{u: Fraction(wgt, d) for u, wgt in row.items()}
            for row, d in zip(ms.adjacency, ms.degrees)]


def dense(rows, n):
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def reference_matrix(ms):
    """The reference walk of a walk's gear and w as a dense float matrix."""
    return np.array(dense(reference_walk(ms.cg, ms.w), ms.size), dtype=float)


@st.composite
def integer_gears(draw):
    n = draw(st.integers(3, 6))
    lengths = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    attachments = draw(st.lists(st.sampled_from(("tail", "head")), min_size=n, max_size=n))
    return tuple(lengths), tuple(attachments)


# ---------------------------------------------------------------------------
# the walk matrix itself
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(integer_gears(), st.sampled_from([Fraction(2, 5), Fraction(1, 2), Fraction(3, 2),
                                         Fraction(2), Fraction(1e-300), Fraction(1e308)]))
def test_walk_is_integer_weights_over_integer_degrees(gear, w):
    """Every weight and degree is an int, and adjacency[v][u] / degrees[v]
    is the reference walk built from the edges and w alone."""
    lengths, attachments = gear
    cg = subdivide(build_gear(GearSpec(len(lengths), lengths, "primal", attachments)))
    ms = markov_matrix(cg, w)
    assert all(type(x) is int for x in ms.degrees)
    assert all(type(x) is int for row in ms.adjacency for x in row.values())
    assert walk_rows(ms) == reference_walk(cg, w)


def test_unit_gear_rows():
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 1, 1)))), 1)
    third = Fraction(1, 3)
    for v, row in enumerate(walk_rows(ms)):
        if v >= 3:   # leaves
            assert list(row.values()) == [Fraction(1)]
        else:        # degree-3 polygon vertices
            assert sorted(row.values()) == [third, third, third]


def test_weighted_degree_three_row():
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 1, 1)))), 2)
    row = walk_rows(ms)[0]  # polygon vertex: two polygon neighbors + one tooth
    assert sorted(row.values()) == [Fraction(1, 4), Fraction(1, 4), Fraction(2, 4)]


def test_rows_sum_to_one_exactly():
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 2, 3)))), Fraction(3, 2))
    assert ms.size == 12
    for row in walk_rows(ms):
        assert sum(row.values()) == 1


def test_detailed_balance_exact():
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 2, 3)))), Fraction(3, 2))
    rows = walk_rows(ms)
    for u in range(ms.size):
        for v, p in rows[u].items():
            assert ms.degrees[u] * p == ms.degrees[v] * rows[v][u]


def test_markov_rejects_bad_weight():
    cg = subdivide(build_gear(GearSpec(3, (1, 1, 1))))
    with pytest.raises(MarkovError):
        markov_matrix(cg, 0)
    with pytest.raises(MarkovError):
        markov_matrix(cg, 1, mode="symbolic")


def test_markov_rejects_an_isolated_vertex():
    cg = CombinatorialGraph(3, ((0, 1, POLYGON),), {})
    with pytest.raises(MarkovError, match="^isolated vertex$"):
        markov_matrix(cg, 1)


# as a float, also in rational mode: 10**400 and 10**-400 leave the float range;
# "1/0" and None are no numbers at all
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan, 0, -1.5, Fraction(-3, 2),
                               Fraction(10 ** 400), Fraction(1, 10 ** 400), "1/0", None])
def test_markov_weight_must_be_positive_and_finite(mode, w):
    cg = subdivide(build_gear(GearSpec(3, (1, 2, 3))))
    with pytest.raises(MarkovError, match="^tooth weight w must be positive and finite$"):
        markov_matrix(cg, w, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("w", [Fraction(1, 10 ** 323), Fraction(1, 10 ** 300), Fraction(1000),
                               Fraction(10 ** 300), Fraction(17976931348623157, 10 ** 16) * 10 ** 308],
                         ids=["1e-323", "1e-300", "1000", "1e300", "1.797e308"])
def test_walk_spectrum_at_the_ends_of_the_float_range(mode, w):
    """For every weight that `markov_matrix` accepts, the walk spectrum
    lies in [-1, 1] with the Perron root 1, and where the degrees fit a
    float its vectors are D-orthonormal eigenvectors of M."""
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 2, 3)))), w, mode)
    vals, vecs = markov_spectrum(ms)
    assert np.abs(vals - markov_eigenvalues(ms)).max() <= 1e-14
    assert -1 - 1e-14 <= vals[0] and abs(vals[-1] - 1) <= 1e-14
    degrees = reference_degrees(ms.cg, w)
    if max(degrees) < 1e308:                # the degrees 2w at 1.797e308 overflow
        d = np.array([float(x) for x in degrees])
        gram = vecs.T @ (d[:, None] * vecs)
        assert np.abs(gram - np.eye(ms.size)).max() <= 1e-12
        resid = reference_matrix(ms) @ vecs - vecs * vals
        assert np.abs(resid).max() <= 1e-12 * np.abs(vecs).max()


# ---------------------------------------------------------------------------
# spectrum and characteristic polynomial
# ---------------------------------------------------------------------------

def test_spectrum_endpoints():
    vals, _ = markov_spectrum(markov_matrix(subdivide(build_gear(GearSpec(3, (1, 1, 1)))), 1))
    assert abs(vals[-1] - 1.0) < 1e-12          # Perron root, simple
    assert abs(vals[-2] - 1.0) > 1e-6
    assert vals[0] > -1 + 1e-6                   # odd cycle: no -1
    vals, _ = markov_spectrum(markov_matrix(subdivide(build_gear(GearSpec(3, (1, 2, 3)))), 1))
    assert abs(vals[-1] - 1.0) < 1e-12
    assert abs(vals[0] + 1.0) < 1e-12            # bipartite: -1 present
    assert abs(vals[1] + 1.0) > 1e-6             # and simple


def test_spectrum_matches_exact_charpoly_roots():
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 2, 3)))), 1)
    vals, _ = markov_spectrum(ms)
    coeffs = characteristic_polynomial_exact(ms)
    assert len(coeffs) == 13 and coeffs[-1] == 1
    roots = np.sort(np.roots([float(c) for c in reversed(coeffs)]).real)
    assert np.abs(roots - vals).max() < 1e-7
    # every computed eigenvalue is a root of the exact polynomial
    for v in vals:
        assert abs(poly_eval([float(c) for c in coeffs], v)) < 1e-10


def test_charpoly_perron_factor_simple():
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 1, 1)))), 1)
    coeffs = characteristic_polynomial_exact(ms)
    assert poly_eval(coeffs, Fraction(1)) == 0
    # synthetic division by (x - 1); the quotient must not vanish at 1
    quot = list(coeffs[1:])
    acc = Fraction(0)
    for i in range(len(quot) - 1, -1, -1):
        acc = acc + quot[i]
        quot[i] = acc
    assert coeffs[0] + acc == 0          # remainder of the division
    assert poly_eval(quot, Fraction(1)) != 0


def test_dual_pair_charpolys_identical():
    src, dst = walk_pair((1, 2, 3), Fraction(3, 2))
    assert characteristic_polynomial_exact(src) == characteristic_polynomial_exact(dst)
    src, dst = walk_pair((2, 2, 3), Fraction(3, 2))
    assert characteristic_polynomial_exact(src) == characteristic_polynomial_exact(dst)


def test_exact_charpoly_rejects_a_walk_with_two_cycles():
    # the pencil expansion takes unicyclic supports only; a subdivided K4
    # has m - n = 2
    k4 = MetricGraph(4, tuple(Edge(i, u, v, 2.0) for i, (u, v) in
                              enumerate(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))))
    ms = markov_matrix(subdivide(k4), Fraction(3, 2))
    with pytest.raises(MarkovError, match="^walk pencil: support has more than one cycle$"):
        characteristic_polynomial_exact(ms)


NEAR_MISSES = ("dual", "dual at w + 1/1000", "one tooth unflipped", "lengths 0 and 1 swapped")


def near_miss(lengths, attachments, w, case):
    """The walk of a gear and that of its dual, or of one of three near misses."""
    src = markov_matrix(subdivide(build_gear(GearSpec(len(lengths), lengths, "primal",
                                                      attachments))), w)
    flipped = list(dual_gear(GearSpec(len(lengths), lengths, "primal", attachments)).attachments)
    if case == "one tooth unflipped":
        flipped[0] = attachments[0]
    elif case == "lengths 0 and 1 swapped":
        lengths = (lengths[1], lengths[0], *lengths[2:])
    if case == "dual at w + 1/1000":
        w += Fraction(1, 1000)
    dst = markov_matrix(subdivide(build_gear(GearSpec(len(lengths), lengths, "primal",
                                                      tuple(flipped)))), w)
    return src, dst


@settings(deadline=None, max_examples=60)
@given(st.integers(3, 8).flatmap(lambda n: st.tuples(
           st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple),
           st.lists(st.sampled_from(("tail", "head")), min_size=n, max_size=n).map(tuple))),
       st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50)
       .filter(lambda w: w > 0),
       st.sampled_from(NEAR_MISSES))
def test_charpoly_test_verdict_equals_the_exact_polynomials(gear, w, case):
    """The identity test's verdict is the exact polynomials' verdict, on dual
    pairs and near misses; a swap of two lengths can be isometric, so
    every verdict is compared with the exact one."""
    src, dst = near_miss(*gear, w, case)
    exact = characteristic_polynomial_exact(src) == characteristic_polynomial_exact(dst)
    report = charpoly_test(src, dst)
    assert (report["verdict"] == "equivalent-with-bound") == exact
    assert exact or case != "dual"
    if case == "dual":
        lengths, attachments = gear
        assert conjugator_report(GearSpec(len(lengths), lengths, "primal", attachments),
                                 w)["ok"] is True
    assert report["n"] == src.size and report["trials"] == 2 and report["seed"] == 0


def test_charpoly_test_distinguishes_near_misses_at_its_first_point():
    first = [random.Random(0).randrange(PRIME)]
    for case in NEAR_MISSES[1:3]:
        report = charpoly_test(*near_miss((1, 2, 3), ("tail", "head", "tail"), Fraction(3, 2),
                                          case))
        assert report["verdict"] == "distinguished"
        assert report["distinguishing_point"] == first


def test_charpoly_test_analyses_each_walk_once_for_both_points(monkeypatch):
    """One `unicyclic_dets` call per walk, on its adjacency W, with the
    diagonals W_vv - x D_v at both drawn x."""
    rng = random.Random(0)
    drawn = [rng.randrange(PRIME) for _ in range(2)]
    calls = []

    def dets(rows, diagonals):
        calls.append(diagonals)
        return unicyclic_dets(rows, diagonals)

    monkeypatch.setattr(markov, "unicyclic_dets", dets)
    spec = GearSpec(3, (1, 2, 3))
    rep = conjugator_report(spec, Fraction(3, 2))
    assert rep["charpoly_test"] == charpoly_test(*walk_pair((1, 2, 3), Fraction(3, 2)))
    assert len(calls) == 4                  # 2 in the report, 2 in the line above
    for diagonals, ms in zip(calls[:2], walk_pair((1, 2, 3), Fraction(3, 2))):
        assert diagonals == [[ms.adjacency[v].get(v, 0) - x * d for v, d in enumerate(ms.degrees)]
                             for x in drawn]


def test_rational_report_expands_no_characteristic_polynomial(monkeypatch):
    def expand(ms):
        raise AssertionError("characteristic_polynomial_exact called")

    monkeypatch.setattr(markov, "characteristic_polynomial_exact", expand)
    rep = conjugator_report(GearSpec(3, (1, 2, 3)), Fraction(3, 2), "rational")
    assert rep["charpoly_equal"] is True
    assert rep["charpoly_test"]["verdict"] == "equivalent-with-bound"


@pytest.mark.parametrize("w", [1e-300, 1e300])
def test_charpoly_equal_at_the_ends_of_the_float_range(w):
    rep = conjugator_report(GearSpec(3, (1, 2, 3)), w)
    assert rep["charpoly_equal"] is True


def test_float_weight_is_read_exactly():
    """A float w is its exact binary fraction: 1e-13 builds a walk, where
    rounding to a denominator of at most 10^12 would give w = 0."""
    spec = GearSpec(3, (1, 2, 3))
    ms = markov_matrix(subdivide(build_gear(spec)), 1e-13)
    assert ms.w == Fraction(1e-13) > 0
    rep = conjugator_report(spec, 1e-13)
    assert rep["conj_residual"] == 0.0 and rep["charpoly_equal"] is True and rep["ok"] is True
    assert rep["w"] == str(Fraction(1e-13))
    assert conjugator_report(spec, 0.1)["w"] == "3602879701896397/36028797018963968"
    assert crosscheck_quantum(spec, 1e-13, 4.0)["agree"]


# ---------------------------------------------------------------------------
# combinatorial derivatives and transplantation
# ---------------------------------------------------------------------------

def test_derivative_of_constant_vanishes():
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 2, 3)))), Fraction(1, 2))
    one = [Fraction(1)] * ms.size
    for u in range(ms.size):
        for v in ms.adjacency[u]:
            assert combinatorial_derivative(ms, one, u, v) == 0


def test_derivative_needs_adjacent_vertices():
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 2, 3)))), Fraction(1, 2))
    one = [Fraction(1)] * ms.size
    v = next(u for u in range(1, ms.size) if u not in ms.adjacency[0])
    with pytest.raises(MarkovError, match=f"^vertices 0 and {v} are not adjacent$"):
        combinatorial_derivative(ms, one, 0, v)


def test_leaf_derivative_vanishes_for_every_function():
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 2, 3)))), Fraction(3, 2))
    rng = random.Random(1)
    f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ms.size)]
    for v in range(ms.size):
        if len(ms.adjacency[v]) == 1:
            (nbr,) = ms.adjacency[v].keys()
            assert combinatorial_derivative(ms, f, v, nbr) == 0


def test_degree_two_one_sided_derivatives_agree():
    ms = markov_matrix(subdivide(build_gear(GearSpec(3, (1, 2, 3)))), Fraction(3, 2))
    rng = random.Random(2)
    f = [Fraction(rng.randint(-9, 9)) for _ in range(ms.size)]
    mf = [sum(p * f[u] for u, p in row.items()) for row in reference_walk(ms.cg, ms.w)]
    for v in range(ms.size):
        nbrs = list(ms.adjacency[v])
        if len(nbrs) == 2:
            vp, vpp = nbrs
            incoming = mf[v] - f[vp]
            outgoing = -mf[v] + f[vpp]
            assert incoming == outgoing


def test_weighted_outward_derivative_sum_vanishes():
    ms = markov_matrix(subdivide(build_gear(GearSpec(4, (1, 2, 1, 3)))), Fraction(5, 3))
    rng = random.Random(3)
    f = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(ms.size)]
    for v in range(ms.size):
        total = Fraction(0)
        for u, wgt in ms.adjacency[v].items():
            total += wgt * combinatorial_derivative(ms, f, v, u)
        assert total == 0


def test_transplant_kernel_constants_and_signs():
    src, dst = walk_pair((1, 2, 3), Fraction(3, 2))
    one = [Fraction(1)] * src.size
    img = combinatorial_transplant(src, dst, one)
    assert all(x == 0 for x in img)
    s = bipartition_sign(src.cg)
    img = combinatorial_transplant(src, dst, [Fraction(x) for x in s])
    assert all(x == 0 for x in img)


def test_transplant_maps_eigenvectors():
    src, dst = walk_pair((1, 2, 3), Fraction(1))
    vals, vecs = markov_spectrum(src)
    md = reference_matrix(dst)
    for i, mu in enumerate(vals):
        if abs(abs(mu) - 1.0) < 1e-9:
            continue
        img = combinatorial_transplant(src, dst, list(vecs[:, i]))
        img = np.array(img)
        assert np.abs(md @ img - mu * img).max() <= 1e-10 * np.linalg.norm(img)


def test_transplant_onto_non_dual_raises():
    src, _ = walk_pair((1, 2, 3), Fraction(3, 2))
    rng = random.Random(5)
    f = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(src.size)]
    with pytest.raises(MarkovError, match="^transplantation is inconsistent at shared vertex"):
        combinatorial_transplant(src, src, f)


def per_vector_transplant(src, dst, f):
    """Reference T f: one-sided derivatives of f along each source path
    (forward on every slot but the last, which looks back), combined into
    side + w tooth and side - tooth on the dual paths."""
    n = len(src.cg.paths) // 2
    mf = [sum(p * f[u] for u, p in row.items()) for row in reference_walk(src.cg, src.w)]

    def derivatives(path):
        last = len(path) - 1
        return [-mf[v] + f[path[j + 1]] if j < last else mf[v] - f[path[j - 1]]
                for j, v in enumerate(path)]

    out = [None] * dst.size
    for i in range(n):
        side, tooth = derivatives(src.cg.paths[i]), derivatives(src.cg.paths[n + i])
        for path, vals in ((dst.cg.paths[i], [a + src.w * b for a, b in zip(side, tooth)]),
                           (dst.cg.paths[n + i], [a - b for a, b in zip(side, tooth)])):
            for vertex, val in zip(path, vals):
                assert out[vertex] is None or out[vertex] == val
                out[vertex] = val
    return out


@pytest.mark.parametrize("attachments", [None, ("head",) * 4, ("tail", "head", "head", "tail")],
                         ids=["primal", "dual", "mixed"])
@pytest.mark.parametrize("w", [Fraction(1, 2), Fraction(3, 2)], ids=str)
def test_transplantation_rows_match_the_per_vector_rule(attachments, w):
    lengths = (2, 1, 3, 2)
    src, dst = walk_pair(lengths, w, attachments=attachments)
    rows, _ = transplantation_matrix(src, dst)
    assert len(rows) == dst.size
    assert all(0 not in row.values() for row in rows)
    rng = random.Random(f"{attachments}{w}")
    for _ in range(4):
        f = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(src.size)]
        assert combinatorial_transplant(src, dst, f) == per_vector_transplant(src, dst, f)


@pytest.mark.parametrize("mode, w", [("rational", Fraction(3, 2)), ("float", 1.5)])
def test_transplantation_rows_drop_exact_zeros(mode, w):
    # 6 of the 39 entries of p' + w t' and p' - t' cancel on (1, 2, 3)
    src, dst = walk_pair((1, 2, 3), w, mode)
    rows, _ = transplantation_matrix(src, dst)
    assert all(0 not in row.values() for row in rows)
    assert sum(map(len, rows)) == 33


def test_transplantation_matrix_rank():
    src, dst = walk_pair((1, 2, 3), Fraction(3, 2))   # bipartite: rank N - 2
    t, _ = transplantation_matrix(src, dst)
    assert fraction_rank(dense(t, src.size)) == src.size - 2
    src, dst = walk_pair((1, 1, 1), Fraction(3, 2))   # odd cycle: rank N - 1
    t, _ = transplantation_matrix(src, dst)
    assert fraction_rank(dense(t, src.size)) == src.size - 1


def test_transplantation_matrix_needs_gears_of_one_size_and_weight():
    src, _ = walk_pair((1, 2, 3), Fraction(3, 2))
    _, bigger = walk_pair((1, 2, 3, 1), Fraction(3, 2))
    _, heavier = walk_pair((1, 2, 3), Fraction(2))
    with pytest.raises(MarkovError, match="^source and target gears differ in size$"):
        transplantation_matrix(src, bigger)
    with pytest.raises(MarkovError, match="^source and target weights differ$"):
        transplantation_matrix(src, heavier)


def test_transplantation_matrix_needs_gear_paths():
    # fig3's left graph has 15 edges: no sides 0..n-1 and teeth n..2n-1
    left, right = (markov_matrix(subdivide(g), 1) for g in build_fig3_pair("a", (1, 2, 3)))
    assert len(left.cg.paths) == 15
    with pytest.raises(MarkovError, match="^expected gear paths"):
        transplantation_matrix(left, right)


# ---------------------------------------------------------------------------
# conjugator
# ---------------------------------------------------------------------------

def test_rank_one_corrections():
    src, dst = walk_pair((1, 2, 3), Fraction(1, 2))
    conj = build_conjugator(src, dst)
    d, v = ([Fraction(x, conj.denominator) for x in part] for part in (conj.d, conj.v))
    st_ = conj.st
    n = src.size
    assert list(d) == reference_degrees(src.cg, src.w) and len(v) == len(st_) == n
    # J+ = 1 d^T maps 1 to the nonzero constant sum(d)
    assert sum(d) != 0
    # and annihilates vectors with zero d-mean
    f = [Fraction(0)] * n
    f[0] = Fraction(1, d[0])
    f[1] = Fraction(-1, d[1])
    assert sum(dj * fj for dj, fj in zip(d, f)) == 0
    # J- = st v^T maps the source sign vector to the target one: v^T s = 1
    s = bipartition_sign(src.cg)
    assert st_ == tuple(bipartition_sign(dst.cg))
    assert sum(vj * sj for vj, sj in zip(v, s)) == 1
    # and kills the constants: v^T 1 = 0
    assert sum(v) == 0
    # odd cycle: no -1 eigenspace, so v = 0 and st = 1
    src, dst = walk_pair((1, 1, 1), Fraction(1, 2))
    conj = build_conjugator(src, dst)
    assert conj.v == (0,) * src.size and conj.st == (1,) * src.size


def test_conjugator_needs_both_gears_bipartite_or_neither():
    # the (1, 1, 1) subdivision has an odd cycle, the (1, 1, 2) one an even
    # cycle, and T between them is consistent
    src, _ = walk_pair((1, 1, 1), 1)
    _, even = walk_pair((1, 1, 2), 1)
    assert bipartition_sign(src.cg) is None and bipartition_sign(even.cg) is not None
    with pytest.raises(MarkovError, match="^dual pair disagrees on bipartiteness$"):
        build_conjugator(src, even)


def test_conjugator_intertwines_exactly():
    for lengths, w in (((1, 2, 3), Fraction(1)), ((2, 2, 3), Fraction(3, 2))):
        src, dst = walk_pair(lengths, w)
        conj = build_conjugator(src, dst)
        assert conjugation_residual(src, dst, conj) == 0
        assert conjugator_sigma_min(conj) > 1e-8
    # the construction fixes the rule for every n, n = 13 included
    src, dst = walk_pair((1,) * 12 + (2,), Fraction(3, 2),
                         attachments=("tail", "head") * 6 + ("tail",))
    conj = build_conjugator(src, dst)
    assert conjugation_residual(src, dst, conj) == 0


def test_conjugator_float_mode():
    # float mode builds the same exact walk: a float w is read exactly
    src, dst = walk_pair((1, 2, 3), 1.0, mode="float")
    assert (src.w, dst.w) == (1, 1)
    conj = build_conjugator(src, dst)
    assert conjugation_residual(src, dst, conj) == 0
    assert conjugator_sigma_min(conj) > 1e-8


def test_conjugator_report_fields():
    """The third argument selects nothing: "float" gives the rational report."""
    spec = GearSpec(3, (1, 2, 3))
    rep = conjugator_report(spec, Fraction(3, 2), "rational")
    assert rep["conj_residual"] == 0.0
    assert rep["charpoly_equal"] is True
    assert rep["charpoly_test"] == charpoly_test(*walk_pair((1, 2, 3), Fraction(3, 2)))
    assert rep["sigma_min_C"] > 1e-8
    assert rep["ok"] is True and rep["w"] == "3/2" and "mode" not in rep
    assert conjugator_report(spec, 1.5, "float") == rep
    with pytest.raises(MarkovError):
        conjugator_report(spec, Fraction(3, 2), "symbolic")


def over_one_denominator(mat):
    """(A, d) with mat = A / d: A an int matrix, d the lcm of the entries' denominators."""
    d = math.lcm(*(x.denominator for row in mat for x in row))
    return [[int(x * d) for x in row] for row in mat], d


def int_product(a, b):
    """The dense product of two int matrices."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def dense_residual(src, dst, c):
    """Max-abs entry of M~ C - C M from dense products (reference): with
    M = m / dm, M~ = mt / dmt and C = cn / dc over ints, it is
    max |dm mt cn - dmt cn m| / (dm dmt dc)."""
    n = src.size
    m, dm = over_one_denominator(dense(reference_walk(src.cg, src.w), n))
    mt, dmt = over_one_denominator(dense(reference_walk(dst.cg, dst.w), n))
    cn, dc = over_one_denominator(c)
    worst = max(abs(dm * x - dmt * y)
                for left, right in zip(int_product(mt, cn), int_product(cn, m))
                for x, y in zip(left, right))
    return Fraction(worst, dm * dmt * dc)


def reference_transplantation(src, dst):
    """T as Fraction rows, column k the per-vector rule on the unit vector e_k."""
    n = src.size
    rows = [{} for _ in range(dst.size)]
    for k in range(n):
        e = [Fraction(int(j == k)) for j in range(n)]
        for row, x in zip(rows, per_vector_transplant(src, dst, e)):
            if x:
                row[k] = x
    return rows


def dense_conjugator(src, dst):
    """C = T + J+ + J- entry by entry over dense n x n rows (reference)."""
    n = src.size
    t = reference_transplantation(src, dst)
    d = reference_degrees(src.cg, src.w)
    zero = Fraction(0)
    jp = [[d[j] for j in range(n)] for _ in range(n)]
    s = bipartition_sign(src.cg)
    st_ = bipartition_sign(dst.cg)
    if s is not None:
        total = sum(d)
        jm = [[st_[i] * s[j] * d[j] / total for j in range(n)] for i in range(n)]
    else:
        jm = [[zero] * n for _ in range(n)]
    return [[t[i].get(j, zero) + jp[i][j] + jm[i][j] for j in range(n)] for i in range(n)]


def assembled(conj):
    """The dense C = (T + 1 d^T + st v^T) / L of a conjugator's int parts."""
    n = len(conj.d)
    return [[Fraction((row.get(j, 0) + conj.d[j]) + s * conj.v[j], conj.denominator)
             for j in range(n)] for row, s in zip(conj.T, conj.st)]


def dense_sigma_min(c):
    return np.linalg.svd(np.array([[float(x) for x in row] for row in c]), compute_uv=False)[-1]


def rescaled(conj, k):
    """The same C over k L: every int part and L times k."""
    return dataclasses.replace(
        conj, T=tuple({j: k * x for j, x in row.items()} for row in conj.T),
        d=tuple(k * x for x in conj.d), v=tuple(k * x for x in conj.v),
        denominator=k * conj.denominator)


def perturbed(conj, *changes):
    """conj with T[i][j] += delta per change, on T's support or off it,
    over an L that every delta's denominator divides."""
    conj = rescaled(conj, math.lcm(*(Fraction(delta).denominator for *_, delta in changes)))
    rows = [dict(row) for row in conj.T]
    for i, j, delta in changes:
        rows[i][j] = rows[i].get(j, 0) + int(delta * conj.denominator)
    return dataclasses.replace(conj, T=tuple(rows))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_residual_detects_perturbed_conjugator(mode):
    # both modes build the exact walk; float mode from the float w, with
    # the perturbation the exact binary fraction of 1e-3
    w = Fraction(3, 2) if mode == "rational" else 1.5
    delta = Fraction(1, 7) if mode == "rational" else Fraction(1e-3)
    src, dst = walk_pair((1, 2, 3), w, mode=mode)
    conj = build_conjugator(src, dst)
    entries = ((0, 0), (3, 7), (src.size - 1, 1))
    assert any(j not in conj.T[i] for i, j in entries)
    for i, j in entries:
        bad = perturbed(conj, (i, j, delta))
        got = conjugation_residual(src, dst, bad)
        ref = dense_residual(src, dst, assembled(bad))
        assert got > 1e-6 and got == ref


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("lengths, field", [((1, 2, 3), "d"), ((1, 2, 3), "v"), ((1, 2, 3), "st"),
                                            ((1, 1, 1), "d"), ((1, 1, 1), "v")],
                         ids=["d", "v", "st", "odd-d", "odd-v"])
def test_wrong_rank_one_part_raises(mode, lengths, field):
    """A wrong entry of d, v or st fails one of the identities that cancel
    the rank-one terms, while the dense residual shows that C is wrong;
    exactly in both modes."""
    src, dst = walk_pair(lengths, Fraction(3, 2) if mode == "rational" else 1.5, mode)
    delta = Fraction(1, 7) if mode == "rational" else Fraction(1e-3)
    conj = rescaled(build_conjugator(src, dst), delta.denominator)   # delta an int over L
    values = list(getattr(conj, field))
    if field == "st":
        values[2] = -values[2]
    else:
        values[5] += int(delta * conj.denominator)
    bad = dataclasses.replace(conj, **{field: tuple(values)})
    assert dense_residual(src, dst, assembled(bad)) > 1e-6
    with pytest.raises(MarkovError, match="conjugator: .* fails"):
        conjugation_residual(src, dst, bad)


def test_residual_checks_the_target_walk():
    """A target walk whose row does not sum to one fails M~ 1 = 1 (odd cycle: v = 0)."""
    src, dst = walk_pair((1, 1, 1), Fraction(3, 2))
    conj = build_conjugator(src, dst)
    degrees = list(dst.degrees)
    degrees[4] += 1
    bad = dataclasses.replace(dst, degrees=tuple(degrees))
    with pytest.raises(MarkovError, match=r"^conjugator: M~ 1 = 1, M~ st = -st fails$"):
        conjugation_residual(src, bad, conj)


@settings(deadline=None, max_examples=40)
@given(integer_gears(), st.sampled_from([Fraction(2, 5), Fraction(1, 2), Fraction(1),
                                         Fraction(3, 2), Fraction(2)]),
       st.sampled_from(MODES), st.data())
def test_conjugator_matches_dense_construction(gear, w, mode, data):
    lengths, attachments = gear
    src, dst = walk_pair(lengths, w if mode == "rational" else float(w), mode, attachments)
    conj = build_conjugator(src, dst)
    rows, den = transplantation_matrix(src, dst)
    k = conj.denominator // den
    assert k * den == conj.denominator
    assert conj.T == tuple({j: k * x for j, x in row.items()} for row in rows)
    assert max(map(len, conj.T)) <= 4
    ref = dense_conjugator(src, dst)
    c = assembled(conj)
    assert c == ref
    for row, ref_row in zip(c, ref):
        assert list(map(type, row)) == list(map(type, ref_row))
    # the entries of C rounded once each, as from the dense reference
    assert conjugator_sigma_min(conj) == dense_sigma_min(ref)
    assert conjugation_residual(src, dst, conj) == 0 == dense_residual(src, dst, c)
    n = src.size
    changes = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.builds(Fraction, st.integers(1, 50) | st.integers(-50, -1),
                            st.integers(1, 60))),
        min_size=1, max_size=3))
    bad = perturbed(conj, *changes)
    assert conjugation_residual(src, dst, bad) == dense_residual(src, dst, assembled(bad))


@settings(deadline=None, max_examples=40)
@given(integer_gears(), st.sampled_from([Fraction(2, 5), Fraction(1, 2), Fraction(3, 2),
                                         Fraction(2), Fraction(1e-300), Fraction(1e308)]))
def test_int_conjugator_equals_the_fraction_reference(gear, w):
    """T, d and v are ints over one L, and over L they are the reference T
    of the walk's edges and w, the reference degrees and s d / sum(d)."""
    lengths, attachments = gear
    src, dst = walk_pair(lengths, w, attachments=attachments)
    conj = build_conjugator(src, dst)
    big_l = conj.denominator
    parts = (*conj.d, *conj.v, *(x for row in conj.T for x in row.values()))
    assert type(big_l) is int and all(type(x) is int for x in parts)
    assert [{j: Fraction(x, big_l) for j, x in row.items()} for row in conj.T] == \
        reference_transplantation(src, dst)
    d = reference_degrees(src.cg, w)
    assert [Fraction(x, big_l) for x in conj.d] == d
    s, st_ = bipartition_sign(src.cg), bipartition_sign(dst.cg)
    v = [0] * src.size if s is None else [sj * dj / sum(d) for sj, dj in zip(s, d)]
    assert [Fraction(x, big_l) for x in conj.v] == v
    assert conj.st == tuple(st_ or (1,) * src.size)


def test_int_conjugator_at_420_vertices():
    src, dst = walk_pair(tuple(range(1, 21)), Fraction(3, 2))
    assert src.size == 420
    conj = build_conjugator(src, dst)
    assert all(type(x) is int for row in conj.T for x in row.values())
    assert conjugation_residual(src, dst, conj) == 0


def test_conjugator_on_mixed_attachments():
    src, dst = walk_pair((1, 2, 3), Fraction(3, 2), attachments=("tail", "head", "tail"))
    conj = build_conjugator(src, dst)
    assert conjugation_residual(src, dst, conj) == 0
    assert conjugator_sigma_min(conj) > 1e-8


# ---------------------------------------------------------------------------
# quantum <-> walk crosscheck
# ---------------------------------------------------------------------------

def test_crosscheck_unit_gears():
    rep = crosscheck_quantum(GearSpec(3, (1, 1, 1)), 1, 2 * math.pi)
    assert rep["agree"] and rep["max_gap"] < 1e-8
    rep = crosscheck_quantum(GearSpec(3, (1, 2, 3)), 1, 2 * math.pi)
    assert rep["agree"] and rep["max_gap"] < 1e-8
    # lambda = pi^2 is present with multiplicity 2
    at_pi = [p for p in rep["pairs"]
             if p["scanned"] and abs(p["scanned"][0] - math.pi) < 1e-9]
    assert len(at_pi) == 1 and at_pi[0]["scanned"][1] == 2


def test_crosscheck_perron_maps_to_zero():
    # mu = 1 corresponds to lam = 0: neither side lists it among positives
    rep = crosscheck_quantum(GearSpec(3, (1, 1, 1)), 1, 2 * math.pi)
    assert all(p["predicted"][0] > 1e-6 for p in rep["pairs"] if p["predicted"])


def test_crosscheck_requires_integer_lengths():
    with pytest.raises(MarkovError):
        crosscheck_quantum(GearSpec(3, (1.0, 1.5, 1.0)), 1, math.pi)


def test_crosscheck_gap_shrinks_with_refinement(monkeypatch):
    from gearlab import spectral
    spec = GearSpec(3, (1, 1, 1), "primal")
    fine = crosscheck_quantum(spec, 1, math.pi)
    for name, value in (("REFINE_TOL", 1e-5), ("RANK_TOL", 1e-3), ("MULT_TOL", 1e-2)):
        monkeypatch.setattr(spectral, name, value)
    spectral._memo_entry.cache_clear()
    coarse = crosscheck_quantum(spec, 1, math.pi)
    assert coarse["scanned_count"] == fine["scanned_count"]
    assert fine["max_gap"] < coarse["max_gap"]
    assert fine["max_gap"] < 1e-8


K4_EDGES = [(0, 1, 1, POLYGON), (0, 2, 2, TOOTH), (0, 3, 1, POLYGON), (1, 2, 1, TOOTH),
            (1, 3, 3, POLYGON), (2, 3, 1, TOOTH)]


def metric_graph(edges):
    """A MetricGraph from (tail, head, length, class) tuples, weight 1."""
    vertex_count = 1 + max(max(u, v) for u, v, _, _ in edges)
    return MetricGraph(vertex_count, tuple(Edge(i, u, v, length, cls=cls)
                                           for i, (u, v, length, cls) in enumerate(edges)))


def test_predicted_wavenumbers_match_the_scan_on_k4():
    """At k = j pi the rule (m - n) + 2 mult_walk((-1)^j) holds where m != n:
    a K4 with lengths (1, 2, 1, 1, 3, 1) has m - n = 2 and no bipartition."""
    from gearlab.spectral import ScanParams, VertexConditions, scan_spectrum
    g = metric_graph(K4_EDGES)
    ms = markov_matrix(subdivide(g), Fraction(3, 2))
    assert len(ms.cg.edges) - ms.size == 2 and bipartition_sign(ms.cg) is None
    limit = 7 - 1e-6
    predicted = predicted_wavenumbers(ms, limit)
    scanned = [(math.sqrt(lam), mult) for lam, mult in
               scan_spectrum(g, VertexConditions(1.5), ScanParams(k_max=7)).entries
               if lam > 0 and math.sqrt(lam) < limit]
    assert len(predicted) == len(scanned) == 14
    assert sum(m for _, m in predicted) == sum(m for _, m in scanned) == 18
    for (k, m), (k_scan, m_scan) in zip(predicted, scanned):
        assert abs(k - k_scan) < 1e-8 and m == m_scan
    assert [(j, m) for j in range(1, 3) for k, m in predicted if k == j * math.pi] == \
        [(1, 2), (2, 4)]


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
    st.lists(st.sampled_from(("tail", "head")), min_size=n, max_size=n))),
    st.fractions(Fraction(1, 9), 9, max_denominator=9))
def test_predicted_wavenumbers_on_gears_follow_the_circle(gear, w):
    """On a gear (m = n) the walk rule at k = j pi is the circle rule:
    multiplicity 2 where j times the circumference is even, else none."""
    lengths, attachments = gear
    ms = markov_matrix(subdivide(build_gear(GearSpec(len(lengths), lengths, "primal",
                                                     attachments))), w)
    limit = 4 * math.pi + 0.5
    predicted = predicted_wavenumbers(ms, limit)
    at_pi = {j * math.pi for j in range(1, 5)}
    circle = [(j * math.pi, 2) for j in range(1, 5) if j * sum(lengths) % 2 == 0]
    assert predicted == sorted([e for e in predicted if e[0] not in at_pi] + circle)


# ---------------------------------------------------------------------------
# the walk polynomial is the bond scattering determinant (ROADMAP item 18)
# ---------------------------------------------------------------------------

def bond_side(cg, w, num, den):
    """det(I - z S_sub) at z = num/den as (integer rows, divisor), from the
    unit edges alone.  Bond 2e runs along unit edge e tail to head and
    2e + 1 back; for b_in into v and b_out out of v, S_sub[b_out, b_in] =
    2 w(b_in) / W_v - [b_out reverses b_in], a tooth edge weighing w and
    every other edge 1 (here p and q for w = p/q: S_sub does not see the
    scale)."""
    weight = [w.numerator if cls == TOOTH else w.denominator for _, _, cls in cg.edges]
    bonds = [(a, b, weight[e]) for e, (u, v, _) in enumerate(cg.edges)
             for a, b in ((u, v), (v, u))]
    total = [0] * cg.vertex_count
    for a, _, wgt in bonds:
        total[a] += wgt
    # row b_out times den W_v: den W_v [b_out = b_in] - num (2 w(b_in) [b_in into v]
    # - W_v [b_out reverses b_in])
    rows = [[den * total[a] * (i == j)
             - num * (2 * wgt * (head == a) - total[a] * (j == i ^ 1))
             for j, (_, head, wgt) in enumerate(bonds)]
            for i, (a, _, _) in enumerate(bonds)]
    return rows, math.prod(den * total[a] for a, _, _ in bonds)


def walk_side(ms, num, den):
    """det((1 + z^2) D - 2 z W) / det D at z = num/den as (integer rows,
    divisor), from the walk's integer weights."""
    n = ms.size
    rows = [[(num * num + den * den) * ms.degrees[i] * (i == j)
             - 2 * num * den * ms.adjacency[i].get(j, 0) for j in range(n)] for i in range(n)]
    return rows, den ** (2 * n) * math.prod(ms.degrees)


def assert_bass_identity(cg, w):
    """det(I - z S_sub) = (1 - z^2)^(m - n) det((1 + z^2) D - 2 z W) / det D
    at two rational z, exact."""
    ms = markov_matrix(cg, w)
    excess = len(cg.edges) - cg.vertex_count
    for z in (Fraction(2, 7), Fraction(-5, 3)):
        (bond, b_div), (walk, w_div) = (bond_side(cg, w, z.numerator, z.denominator),
                                        walk_side(ms, z.numerator, z.denominator))
        assert Fraction(bareiss_det(bond), b_div) == \
            (1 - z * z) ** excess * Fraction(bareiss_det(walk), w_div)


def assert_bass_identity_mod_p(cg, w, zs):
    """The identity of `assert_bass_identity` over GF(PRIME) at the ints
    ``zs``, both sides from `det_mod`, one lane per z: cleared of its
    divisors it is an identity of integer polynomials in z."""
    ms = markov_matrix(cg, w)
    excess = len(cg.edges) - cg.vertex_count
    bonds = [bond_side(cg, w, z, 1) for z in zs]
    walks = [walk_side(ms, z, 1) for z in zs]
    bond_dets = det_mod(lane_rows([rows for rows, _ in bonds]), PRIME, len(zs))
    walk_dets = det_mod(lane_rows([rows for rows, _ in walks]), PRIME, len(zs))
    for z, b, (_, b_div), wd, (_, w_div) in zip(zs, bond_dets, bonds, walk_dets, walks):
        assert b * w_div % PRIME == pow(1 - z * z, excess, PRIME) * wd * b_div % PRIME


@settings(deadline=None, max_examples=15)
@given(st.integers(3, 5).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
    st.lists(st.sampled_from(("tail", "head")), min_size=n, max_size=n))),
    st.fractions(Fraction(1, 9), 9, max_denominator=9))
def test_bond_determinant_is_the_walk_polynomial_on_gears(gear, w):
    lengths, attachments = gear
    cg = subdivide(build_gear(GearSpec(len(lengths), lengths, "primal", attachments)))
    assert len(cg.edges) == cg.vertex_count       # gears never test the (1 - z^2) factor
    assert_bass_identity(cg, w)


@settings(deadline=None, max_examples=40)
@given(st.integers(3, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
    st.lists(st.sampled_from(("tail", "head")), min_size=n, max_size=n))),
    st.fractions(Fraction(1, 9), 9, max_denominator=9),
    st.lists(st.integers(0, PRIME - 1), min_size=3, max_size=3))
@example(((3,) * 8, ("tail", "head") * 4), Fraction(7, 9), [5, 123456789, PRIME - 2])
def test_bond_determinant_is_the_walk_polynomial_mod_p_on_gears_to_n8(gear, w, zs):
    # up to 96 bonds, too many for the exact Bareiss route
    lengths, attachments = gear
    cg = subdivide(build_gear(GearSpec(len(lengths), lengths, "primal", attachments)))
    assert_bass_identity_mod_p(cg, w, zs)


@pytest.mark.parametrize("edges, w, excess", [
    # K4 with lengths (1, 2, 1, 1, 3, 1) and both edge classes
    (K4_EDGES, Fraction(3, 2), 2),
    # a triangle with one edge doubled
    ([(0, 1, 1, POLYGON), (1, 2, 1, POLYGON), (2, 0, 1, TOOTH), (0, 1, 1, TOOTH)],
     Fraction(2, 5), 1),
], ids=["k4", "double-edge"])
def test_bond_determinant_is_the_walk_polynomial_with_more_edges(edges, w, excess):
    cg = subdivide(metric_graph(edges))
    assert len(cg.edges) - cg.vertex_count == excess
    assert_bass_identity(cg, w)
    assert_bass_identity_mod_p(cg, w, [3, 2 ** 40 + 1, PRIME - 2])
