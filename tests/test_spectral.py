"""Secular-system spectra: oracles, invariants, and comparisons."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gearlab.graphs import Edge, GearSpec, MetricGraph, build_gear, insert_degree_two_vertex
from gearlab.markov import crosscheck_quantum
from gearlab.spectral import (Eigenfunction, NotAnEigenvalue, ScanParams, SpectralError,
                              VertexConditions, compare_spectra, constant_eigenfunction,
                              eigenfunction_basis, evaluate, evaluate_derivative,
                              rank_indicator, scan_spectrum, secular_matrix,
                              vertex_residual, weighted_inner, weighted_norm_sq)
from gearlab import spectral

KN = VertexConditions(1.0)


def interval(length=1.0):
    return MetricGraph(2, (Edge(0, 0, 1, length),), "interval")


def circle_two_edges(circumference=6.0):
    half = circumference / 2.0
    return MetricGraph(2, (Edge(0, 0, 1, half), Edge(1, 0, 1, half)), "circle")


# ---------------------------------------------------------------------------
# secular matrix
# ---------------------------------------------------------------------------

def test_interval_secular_is_2x2_with_expected_rank():
    g = interval()
    a_pi = secular_matrix(g, KN, math.pi)
    assert a_pi.shape == (2, 2)
    smin, _ = rank_indicator(g, KN, math.pi)
    assert smin < 1e-12
    smin_half, _ = rank_indicator(g, KN, math.pi / 2)
    # direct evaluation: rows normalize to (0, 1) and (sin k, -cos k),
    # which at k = pi/2 is the permutation matrix with sigma_min = 1
    assert abs(smin_half - 1.0) < 1e-12
    assert smin_half > 0.1


def test_circle_null_space_dimension_two():
    g = circle_two_edges(6.0)
    k = 2 * math.pi / 6
    basis = eigenfunction_basis(g, KN, k)
    assert len(basis) == 2


def test_gear_secular_size_and_entry_bound():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    for k in (0.3, 1.7, 5.2):
        a = secular_matrix(g, KN, k)
        assert a.shape == (12, 12)
        assert np.abs(a).max() <= 1.0 + 1e-12
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)


def test_secular_rejects_nonpositive_k():
    with pytest.raises(SpectralError):
        secular_matrix(interval(), KN, 0.0)


def loop_secular_matrix(g, cond, k):
    """Reference: the secular matrix assembled cell by cell in loop order."""
    m = g.edge_count
    lengths = np.array([e.length for e in g.edges])
    ckl, skl = np.cos(k * lengths), np.sin(k * lengths)
    rows = np.zeros((2 * m, 2 * m))
    r = 0

    def value_coeffs(e, end):
        return (1.0, 0.0) if end == 0 else (ckl[e], skl[e])

    for incs in g.incidences():
        e0, end0 = incs[0]
        a0, b0 = value_coeffs(e0, end0)
        for e, end in incs[1:]:
            a1, b1 = value_coeffs(e, end)
            rows[r, 2 * e0] += a0
            rows[r, 2 * e0 + 1] += b0
            rows[r, 2 * e] -= a1
            rows[r, 2 * e + 1] -= b1
            r += 1
        for e, end in incs:
            wgt = cond.edge_weight(g.edges[e])
            if end == 0:
                rows[r, 2 * e + 1] += wgt * k
            else:
                rows[r, 2 * e] += wgt * k * skl[e]
                rows[r, 2 * e + 1] -= wgt * k * ckl[e]
        r += 1
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0] = 1.0
    return rows / norms[:, None]


LOOPY = MetricGraph(3, (Edge(0, 0, 0, 1.3), Edge(1, 0, 1, 0.7, 2.0), Edge(2, 1, 0, 1.1),
                        Edge(3, 1, 2, 0.4), Edge(4, 2, 2, 2.1)), "loops and parallel edges")


@pytest.mark.parametrize("g", [
    LOOPY,
    build_gear(GearSpec(3, (1, 2, 3), "dual")),
    build_gear(GearSpec(4, (1.4142, 1.7320508, 2.2360679, 1), "primal",
                        ("tail", "head", "tail", "head"))),
], ids=["loops", "gear123-dual", "thth"])
def test_secular_matrix_equals_loop_assembly(g):
    cond = VertexConditions(1.5)
    rng = np.random.default_rng(3)
    for k in rng.uniform(0.01, 40.0, size=50):
        assert secular_matrix(g, cond, k).tobytes() == loop_secular_matrix(g, cond, k).tobytes()


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def test_interval_spectrum():
    s = scan_spectrum(interval(), KN, ScanParams(k_max=10.0))
    expected = [(0.0, 1)] + [((j * math.pi) ** 2, 1) for j in (1, 2, 3)]
    assert len(s.entries) == len(expected)
    for (lam, mult), (lam_e, mult_e) in zip(s.entries, expected):
        assert mult == mult_e
        assert abs(lam - lam_e) <= 1e-9 * max(1.0, lam_e)


def test_circle_spectrum_multiplicity_two():
    s = scan_spectrum(circle_two_edges(6.0), KN, ScanParams(k_max=5.0))
    expected = [(0.0, 1)] + [((2 * math.pi * j / 6) ** 2, 2) for j in (1, 2, 3, 4)]
    assert len(s.entries) == len(expected)
    for (lam, mult), (lam_e, mult_e) in zip(s.entries, expected):
        assert mult == mult_e
        assert abs(lam - lam_e) <= 1e-9 * max(1.0, lam_e)


def test_unit_gear_spectrum_matches_walk_arccos_oracle():
    # independent oracle: the (1,1,1) walk eigenvalues come from
    # 3 mu^2 - 2 cos(2 pi j / 3) mu - 1 = 0, giving  1, -1/3, (-1 +- sqrt(13))/6
    g = build_gear(GearSpec(3, (1, 1, 1), "primal"))
    s = scan_spectrum(g, KN, ScanParams(k_max=math.pi))
    mus = sorted([(-1 + math.sqrt(13)) / 6] * 2
                 + [(-1 - math.sqrt(13)) / 6] * 2
                 + [-1 / 3])
    expected = sorted(math.acos(mu) for mu in mus)
    got = []
    for lam, mult in s.entries[1:]:
        got.extend([math.sqrt(lam)] * mult)
    assert len(got) == len(expected)
    assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-9


def test_scan_deterministic():
    g = build_gear(GearSpec(3, (1, 2, 3), "dual"))
    p = ScanParams(k_max=4.0)
    s1 = scan_spectrum(g, KN, p)
    s2 = scan_spectrum(g, KN, p)
    assert s1 == s2


def scalar_golden_min(f, a, b, tol):
    """Reference: one golden-section search at a time."""
    g = spectral._GOLDEN
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def test_lockstep_refinement_visits_the_scalar_points():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    cond = VertexConditions(1.5)

    def sigma(k):
        return rank_indicator(g, cond, k)[0]

    grid = np.arange(0.05, 5.0, 0.05)
    sig = [sigma(k) for k in grid]
    lows = [i for i in range(1, len(grid) - 1) if sig[i - 1] >= sig[i] <= sig[i + 1]]
    assert len(lows) >= 5
    a, b = grid[np.array(lows) - 1], grid[np.array(lows) + 1]
    got = spectral._golden_refine(lambda ks: np.array([sigma(k) for k in ks]), a, b, 1e-12)
    assert got.tolist() == [scalar_golden_min(sigma, lo, hi, 1e-12) for lo, hi in zip(a, b)]


def test_golden_refine_stops_at_float_spacing():
    # near k = 1e4 the float spacing (1.8e-12) exceeds REFINE_TOL, so no
    # bracket ever gets narrower than the tolerance
    roots = np.array([1e4 + 0.123, 2e4 - 0.456])
    assert np.spacing(roots).min() > spectral.REFINE_TOL
    calls = []

    def sigma(ks):
        calls.append(len(ks))
        assert len(calls) < 1000, "refinement does not terminate"
        return np.abs(ks - np.where(ks < 1.5e4, roots[0], roots[1]))

    got = spectral._golden_refine(sigma, roots - 0.01, roots + 0.01, spectral.REFINE_TOL)
    assert np.all(np.abs(got - roots) <= 4 * np.spacing(roots))


GOLDEN_GEARS = [
    (build_gear(GearSpec(3, (1, 2, 3), "primal")), 1.5, 12.0),
    (build_gear(GearSpec(4, (1.4142, 1.7320508, 2.2360679, 1), "primal",
                         ("tail", "head", "tail", "head"))), 2.0, 9.0),
]


@pytest.mark.parametrize("g,w,k_max", GOLDEN_GEARS, ids=["gear123", "thth"])
def test_scan_independent_of_block_size(monkeypatch, g, w, k_max):
    cond, params = VertexConditions(w), ScanParams(k_max=k_max)
    default = scan_spectrum(g, cond, params)
    for block in (1, int(k_max / params.grid_step) + 10):
        monkeypatch.setattr(spectral, "_SCAN_BLOCK", block)
        assert scan_spectrum(g, cond, params) == default


@pytest.mark.parametrize("w", [1e200, 1e308])
def test_secular_matrix_overflow_raises_without_warnings(w):
    # 1e308 overflows the Kirchhoff entries, 1e200 only their row norms
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectralError, match="overflows at k=1.5"):
            secular_matrix(g, VertexConditions(w), 1.5)


def test_batched_singular_values_reject_non_finite_stack():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    ks = np.array([0.5, 1.0, 1.5])
    stack = np.stack([secular_matrix(g, KN, k) for k in ks])
    assert spectral._singular_values(stack, ks).shape == (3, 12)
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[1, 2, 3] = bad
        with pytest.raises(SpectralError):
            spectral._singular_values(broken, ks)


@pytest.mark.parametrize("kwargs", [
    {"k_max": math.inf}, {"k_max": 3.0, "grid_step": math.inf},
    {"k_max": 3.0, "grid_step": math.nan}, {"k_max": -1.0}])
def test_scan_params_require_positive_finite(kwargs):
    with pytest.raises(SpectralError):
        ScanParams(**kwargs)


@pytest.mark.parametrize("w", [math.inf, math.nan, 0.0, -1.0])
def test_vertex_conditions_require_positive_finite_weight(w):
    with pytest.raises(SpectralError):
        VertexConditions(w)


def test_gear_112_count():
    g = build_gear(GearSpec(3, (1, 1, 2), "primal"))
    assert scan_spectrum(g, KN, ScanParams(k_max=6.0)).count() == 15


@pytest.mark.xfail(strict=True, reason="the grid scan misses the partner of the "
                   "k = 3.1408082 root at 3.1408067; the count is not certified")
def test_near_degenerate_cluster_not_dropped():
    # (1, 1.001, 2) has as many eigenvalues below k = 6 as (1, 1, 2)
    g = build_gear(GearSpec(3, (1, 1.001, 2), "primal"))
    assert scan_spectrum(g, KN, ScanParams(k_max=6.0)).count() == 15


@pytest.mark.xfail(strict=True, reason="the default grid has one sigma_min minimum for "
                   "k = 3.9324913 and its neighbour; a grid_step=0.003 scan finds both")
def test_thth_default_scan_finds_the_fine_grid_root():
    # the fine-grid scan is pinned by test_cli::test_grid_step_finds_the_thth_root
    g, w, k_max = GOLDEN_GEARS[1]
    s = scan_spectrum(g, VertexConditions(w), ScanParams(k_max))
    assert min(abs(math.sqrt(lam) - 3.9324913) for lam, _ in s.entries) < 1e-6


@pytest.mark.xfail(strict=True, reason="the grid scan finds 85 of the 88 eigenvalues the walk "
                   "predicts below k = 9.37; the first miss is k = 2.9812366")
@pytest.mark.parametrize("variant", ["primal", "dual"])
def test_integer_gear_scan_matches_walk_prediction(variant):
    spec = GearSpec(5, (1, 2, 3, 4, 5), variant)
    assert crosscheck_quantum(spec, Fraction(1, 2), 9.37)["agree"]


def test_scan_rejects_disconnected():
    g = MetricGraph(4, (Edge(0, 0, 1, 1.0), Edge(1, 2, 3, 1.0)))
    with pytest.raises(SpectralError):
        scan_spectrum(g, KN, ScanParams(k_max=3.0))


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------

def test_interval_eigenfunction_is_cosine():
    basis = eigenfunction_basis(interval(), KN, math.pi)
    assert len(basis) == 1
    a, b = basis[0].coeffs[0]
    assert abs(abs(a) - 1.0) < 1e-9 and abs(b) < 1e-9


def test_basis_rejects_non_roots():
    with pytest.raises(NotAnEigenvalue):
        eigenfunction_basis(interval(), KN, math.pi / 2)


def test_gear_dirichlet_multiplicity_at_pi():
    # circle of circumference 6 at k = pi carries a 2-dim eigenspace
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    assert len(eigenfunction_basis(g, KN, math.pi)) == 2


def test_evaluate_and_derivative():
    g = interval()
    k = 2.0
    cos_f = Eigenfunction(g, k, ((1.0, 0.0),))
    sin_f = Eigenfunction(g, k, ((0.0, 1.0),))
    assert evaluate(cos_f, 0, 0.0) == 1.0
    assert evaluate_derivative(cos_f, 0, 0.0) == 0.0
    assert evaluate_derivative(sin_f, 0, 0.0) == k
    with pytest.raises(SpectralError):
        evaluate(cos_f, 0, 2.0)


def test_weighted_norms_of_constants():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    one = constant_eigenfunction(g)
    assert abs(weighted_norm_sq(one, VertexConditions(1.0)) - 12.0) < 1e-12
    assert abs(weighted_norm_sq(one, VertexConditions(2.0)) - 18.0) < 1e-12


def test_cosine_norm_on_unit_interval():
    f = Eigenfunction(interval(), math.pi, ((1.0, 0.0),))
    assert abs(weighted_norm_sq(f, KN) - 0.5) < 1e-12


def test_pair_integral_against_quadrature():
    # independent oracle: composite Simpson on random coefficient pairs
    import random
    from gearlab.spectral import _pair_integral

    def simpson(fun, l, n=4000):
        xs = [l * i / n for i in range(n + 1)]
        ws = [1 if i in (0, n) else (4 if i % 2 else 2) for i in range(n + 1)]
        return sum(w * fun(x) for w, x in zip(ws, xs)) * l / (3 * n)

    rng = random.Random(13)
    cases = [(0.0, 0.0), (0.0, 1.3), (2.0, 2.0), (2.0, 3.7), (1.0, 1.0 + 1e-14)]
    for k1, k2 in cases:
        a1, b1, a2, b2 = (rng.uniform(-2, 2) for _ in range(4))
        l = rng.uniform(0.5, 3.0)

        def f(x, k=k1, a=a1, b=b1):
            return a + b * x if k == 0 else a * math.cos(k * x) + b * math.sin(k * x)

        def h(x, k=k2, a=a2, b=b2):
            return a + b * x if k == 0 else a * math.cos(k * x) + b * math.sin(k * x)

        exact = _pair_integral(k1, a1, b1, k2, a2, b2, l)
        approx = simpson(lambda x: f(x) * h(x), l)
        assert abs(exact - approx) < 1e-9 * max(1.0, abs(exact))


def test_eigenfunctions_weighted_orthogonal_across_roots():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    cond = VertexConditions(1.5)
    s = scan_spectrum(g, cond, ScanParams(k_max=3.0))
    funcs = [constant_eigenfunction(g)]
    for lam, _ in s.entries[1:]:
        funcs.extend(eigenfunction_basis(g, cond, math.sqrt(lam)))
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            if funcs[i].k == funcs[j].k:
                continue
            ip = weighted_inner(funcs[i], funcs[j], cond)
            scale = math.sqrt(weighted_norm_sq(funcs[i], cond)
                              * weighted_norm_sq(funcs[j], cond))
            assert abs(ip) <= 1e-6 * scale


def test_vertex_residual_flags_bad_coefficients():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    k = math.sqrt(scan_spectrum(g, KN, ScanParams(k_max=2.0)).entries[1][0])
    f = eigenfunction_basis(g, KN, k)[0]
    assert vertex_residual(f, KN) < 1e-10
    bad = Eigenfunction(g, k, ((1.0, 0.5),) * 6)
    assert vertex_residual(bad, KN) > 1e-3


# ---------------------------------------------------------------------------
# spectrum invariances
# ---------------------------------------------------------------------------

def test_degree_two_insertion_invariance():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    split = insert_degree_two_vertex(g, 1, 0.37)
    p = ScanParams(k_max=4.0)
    s1, s2 = scan_spectrum(g, KN, p), scan_spectrum(split, KN, p)
    rep = compare_spectra(s1, s2)
    assert rep["max_rel_gap"] < 1e-8
    assert not rep["multiplicity_mismatches"]


def test_length_scaling_scales_eigenvalues():
    spec = GearSpec(3, (1, 1, 2), "primal")
    s = 1.7
    scaled = GearSpec(3, tuple(s * l for l in spec.lengths), "primal")
    s1 = scan_spectrum(build_gear(spec), KN, ScanParams(k_max=3.4))
    s2 = scan_spectrum(build_gear(scaled), KN, ScanParams(k_max=3.4 / s))
    for (l1, m1), (l2, m2) in zip(s1.entries[1:6], s2.entries[1:6]):
        assert m1 == m2
        assert abs(l2 - l1 / s ** 2) <= 1e-8 * max(1.0, abs(l2))


def test_compare_spectra_reports():
    g = build_gear(GearSpec(3, (1, 1, 2), "primal"))
    s1 = scan_spectrum(g, KN, ScanParams(k_max=3.0))
    rep = compare_spectra(s1, s1)
    assert rep["max_rel_gap"] == 0.0 and rep["match"]
    from gearlab.spectral import Spectrum
    shifted = Spectrum(tuple((lam * (1 + 1e-3), m) for lam, m in s1.entries), s1.k_max)
    rep = compare_spectra(s1, shifted)
    assert not rep["match"] and rep["max_rel_gap"] > 1e-4
    with pytest.raises(SpectralError):
        compare_spectra(s1, Spectrum(s1.entries, 99.0))
