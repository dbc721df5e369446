"""Secular-system spectra: oracles, invariants, and comparisons."""

import math

import numpy as np
import pytest

from gearlab import (GearSpec, ScanParams, VertexConditions, build_gear,
                     compare_spectra, eigenfunction_basis, evaluate,
                     evaluate_derivative, insert_degree_two_vertex,
                     rank_indicator, scan_spectrum, secular_matrix,
                     weighted_inner, weighted_norm_sq)
from gearlab.graphs import Edge, MetricGraph
from gearlab.spectral import (Eigenfunction, NotAnEigenvalue, SpectralError,
                              constant_eigenfunction, vertex_residual)

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
    rep = compare_spectra(s1, shifted, tol=1e-8)
    assert not rep["match"] and rep["max_rel_gap"] > 1e-4
    with pytest.raises(SpectralError):
        compare_spectra(s1, Spectrum(s1.entries, 99.0))
