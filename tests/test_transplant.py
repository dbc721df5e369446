"""Eigenderivative transplantation identities on computed eigenfunctions."""

import math

import numpy as np
import pytest

from gearlab.graphs import GearSpec, build_gear, dual_gear
from gearlab.spectral import (Eigenfunction, ScanParams, VertexConditions,
                              eigenfunction_basis, evaluate, evaluate_derivative,
                              scan_spectrum, vertex_residual)
from gearlab.transplant import (TransplantError, check_eigen_equation, check_isometry,
                                inverse_transplant, transplant, transplant_report)


def dual_pair(lengths=(1, 2, 3), attachments=None):
    spec = GearSpec(len(lengths), lengths, "primal", attachments)
    return build_gear(spec), build_gear(dual_gear(spec))


def first_positive_eigenfunctions(g, cond, k_max=2.0):
    s = scan_spectrum(g, cond, ScanParams(k_max=k_max))
    out = []
    for lam, _ in s.entries[1:]:
        out.extend(eigenfunction_basis(g, cond, math.sqrt(lam)))
    return out


def test_transplant_first_eigenvalue_residual():
    g1, g2 = dual_pair()
    f = first_positive_eigenfunctions(g1, VertexConditions(1.0))[0]
    ft, tmap = transplant(f, g2, 1.0)
    assert tmap.residual < 1e-8
    assert vertex_residual(ft, VertexConditions(1.0)) < 1e-8


def test_transplant_annihilates_only_zero():
    g1, g2 = dual_pair()
    zero = Eigenfunction(g1, 1.3, ((0.0, 0.0),) * 6)
    ft, _ = transplant(zero, g2, 1.0)
    assert all(a == 0 and b == 0 for a, b in ft.coeffs)
    # nonzero eigenfunctions stay nonzero
    f = first_positive_eigenfunctions(g1, VertexConditions(1.0))[0]
    ft, _ = transplant(f, g2, 1.0)
    assert np.abs(ft.flat()).max() > 1e-6


def test_transplant_rejects_constants():
    g1, g2 = dual_pair()
    const = Eigenfunction(g1, 0.0, ((1.0, 0.0),) * 6)
    with pytest.raises(TransplantError):
        transplant(const, g2, 1.0)
    with pytest.raises(TransplantError):
        inverse_transplant(const, g2, 1.0)


def test_round_trip_identity():
    g1, g2 = dual_pair()
    for w in (1.0, 1.5):
        cond = VertexConditions(w)
        for f in first_positive_eigenfunctions(g1, cond)[:4]:
            ft, tmap = transplant(f, g2, w)
            back = inverse_transplant(ft, g1, w, tmap.assignment)
            scale = np.abs(f.flat()).max()
            assert np.abs(back.flat() - f.flat()).max() <= 1e-10 * scale


def test_eigen_equation_residual():
    g1, g2 = dual_pair()
    f = first_positive_eigenfunctions(g1, VertexConditions(1.0))[0]
    ft, tmap = transplant(f, g2, 1.0)
    assert check_eigen_equation(f, ft, 1.0, tmap.assignment) < 1e-12
    zero = Eigenfunction(g1, f.k, ((0.0, 0.0),) * 6)
    zt, _ = transplant(zero, g2, 1.0)
    assert check_eigen_equation(zero, zt, 1.0) == 0.0
    corrupted = Eigenfunction(g2, ft.k,
                              ((ft.coeffs[0][0] + 0.25, ft.coeffs[0][1]),) + ft.coeffs[1:])
    assert check_eigen_equation(f, corrupted, 1.0, tmap.assignment) > 1e-6


def test_isometry_identity():
    for w in (1.0, 1.5):
        g1, g2 = dual_pair()
        cond = VertexConditions(w)
        for f in first_positive_eigenfunctions(g1, cond)[:4]:
            ft, tmap = transplant(f, g2, w)
            lhs, rhs, rel = check_isometry(f, ft, w)
            assert rel < 1e-8
            rep = transplant_report(f, ft, tmap)
            assert rep["isometry_rel_error"] < 1e-8
            assert rep["vertex_residual"] < 1e-8
    zero = Eigenfunction(g1, 1.0, ((0.0, 0.0),) * 6)
    lhs, rhs, rel = check_isometry(zero, zero, 1.0)
    assert lhs == rhs == 0.0


def test_pointwise_energy_identity():
    # side~^2 + w tooth~^2 = (1+w)(side'^2 + w tooth'^2) at sampled x
    w = 1.5
    g1, g2 = dual_pair((1, 1, 2))
    f = first_positive_eigenfunctions(g1, VertexConditions(w))[0]
    ft, tmap = transplant(f, g2, w)
    assert tmap.assignment == (0, 0, 0)
    n = 3
    for i in range(n):
        l = g1.edges[i].length
        for x in np.linspace(0.0, l, 7):
            lhs = evaluate(ft, i, x) ** 2 + w * evaluate(ft, n + i, x) ** 2
            dp = evaluate_derivative(f, i, x)
            dt = evaluate_derivative(f, n + i, x)
            rhs = (1 + w) * (dp ** 2 + w * dt ** 2)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_eigenspace_dimensions_match_both_directions():
    g1, g2 = dual_pair((1, 1, 2))
    cond = VertexConditions(1.5)
    s1 = scan_spectrum(g1, cond, ScanParams(k_max=2.5))
    for lam, mult in s1.entries[1:]:
        k = math.sqrt(lam)
        assert len(eigenfunction_basis(g1, cond, k)) == mult
        assert len(eigenfunction_basis(g2, cond, k)) == mult


def test_transplant_on_mixed_attachment_gear():
    g1, g2 = dual_pair((1, 2, 3), attachments=("tail", "head", "tail"))
    cond = VertexConditions(0.5)
    f = first_positive_eigenfunctions(g1, cond)[0]
    ft, tmap = transplant(f, g2, 0.5)
    assert tmap.residual < 1e-8


def test_prescribed_wrong_assignment_raises():
    g1, g2 = dual_pair()
    f = first_positive_eigenfunctions(g1, VertexConditions(1.0))[0]
    with pytest.raises(TransplantError):
        transplant(f, g2, 1.0, assignment=(1, 0, 0))


def test_transplant_onto_non_dual_raises():
    g1, _ = dual_pair()
    f = first_positive_eigenfunctions(g1, VertexConditions(1.5))[0]
    with pytest.raises(TransplantError, match="residual"):
        transplant(f, g1, 1.5)
