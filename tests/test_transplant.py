"""Eigenderivative transplantation identities on computed eigenfunctions."""

import dataclasses
import math
import random

import numpy as np
import pytest

from gearlab.graphs import GearSpec, GearlabError, MetricGraph, build_gear, dual_gear
from gearlab.spectral import (Eigenfunction, ScanParams, SpectralError, VertexConditions,
                              eigenfunction_basis, evaluate, evaluate_derivative,
                              scan_spectrum, vertex_residual)
from gearlab.transplant import (TransplantError, check_isometry, inverse_transplant,
                                transplant, transplant_report)


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
    # transplantation annihilates lam = 0, and no Eigenfunction holds it
    g1, _ = dual_pair()
    for k in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(SpectralError):
            Eigenfunction(g1, k, ((1.0, 0.0),) * 6)


def test_round_trip_identity():
    g1, g2 = dual_pair()
    for w in (1.0, 1.5):
        cond = VertexConditions(w)
        for f in first_positive_eigenfunctions(g1, cond)[:4]:
            ft, tmap = transplant(f, g2, w)
            back = inverse_transplant(ft, g1, w, tmap.assignment)
            scale = np.abs(f.flat()).max()
            assert np.abs(back.flat() - f.flat()).max() <= 1e-10 * scale


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
    # inverse_transplant takes TransplantMap.assignment, (0,) * n, or None
    g1, g2 = dual_pair()
    f = first_positive_eigenfunctions(g1, VertexConditions(1.0))[0]
    ft, tmap = transplant(f, g2, 1.0)
    assert tmap.assignment == (0, 0, 0)
    for bits in ((1, 0, 0), (0, 0), (0, 0, 0, 0), [0, 0, 0], np.zeros(3, dtype=int), 0):
        with pytest.raises(TransplantError, match="^assignment must be None or"):
            inverse_transplant(ft, g1, 1.0, bits)


def closed_form_inverse(ft, w):
    """The inverse written out per index: [[1, w], [1, -1]] on the
    derivatives of ft, times -1/(lam (1+w))."""
    n = len(ft.coeffs) // 2
    k = ft.k
    scale = -1.0 / (k * k * (1.0 + w))
    side, tooth = [], []
    for i in range(n):
        (sa, sb), (ta, tb) = ft.coeffs[i], ft.coeffs[n + i]
        dsa, dsb, dta, dtb = k * sb, -k * sa, k * tb, -k * ta
        side.append((scale * (dsa + w * dta), scale * (dsb + w * dtb)))
        tooth.append((scale * (dsa - dta), scale * (dsb - dtb)))
    return tuple(side + tooth)


@pytest.mark.parametrize("bits", [(0, 0, 0)], ids=lambda b: "".join(map(str, b)))
def test_inverse_transplant_matches_closed_forms(bits):
    g1, g2 = dual_pair((1.0, math.sqrt(2.0), 2.5))
    rng = random.Random(str(bits))
    for w in (0.5, 1.5, rng.uniform(0.1, 5.0)):
        coeffs = tuple((rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(6))
        ft = Eigenfunction(g2, rng.uniform(0.5, 9.0), coeffs)
        back = inverse_transplant(ft, g1, w, bits)
        assert back.graph is g1
        assert np.array_equal(back.coeffs, closed_form_inverse(ft, w))


def test_transplant_onto_non_dual_raises():
    g1, _ = dual_pair()
    f = first_positive_eigenfunctions(g1, VertexConditions(1.5))[0]
    with pytest.raises(TransplantError, match="residual"):
        transplant(f, g1, 1.5)


def test_transplant_onto_other_size_raises():
    g1, _ = dual_pair()
    _, g4 = dual_pair((1, 2, 3, 1))
    f = first_positive_eigenfunctions(g1, VertexConditions(1.0))[0]
    with pytest.raises(TransplantError, match="^source and target gears differ in size$"):
        transplant(f, g4, 1.0)
    with pytest.raises(TransplantError, match="^source and target gears differ in size$"):
        inverse_transplant(f, g4, 1.0)


@pytest.mark.parametrize("edit, message", [
    (lambda edges: edges[:-1], "^gear graphs have an even edge count$"),
    (lambda edges: edges[3:] + edges[:3], "^expected sides 0..n-1 then teeth n..2n-1$"),
    (lambda edges: edges[:4] + (dataclasses.replace(edges[4], length=2.5),) + edges[5:],
     "^side 1 and tooth 1 lengths differ$"),
], ids=["odd-edge-count", "teeth-first", "tooth-length"])
def test_transplant_checks_the_gear_layout_of_both_graphs(edit, message):
    g1, g2 = dual_pair()
    f = first_positive_eigenfunctions(g1, VertexConditions(1.0))[0]
    bad = MetricGraph(g2.vertex_count, edit(g2.edges), "bad")
    with pytest.raises(TransplantError, match=message):
        transplant(f, bad, 1.0)
    bad_f = Eigenfunction(MetricGraph(g1.vertex_count, edit(g1.edges), "bad"), f.k,
                          f.coeffs[:len(edit(g1.edges))])
    with pytest.raises(TransplantError, match=message):
        transplant(bad_f, g2, 1.0)
    with pytest.raises(TransplantError, match=message):
        inverse_transplant(f, bad, 1.0)


def test_transplant_error_is_a_gearlab_error():
    assert issubclass(TransplantError, GearlabError)
