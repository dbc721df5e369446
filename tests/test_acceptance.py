"""Acceptance criteria: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from gearlab.graphs import (GearSpec, bipartition_sign, build_fig3_pair, build_gear,
                            dual_gear, fig2_control_pair, fig6_digraph_pair, subdivide)
from gearlab.markov import (characteristic_polynomial_exact, conjugator_report,
                            crosscheck_quantum, markov_matrix, markov_spectrum)
from gearlab.spectral import (ScanParams, VertexConditions, compare_first,
                              eigenfunction_basis, scan_spectrum, suggest_k_max)
from gearlab.transplant import check_isometry, inverse_transplant, transplant
from gearlab.zeta import PRIME, digraph_isomorphic, verify_intertwiner, zeta_equivalent

from support import combinatorial_derivative, combinatorial_transplant, insert_degree_two_vertex
from test_markov import reference_matrix, walk_pair, walk_rows


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({name}): FAIL")
        raise
    print(f"\ncriterion {num} ({name}): PASS")


DUAL_PAIRS = [
    (GearSpec(3, (1, 2, 3), "primal"), 1.0),
    (GearSpec(3, (1, 2, 3), "primal"), 1.5),
    (GearSpec(3, (1, 2, 3), "primal"), 2.0),
    (GearSpec(3, (1, 1, 2), "primal"), 1.0),
    (GearSpec(3, (1, 1, 2), "primal"), 1.5),
    (GearSpec(3, (1, 1, 2), "primal"), 2.0),
    (GearSpec(3, (1.0, math.sqrt(2.0), math.pi / 2), "primal"), 1.0),
]

COUNT = 25


@pytest.fixture(scope="module")
def dual_pair_scans():
    """Scans backing criteria 1 and 3, computed once."""
    data = []
    for spec, w in DUAL_PAIRS:
        g1 = build_gear(spec)
        g2 = build_gear(dual_gear(spec))
        cond = VertexConditions(w)
        params = ScanParams(k_max=suggest_k_max(g1, COUNT))
        t0 = time.perf_counter()
        s1 = scan_spectrum(g1, cond, params)
        s2 = scan_spectrum(g2, cond, params)
        elapsed = time.perf_counter() - t0
        data.append((spec, w, g1, g2, s1, s2, elapsed))
    return data


def test_criterion_1_dual_gear_isospectrality(dual_pair_scans):
    with criterion(1, "dual n-gears isospectral, first 25 eigenvalues"):
        for spec, w, _, _, s1, s2, elapsed in dual_pair_scans:
            rep = compare_first(s1, s2, COUNT)
            assert rep["max_rel_gap"] < 1e-8, (spec.lengths, w, rep["max_rel_gap"])
            assert not rep["multiplicity_mismatches"], (spec.lengths, w)
            assert elapsed < 60.0, (spec.lengths, w, elapsed)


def test_criterion_2_fig3_pairs_isospectral():
    with criterion(2, "fig3 pairs isospectral, first 20 eigenvalues"):
        for variant, lengths in (("a", (1, 2, 3)), ("b", (1, 2, 3, 4))):
            left, right = build_fig3_pair(variant, lengths)
            cond = VertexConditions(1.0)
            params = ScanParams(k_max=suggest_k_max(left, 20))
            s1 = scan_spectrum(left, cond, params)
            s2 = scan_spectrum(right, cond, params)
            rep = compare_first(s1, s2, 20)
            assert rep["max_rel_gap"] < 1e-8, (variant, rep["max_rel_gap"])
            assert not rep["multiplicity_mismatches"], variant


def test_criterion_3_transplantation_suite(dual_pair_scans):
    with criterion(3, "transplantation residual/isometry/round-trip"):
        for spec, w, g1, g2, s1, _, _ in dual_pair_scans:
            cond = VertexConditions(w)
            budget = COUNT
            for lam, mult in s1.entries:
                if budget <= 0:
                    break
                budget -= mult
                if lam == 0.0:
                    continue
                k = math.sqrt(lam)
                for f in eigenfunction_basis(g1, cond, k):
                    ft, tmap = transplant(f, g2, w)
                    assert tmap.residual < 1e-8, (spec.lengths, w, k)
                    _, _, rel = check_isometry(f, ft, w)
                    assert rel < 1e-8, (spec.lengths, w, k, rel)
                    back = inverse_transplant(ft, g1, w, tmap.assignment)
                    err = np.abs(back.flat() - f.flat()).max()
                    assert err < 1e-10, (spec.lengths, w, k, err)


def test_criterion_4_exact_walk_conjugation():
    with criterion(4, "exact char-poly equality and conjugator"):
        t0 = time.perf_counter()
        for lengths in ((1, 2, 3), (2, 2, 3)):
            rep = conjugator_report(GearSpec(3, lengths, "primal"),
                                    Fraction(3, 2), "rational")
            assert rep["charpoly_equal"] is True, lengths
            # charpoly_equal is an identity test at random points: the
            # exact polynomials keep this criterion exact
            src, dst = walk_pair(lengths, Fraction(3, 2))
            assert characteristic_polynomial_exact(src) == characteristic_polynomial_exact(dst)
            assert rep["conj_residual"] == 0.0, lengths
            assert rep["sigma_min_C"] > 1e-8, lengths
            assert rep["ok"] is True, lengths
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, elapsed


def test_criterion_5_quantum_walk_crosscheck():
    with criterion(5, "quantum spectrum equals walk prediction below 2 pi"):
        for lengths in ((1, 1, 1), (1, 2, 3)):
            rep = crosscheck_quantum(GearSpec(3, lengths, "primal"), 1, 2 * math.pi)
            assert rep["agree"], (lengths, rep["mismatches"][:3])
            assert rep["max_gap"] < 1e-8, (lengths, rep["max_gap"])
        # lambda = pi^2 with multiplicity 2 on (1,2,3); oracle: secular null space
        g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
        basis = eigenfunction_basis(g, VertexConditions(1.0), math.pi)
        assert len(basis) == 2


def test_criterion_6_zeta_equivalence_and_intertwiner():
    with criterion(6, "fig6 zeta equivalence and exact 12x12 intertwiner"):
        t0 = time.perf_counter()
        g, gt = fig6_digraph_pair()
        verdict = zeta_equivalent(g, gt, trials=20, seed=7)
        assert verdict["verdict"] == "equivalent-with-bound"
        assert Fraction(verdict["n"], PRIME) ** verdict["trials"] \
            <= Fraction(20 * 12, PRIME)
        rep = verify_intertwiner()
        assert rep["intertwines_y0"]
        assert rep["det_matches"]
        assert rep["eta_equal"]
        assert rep["ok"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, elapsed


def test_criterion_7_negative_control():
    with criterion(7, "fig2 control pair: isomorphic or distinguished"):
        a, b = fig2_control_pair()
        witness = digraph_isomorphic(a, b)
        verdict = zeta_equivalent(a, b, trials=20, seed=7)
        assert witness is not None or verdict["verdict"] == "distinguished"
        if verdict["verdict"] == "distinguished":
            assert verdict["distinguishing_point"] is not None


def _random_gears(count, seed=20260809):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 6)
        lengths = tuple(rng.randint(1, 4) for _ in range(n))
        attach = tuple(rng.choice(("tail", "head")) for _ in range(n))
        w = rng.choice((Fraction(1), Fraction(1, 2), Fraction(3, 2)))
        yield GearSpec(n, lengths, "primal", attach), w, rng


def test_criterion_8_structural_invariants():
    with criterion(8, "structural invariant suites on 50 random gears"):
        for spec, w, rng in _random_gears(50):
            g1 = build_gear(spec)
            g2 = build_gear(dual_gear(spec))
            src = markov_matrix(subdivide(g1), w, "rational")
            dst = markov_matrix(subdivide(g2), w, "rational")
            n = src.size

            # weighted outward derivatives sum to zero, exactly
            f = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            for v in range(n):
                total = sum(wgt * combinatorial_derivative(src, f, v, u)
                            for u, wgt in src.adjacency[v].items())
                assert total == 0

            # detailed balance, exactly
            rows = walk_rows(src)
            for u in range(n):
                for v, p in rows[u].items():
                    assert src.degrees[u] * p == src.degrees[v] * rows[v][u]

            # spectrum inside [-1, 1]; -1 present iff bipartite
            vals, vecs = markov_spectrum(src)
            assert vals[0] >= -1 - 1e-12 and vals[-1] <= 1 + 1e-12
            bip = bipartition_sign(src.cg) is not None
            assert (abs(vals[0] + 1.0) < 1e-9) == bip

            # transplanted eigenvectors stay eigenvectors
            md = reference_matrix(dst)
            for i, mu in enumerate(vals):
                if abs(abs(mu) - 1.0) < 1e-9:
                    continue
                img = combinatorial_transplant(src, dst, list(vecs[:, i]))
                img = np.array(img)
                assert np.abs(md @ img - mu * img).max() <= 1e-10 * np.linalg.norm(img)

            # degree-2 vertex insertion leaves the quantum spectrum unchanged
            cond = VertexConditions(float(w))
            params = ScanParams(k_max=max(suggest_k_max(g1, 4), 0.4))
            split = insert_degree_two_vertex(g1, rng.randrange(g1.edge_count),
                                             rng.uniform(0.25, 0.75))
            s1 = scan_spectrum(g1, cond, params)
            s2 = scan_spectrum(split, cond, params)
            assert len(s1.entries) >= 2
            assert len(s1.entries) == len(s2.entries)
            for (l1, m1), (l2, m2) in zip(s1.entries, s2.entries):
                assert m1 == m2
                assert abs(l1 - l2) <= 1e-8 * max(1.0, abs(l1))
