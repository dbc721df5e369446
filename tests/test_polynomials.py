"""Sparse polynomial arithmetic and the subset-expansion determinant."""

import random
from itertools import permutations

from hypothesis import given, settings, strategies as st

from gearlab.polynomials import NVARS, SparsePolynomial, det_symbolic


def is_homogeneous(p, degree=None):
    """Every monomial of p has one total degree (``degree``, when given)."""
    degs = {sum(e) for e in p.terms}
    if not degs:
        return True
    if degree is None:
        return len(degs) == 1
    return degs == {degree}


def small_polys():
    exps = st.tuples(*([st.integers(0, 2)] * NVARS))
    return st.dictionaries(exps, st.integers(-5, 5), max_size=4).map(SparsePolynomial)


@settings(deadline=None, max_examples=60)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p - p == SparsePolynomial.zero()
    assert p * SparsePolynomial.constant(1) == p


@settings(deadline=None, max_examples=40)
@given(small_polys(), small_polys(), st.integers(0, 5))
def test_evaluation_is_homomorphism(p, q, seed):
    rng = random.Random(seed)
    pt = tuple(rng.randint(-4, 4) for _ in range(NVARS))
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_evaluate_mod_matches_exact():
    p = (SparsePolynomial.variable("x") * 3
         - SparsePolynomial.variable("gamma") * SparsePolynomial.variable("delta"))
    pt = (11, 0, 2, 5, 7, 3)
    mod = 10 ** 9 + 7
    assert p.evaluate(pt, mod=mod) == p.evaluate(pt) % mod


def test_substitute_kills_variable():
    y = SparsePolynomial.variable("y")
    x = SparsePolynomial.variable("x")
    p = x * x + y * x * 5 + SparsePolynomial.constant(2)
    assert p.substitute(y=0) == x * x + 2
    assert p.substitute(y=1) == x * x + x * 5 + 2


def test_homogeneity_queries():
    a = SparsePolynomial.variable("alpha")
    b = SparsePolynomial.variable("beta")
    assert is_homogeneous(a * b + b * b, 2)
    assert not is_homogeneous(a + b * b)
    assert is_homogeneous(SparsePolynomial.zero(), 17)


def _brute_force_det(mat):
    n = len(mat)
    total = SparsePolynomial.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = SparsePolynomial.constant(sign)
        for i in range(n):
            term = term * mat[i][perm[i]]
        total = total + term
    return total


def test_det_symbolic_against_leibniz_expansion():
    rng = random.Random(9)
    names = ("x", "alpha", "beta", "gamma")
    for _ in range(5):
        mat = [[SparsePolynomial.monomial(rng.randint(-3, 3),
                                          **{rng.choice(names): rng.randint(0, 2)})
                for _ in range(4)] for _ in range(4)]
        assert det_symbolic(mat) == _brute_force_det(mat)


def test_det_symbolic_triangular_and_singular():
    x = SparsePolynomial.variable("x")
    zero = SparsePolynomial.zero()
    one = SparsePolynomial.constant(1)
    assert det_symbolic([[x, one], [zero, x]]) == x * x
    assert det_symbolic([[x, x], [x, x]]) == SparsePolynomial.zero()


def test_dump_lines_sorted_and_stable():
    p = SparsePolynomial.variable("delta") + SparsePolynomial.variable("x") * 2
    lines = p.dump_lines()
    assert lines == sorted(lines)
    assert len(lines) == 2
