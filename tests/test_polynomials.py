"""Sparse polynomial arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gearlab.polynomials import EXPONENT_LIMIT, NVARS, VARIABLES, SparsePolynomial


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


def test_int_comparison_and_repr():
    three = SparsePolynomial.constant(3)
    assert three == 3 and three != 4 and three != 0
    assert SparsePolynomial.zero() == 0 and SparsePolynomial.zero() != 3
    assert repr(three) == "SparsePolynomial(3 x^0 y^0 alpha^0 beta^0 gamma^0 delta^0)"
    assert repr(SparsePolynomial.zero()) == "SparsePolynomial(0)"


def test_dump_lines_sorted_and_stable():
    p = SparsePolynomial.variable("delta") + SparsePolynomial.variable("x") * 2
    lines = p.dump_lines()
    assert lines == sorted(lines)
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# the packed keys against a tuple-keyed reference
# ---------------------------------------------------------------------------

def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_clean(out)


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_substitute(p, values):
    out = {}
    for e, c in p.items():
        new = list(e)
        for name, v in values.items():
            i = VARIABLES.index(name)
            c *= v ** e[i]
            new[i] = 0
        out[tuple(new)] = out.get(tuple(new), 0) + c
    return ref_clean(out)


def ref_evaluate(p, point, mod=None):
    total = 0
    for e, c in p.items():
        for v, k in zip(point, e):
            c *= v ** k if mod is None else pow(v, k, mod)
        total += c
    return total if mod is None else total % mod


def ref_polys(lo=-3, hi=3, extreme=False):
    """Tuple-keyed dicts; ``extreme`` mixes in exponents at the constructor's limit."""
    e = st.integers(lo, hi)
    if extreme:
        e = st.one_of(e, st.sampled_from([EXPONENT_LIMIT - 1, 1 - EXPONENT_LIMIT]))
    return st.dictionaries(st.tuples(*[e] * NVARS), st.integers(-4, 4), max_size=5).map(ref_clean)


def parsed_dump(p):
    out = []
    for line in p.dump_lines():
        coeff, *mono = line.split()
        assert [m.split("^")[0] for m in mono] == list(VARIABLES)
        out.append((tuple(int(m.split("^")[1]) for m in mono), int(coeff)))
    return out


@settings(deadline=None, max_examples=150)
@given(ref_polys(extreme=True), ref_polys(extreme=True))
def test_packed_ring_operations_match_reference(a, b):
    p, q = SparsePolynomial(a), SparsePolynomial(b)
    assert dict(p.terms) == a
    assert (p + q).terms == ref_add(a, b)
    assert (p - q).terms == ref_add(a, b, -1)
    assert (-p).terms == ref_add({}, a, -1)
    assert (p * q).terms == ref_mul(a, b)
    assert (p * 3).terms == (3 * p).terms == ref_clean({e: 3 * c for e, c in a.items()})
    assert (p == q) == (a == b)
    # equal polynomials built in another term order hash alike
    r = SparsePolynomial(dict(reversed(list(a.items()))))
    assert r == p and hash(r) == hash(p)
    for e, c in a.items():
        assert p.coefficient(**dict(zip(VARIABLES, e))) == c
    assert parsed_dump(p * q) == sorted(ref_mul(a, b).items())


@settings(deadline=None, max_examples=100)
@given(ref_polys(), ref_polys(), st.integers(0, 10 ** 6))
def test_packed_evaluation_matches_reference(a, b, seed):
    rng = random.Random(seed)
    p = SparsePolynomial(a) * SparsePolynomial(b)
    prod = ref_mul(a, b)
    # nonzero Fractions keep negative powers exact; mod a prime they are inverses
    point = tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in VARIABLES)
    assert p.evaluate(point) == ref_evaluate(prod, point)
    mod = 10007
    point = tuple(rng.randrange(1, mod) for _ in VARIABLES)
    assert p.evaluate(point, mod=mod) == ref_evaluate(prod, point, mod)


@settings(deadline=None, max_examples=100)
@given(ref_polys(0, 3), st.dictionaries(st.sampled_from(VARIABLES), st.integers(-3, 3), max_size=3))
def test_packed_substitute_matches_reference(a, values):
    assert SparsePolynomial(a).substitute(**values).terms == ref_substitute(a, values)


@settings(deadline=None, max_examples=100)
@given(ref_polys(0, 3), st.sets(st.sampled_from(VARIABLES), min_size=1),
       st.dictionaries(st.sampled_from(VARIABLES), st.integers(-3, 3), max_size=3))
def test_substitute_matches_reference_with_and_without_the_variable(a, absent, values):
    # a polynomial that carries none of ``absent``: substituting them
    # changes nothing, and the others go as in the reference
    dropped = {}
    for e, c in a.items():
        dropped = ref_add(dropped, {tuple(0 if name in absent else k
                                          for name, k in zip(VARIABLES, e)): c})
    p = SparsePolynomial(dropped)
    assert p.substitute(**values).terms == ref_substitute(dropped, values)
    assert p.substitute(**dict.fromkeys(absent, 3)) == p
    assert p.substitute(**dict.fromkeys(absent, 0)).terms == ref_substitute(
        dropped, dict.fromkeys(absent, 0)) == dropped


def ref_shift_x(p, c):
    """p with x replaced by x + c delta, by repeated products."""
    x_plus = {(1,) + (0,) * (NVARS - 1): 1, (0,) * (NVARS - 1) + (1,): c}
    out = {}
    for e, coeff in p.items():
        term = {(0,) + e[1:]: coeff}
        for _ in range(e[0]):
            term = ref_mul(term, x_plus)
        out = ref_add(out, term)
    return out


@settings(deadline=None, max_examples=100)
@given(ref_polys(0, 4), st.integers(-3, 3))
def test_shift_x_matches_reference(a, c):
    dropped = {}
    for e, coeff in a.items():
        dropped = ref_add(dropped, {e[:-1] + (0,): coeff})
    assert SparsePolynomial(dropped).shift_x(c).terms == ref_shift_x(dropped, c)


def test_shift_x_rejects_the_variable_and_negative_powers_of_x():
    for bad in ({(1, 0, 0, 0, 0, 1): 1}, {(-1, 0, 0, 0, 0, 0): 1}):
        with pytest.raises(ValueError):
            SparsePolynomial(bad).shift_x(2)


def test_evaluate_repeats_negative_powers_exactly_and_mod_p():
    # alpha^-1 and alpha^-2, as in zeta.intertwiner's rows, each in
    # several terms, beside positive powers of the same variables
    terms = {(0, 0, -1, 2, 0, 0): 3, (1, 0, -1, 0, 1, 0): -2, (0, 0, -2, 1, 1, 0): 5,
             (2, 0, -1, 0, 0, -1): 1, (0, 0, 1, 2, 1, 0): 7, (1, 0, -2, 0, 0, -1): -4}
    p = SparsePolynomial(terms)
    for point in [(2, 9, 3, -5, 7, 11), (Fraction(1, 2), 0, Fraction(-2, 3), 5, 1, Fraction(7, 4))]:
        assert p.evaluate(point) == ref_evaluate(terms, point)
    point, mod = (2, 9, 3, -5, 7, 11), 10007
    assert p.evaluate(point, mod=mod) == ref_evaluate(terms, point, mod)
    # residues of the point, not the point, meet the modulus
    assert p.evaluate(tuple(v + mod for v in point), mod=mod) == ref_evaluate(terms, point, mod)


@pytest.mark.parametrize("base, mod, error", [(0, None, ZeroDivisionError), (0, 7, ValueError),
                                             (7, 7, ValueError)])
def test_evaluate_zero_base_with_negative_exponent_raises(base, mod, error):
    # 0 ** -1 and pow(0, -1, 7) raise these
    p = SparsePolynomial({(0, 0, -1, 0, 0, 0): 1, (0, 0, 2, 0, 0, 0): 1})
    with pytest.raises(error):
        p.evaluate((1, 1, base, 1, 1, 1), mod=mod)
    assert SparsePolynomial({(0, 0, 2, 0, 0, 0): 1}).evaluate((1, 1, base, 1, 1, 1), mod=mod) == 0


def test_negative_intermediate_exponents():
    # zeta.intertwiner multiplies alpha^-1 into rows that carry an alpha
    inv = SparsePolynomial.monomial(1, alpha=-1, beta=2)
    assert dict(inv.terms) == {(0, 0, -1, 2, 0, 0): 1}
    assert inv * SparsePolynomial.variable("alpha") == SparsePolynomial.monomial(1, beta=2)
    p = inv * (SparsePolynomial.variable("alpha") + SparsePolynomial.variable("gamma"))
    assert dict(p.terms) == {(0, 0, 0, 2, 0, 0): 1, (0, 0, -1, 2, 1, 0): 1}
    assert parsed_dump(p) == [((0, 0, -1, 2, 1, 0), 1), ((0, 0, 0, 2, 0, 0), 1)]
    assert p.evaluate((0, 0, 1, 1, 5, 0), mod=7) == 6


@pytest.mark.parametrize("exps", [
    (0, 0, EXPONENT_LIMIT, 0, 0, 0), (-EXPONENT_LIMIT, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1 << 40),
    (1, 2, 3), (0,) * (NVARS + 1)])
def test_constructors_reject_exponents_outside_the_fields(exps):
    with pytest.raises(ValueError):
        SparsePolynomial({exps: 1})
    if len(exps) == NVARS:
        with pytest.raises(ValueError):
            SparsePolynomial.monomial(1, **dict(zip(VARIABLES, exps)))


def test_constructors_accept_exponents_just_inside_the_fields():
    top = EXPONENT_LIMIT - 1
    p = SparsePolynomial({(top, 0, -top, 0, 0, top): 2})
    assert dict(p.terms) == {(top, 0, -top, 0, 0, top): 2}
    assert dict((p * p).terms) == {(2 * top, 0, -2 * top, 0, 0, 2 * top): 4}


def test_coefficients_in_one_variable():
    x = SparsePolynomial.variable("x")
    p = x * x * 3 - 2
    assert p.coefficients("x", 4) == [-2, 0, 3, 0]
    for bad in (p * x * x, p + SparsePolynomial.variable("y"),
                p * SparsePolynomial.monomial(1, x=-1)):
        with pytest.raises(ValueError):
            bad.coefficients("x", 4)
