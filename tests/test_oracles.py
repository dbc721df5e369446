"""Independent oracles (sympy, mpmath) for the exact and float walk kernels.

sympy recomputes the characteristic polynomials and pencil determinants
symbolically; mpmath recomputes the walk spectrum at 50 digits.  Both are
test-only dependencies.
"""

import random
from fractions import Fraction

import pytest

from gearlab import (GearSpec, build_gear, characteristic_polynomial_exact,
                     markov_matrix, markov_spectrum, subdivide)
from gearlab.linalg import pencil_charpoly

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix

# (lengths, attachments); subdivision sizes 6 to 18
GEARS = [
    ((1, 1, 1), None),
    ((1, 2, 3), None),
    ((2, 2, 3), None),
    ((1, 2, 1, 3), None),
    ((1, 1, 2, 2, 3), None),
    ((1, 2, 3), ("tail", "head", "tail")),
    ((1, 2, 1, 3), ("head", "head", "tail", "tail")),
]
WEIGHTS = [Fraction(1, 2), Fraction(3, 2), Fraction(2)]


def gear_walk(lengths, attachments, w, mode="rational"):
    spec = GearSpec(len(lengths), lengths, "primal", attachments)
    return markov_matrix(subdivide(build_gear(spec)), w, mode)


def ascending(poly_expr, x, n):
    """Ascending integer/rational coefficients of a sympy expression, padded to n+1."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(poly_expr, x).all_coeffs())]
    return coeffs + [Fraction(0)] * (n + 1 - len(coeffs))


@pytest.mark.parametrize("lengths,attachments", GEARS)
@pytest.mark.parametrize("w", WEIGHTS, ids=str)
def test_charpoly_matches_sympy(lengths, attachments, w):
    ms = gear_walk(lengths, attachments, w)
    n = ms.size
    m = sympy.zeros(n, n)
    for v, row in enumerate(ms.rows):
        for u, p in row.items():
            m[v, u] = sympy.Rational(p.numerator, p.denominator)
    x = sympy.Symbol("x")
    expected = ascending(m.charpoly(x).as_expr(), x, n)
    assert characteristic_polynomial_exact(ms) == expected


def _random_pencil(rng, n, kind):
    w = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    if kind == "diagonal":
        d = [[rng.randint(1, 5) if i == j else 0 for j in range(n)] for i in range(n)]
    elif kind == "full":
        d = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    else:   # singular: the last row repeats the first, so deg det < n
        d = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d[-1] = list(d[0])
    return d, w


PENCIL_SEEDS = {"diagonal": 11, "full": 12, "singular": 13}


@pytest.mark.parametrize("kind", sorted(PENCIL_SEEDS))
def test_pencil_charpoly_matches_sympy(kind):
    rng = random.Random(PENCIL_SEEDS[kind])
    x = sympy.Symbol("x")
    for n in (1, 2, 3, 5, 7) if kind != "singular" else (2, 3, 5, 7):
        for _ in range(4):
            d, w = _random_pencil(rng, n, kind)
            pencil = DomainMatrix.from_Matrix(x * sympy.Matrix(d) - sympy.Matrix(w))
            expr = pencil.domain.to_sympy(pencil.convert_to(sympy.ZZ[x]).det())
            expected = ascending(expr, x, n)
            got = pencil_charpoly(d, w)
            assert len(got) == n + 1
            assert got == expected
            if kind == "singular":
                assert got[-1] == 0


def _mpf(q):
    return mpmath.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize("lengths,attachments", GEARS)
@pytest.mark.parametrize("w", WEIGHTS, ids=str)
def test_markov_spectrum_matches_mpmath(lengths, attachments, w):
    ms = gear_walk(lengths, attachments, w)
    n = ms.size
    with mpmath.workdps(50):
        s = mpmath.matrix(n, n)
        for v, row in enumerate(ms.adjacency):
            for u, wgt in row.items():
                s[v, u] = _mpf(wgt) / mpmath.sqrt(_mpf(ms.degrees[v] * ms.degrees[u]))
        exact = [float(e) for e in sorted(mpmath.eigsy(s, eigvals_only=True))]
    fvals, _ = markov_spectrum(gear_walk(lengths, attachments, float(w), "float"))
    rvals, _ = markov_spectrum(ms)
    for vals in (fvals, rvals):
        assert len(vals) == n
        assert max(abs(a - b) for a, b in zip(vals, exact)) < 1e-14
