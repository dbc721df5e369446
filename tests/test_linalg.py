"""Oracle checks for the exact linear algebra kernels."""

from fractions import Fraction

import numpy as np

from gearlab.linalg import bareiss_det, fraction_rank, pencil_charpoly


def test_bareiss_known_determinants():
    assert bareiss_det([[5]]) == 5
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    # permutation matrix of a 4-cycle has determinant -1
    p = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    assert bareiss_det(p) == -1


def test_bareiss_matches_float_det_on_random_integers():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(-9, 10, size=(6, 6))
        assert bareiss_det(m.tolist()) == round(np.linalg.det(m))


def test_pencil_charpoly_identity_pencil():
    # det(x I - companion([0,-1])) for the 2x2 rotation generator
    d = [[1, 0], [0, 1]]
    w = [[0, 1], [-1, 0]]
    assert pencil_charpoly(d, w) == [1, 0, 1]  # x^2 + 1
    assert pencil_charpoly([[1]], [[1]]) == [-1, 1]  # x - 1


def test_pencil_charpoly_recovers_companion_polynomial():
    # det(x*a*I - a*Comp(p)) = a^n p(x) for the companion matrix of monic p;
    # (x-1)...(x-6) vanishes at every sample node but x = 0
    for p in ([3, -1, 0, 2, 1], [0, 0, 0, 1], [-720, 1764, -1624, 735, -175, 21, 1]):
        n = len(p) - 1
        comp = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            comp[i][n - 1] = -p[i]
        for a in (1, 3):
            d = [[a if i == j else 0 for j in range(n)] for i in range(n)]
            w = [[a * x for x in row] for row in comp]
            assert pencil_charpoly(d, w) == [a ** n * c for c in p]


def test_fraction_rank():
    assert fraction_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert fraction_rank([[1, 0], [0, 1]]) == 2
    assert fraction_rank([[0, 0], [0, 0]]) == 0
    assert fraction_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
