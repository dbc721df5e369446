"""Oracle checks for the exact determinant kernel, and the exact rank and
Horner helpers that other test modules import."""

import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from gearlab.linalg import unicyclic_det
from gearlab.polynomials import SparsePolynomial

X = SparsePolynomial.variable("x")


def fraction_rank(mat) -> int:
    """Exact rank of a matrix with Fraction (or int) entries."""
    a = [[Fraction(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def sparse(mat):
    """Sparse rows of a dense matrix; zero entries stay explicit."""
    return [dict(enumerate(row)) for row in mat]


def poly_eval(coeffs, x):
    """Horner evaluation of ascending coefficients (exact for Fraction input)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def random_unicyclic_edges(rng, n, m):
    """Edges of a random m-cycle with n - m pendant vertices (a tree if m = 0)."""
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(rng.randrange(v), v) for v in range(max(m, 1), n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a, b in edges]


def leibniz_det(rows):
    """sum over permutations p of sign(p) prod_i rows[i][p[i]], zero products skipped."""
    total = 0
    for perm in permutations(range(len(rows))):
        entries = [rows[i][j] for i, j in enumerate(perm)]
        if all(entries):
            term = (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
            for e in entries:
                term = e * term
            total = total + term
    return total


def random_multivariate_pencil(rng, n, m):
    """Entries in (x, alpha, beta) on a random m-cycle with pendant trees."""
    al, be = SparsePolynomial.variable("alpha"), SparsePolynomial.variable("beta")
    rows = [[SparsePolynomial.zero()] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = X * rng.randint(0, 2) + al * rng.randint(-2, 2) - rng.randint(-2, 2)
    for u, v in random_unicyclic_edges(rng, n, m):
        rows[u][v] = al * rng.randint(1, 3) + be * rng.randint(-1, 1)
        rows[v][u] = be * rng.randint(-2, 2)
    return rows


def pencil_charpoly(d, w):
    """Ascending coefficients of det(x*D - W) through unicyclic_det over Z[x]."""
    n = len(d)
    rows = [[X * d[i][j] - w[i][j] for j in range(n)] for i in range(n)]
    coeffs = [0] * (n + 1)
    for exps, c in unicyclic_det(sparse(rows)).terms.items():
        coeffs[exps[0]] = c
    return coeffs


def test_unicyclic_det_known_determinants():
    assert unicyclic_det(sparse([[5]])) == 5
    assert unicyclic_det(sparse([[1, 2], [3, 4]])) == -2
    assert unicyclic_det(sparse([[0, 1], [1, 0]])) == -1
    assert unicyclic_det(sparse([[1, 2], [2, 4]])) == 0
    # permutation matrix of a 4-cycle has determinant -1
    p = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    assert unicyclic_det(sparse(p)) == -1
    # and of a 3-cycle +1, with absent entries and with explicit zeros
    assert unicyclic_det([{1: 1}, {2: 1}, {0: 1}]) == 1
    assert unicyclic_det([{0: 0, 1: 1, 2: 0}, {0: 0, 1: 0, 2: 1}, {0: 1, 1: 0, 2: 0}]) == 1
    assert unicyclic_det([{1: X, 2: X * 0}, {2: 1, 0: SparsePolynomial.zero()}, {0: 1}]) == X


def test_unicyclic_det_matches_float_det_on_random_integers():
    rng = random.Random(7)
    for m in (0, 3, 4, 5, 6, 7):
        for _ in range(6):
            n = rng.randint(max(m, 2), 9)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                a[i][i] = rng.randint(-5, 5)
            for u, v in random_unicyclic_edges(rng, n, m):
                a[u][v] = rng.choice((-3, -2, -1, 1, 2, 3))
                a[v][u] = rng.randint(-3, 3)
            assert unicyclic_det(sparse(a)) == round(np.linalg.det(np.array(a, dtype=float)))


def test_unicyclic_det_matches_leibniz_expansion():
    # a random pencil in (x, alpha, beta) on the support, up to 7 vertices
    rng = random.Random(19)
    for m in (0, 3, 4, 5, 6, 7):
        for _ in range(3):
            rows = random_multivariate_pencil(rng, rng.randint(max(m, 2), 7), m)
            assert unicyclic_det(sparse(rows)) == leibniz_det(rows)


def test_unicyclic_det_rejects_other_supports():
    # a matrix that is not square has a column outside 0..n-1
    with pytest.raises(ValueError, match="outside"):
        unicyclic_det(sparse([[1, 2]]))
    with pytest.raises(ValueError, match="outside"):
        unicyclic_det([{0: 1, 1: 2}, {0: 3, -1: 4}])
    with pytest.raises(ValueError, match="outside"):
        unicyclic_det([{0: 1, 2: 0}, {1: 1}])
    with pytest.raises(ValueError, match="connected"):
        unicyclic_det(sparse([[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="connected"):
        unicyclic_det([])
    # two triangles sharing the edge 0-1
    theta = [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 1]]
    with pytest.raises(ValueError, match="more than one cycle"):
        unicyclic_det(sparse(theta))


def test_pencil_charpoly_identity_pencil():
    # det(x I - companion([0,-1])) for the 2x2 rotation generator
    d = [[1, 0], [0, 1]]
    w = [[0, 1], [-1, 0]]
    assert pencil_charpoly(d, w) == [1, 0, 1]  # x^2 + 1
    assert pencil_charpoly([[1]], [[1]]) == [-1, 1]  # x - 1


def test_pencil_charpoly_recovers_companion_polynomial():
    # det(x*a*I - a*Comp(p)) = a^n p(x); the companion matrix of x^n - c is
    # a directed n-cycle, so these are the unicyclic companion pencils
    for n, c in ((3, 2), (4, -5), (5, 1), (6, 7), (7, -3)):
        p = [-c] + [0] * (n - 1) + [1]
        comp = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
        comp[0][n - 1] = c
        for a in (1, 3):
            d = [[a if i == j else 0 for j in range(n)] for i in range(n)]
            w = [[a * x for x in row] for row in comp]
            assert pencil_charpoly(d, w) == [a ** n * coeff for coeff in p]


def test_fraction_rank():
    assert fraction_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert fraction_rank([[1, 0], [0, 1]]) == 2
    assert fraction_rank([[0, 0], [0, 0]]) == 0
    assert fraction_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
