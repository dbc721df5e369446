"""Exact integer/rational linear algebra: Bareiss determinants, pencil
characteristic polynomials and ranks.  Floating-point work goes to numpy."""

from __future__ import annotations

from fractions import Fraction


def bareiss_det(mat):
    """Exact determinant of an integer matrix, fraction-free Bareiss elimination."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def pencil_charpoly(dmat, wmat):
    """Exact det(x*D - W) for integer matrices D, W, ascending coefficients.

    The determinant is sampled at x = 0..n by fraction-free elimination.
    The j-th forward difference of the samples divided by j! is the j-th
    Newton coefficient c_j of p(x) = c_0 + x(c_1 + (x-1)(c_2 + ...)); the
    division is exact because p has integer coefficients, and the nested
    form is expanded from the inside out, all in integers.
    """
    n = len(dmat)
    diffs = [bareiss_det([[x0 * dmat[i][j] - wmat[i][j] for j in range(n)]
                          for i in range(n)]) for x0 in range(n + 1)]
    newton = []
    fact = 1
    for j in range(n + 1):
        c, rem = divmod(diffs[0], fact)
        assert rem == 0
        newton.append(c)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        fact *= j + 1
    coeffs = [newton[n]]
    for j in range(n - 1, -1, -1):
        # coeffs <- newton[j] + (x - j) * coeffs
        coeffs = [0] + coeffs
        for t in range(len(coeffs) - 1):
            coeffs[t] -= j * coeffs[t + 1]
        coeffs[0] += newton[j]
    return coeffs


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


def poly_eval(coeffs, x):
    """Horner evaluation of ascending coefficients (exact for Fraction input)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
