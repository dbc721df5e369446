"""Oracle checks for the exact determinant kernels, and the exact rank,
determinant and Horner helpers that other test modules import."""

import copy
import importlib.util
import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from gearlab import linalg
from gearlab.linalg import (TRIAL_BLOCK, det_mod, identity_bounds, identity_test,
                            permutation_sign, unicyclic_det, unicyclic_dets)
from gearlab.polynomials import SparsePolynomial
from gearlab.zeta import PRIME

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


def random_pencil_diagonal(rng, n):
    """n random diagonal entries in (x, alpha)."""
    al = SparsePolynomial.variable("alpha")
    return [X * rng.randint(0, 2) + al * rng.randint(-2, 2) - rng.randint(-2, 2)
            for _ in range(n)]


def random_multivariate_pencil(rng, n, m):
    """Entries in (x, alpha, beta) on a random m-cycle with pendant trees."""
    al, be = SparsePolynomial.variable("alpha"), SparsePolynomial.variable("beta")
    rows = [[SparsePolynomial.zero()] * n for _ in range(n)]
    for i, d in enumerate(random_pencil_diagonal(rng, n)):
        rows[i][i] = d
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


def bareiss_det(mat):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


@st.composite
def square_matrices(draw):
    """Dense, sparse or singular integer matrices of size 0 to 9."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["dense", "sparse", "singular"]))
    entry = st.integers(-9, 9) | st.integers(-(1 << 70), 1 << 70)
    if kind == "sparse":
        entry = st.sampled_from([0, 0, 0, 0, 1, -1]) | entry
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "singular" and n:
        # one row a combination of the others, at a random position
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        others = mat[:-1]
        combo = [sum(c * row[j] for c, row in zip(coeffs, others)) for j in range(n)]
        others.insert(draw(st.integers(0, n - 1)), combo)
        mat = others
    return mat


def lane_rows(mats):
    """Sparse lane rows of equal-size matrices: entry (i, j) holds the
    matrices' (i, j) entries, and is absent where every one is 0."""
    n = len(mats[0])
    return [{j: lanes for j in range(n) if any(lanes := [m[i][j] for m in mats])}
            for i in range(n)]


@settings(deadline=None, max_examples=200)
@given(square_matrices(), st.sampled_from([2, 3, 5, 7, PRIME]))
def test_det_mod_matches_exact_determinant(mat, p):
    # one lane: small primes force zero pivots, off-diagonal pivot rows and
    # odd signs
    rows = [{j: [v] for j, v in enumerate(row)} for row in mat]
    assert det_mod(rows, p, 1) == [bareiss_det(mat) % p]


@st.composite
def same_support_matrices(draw):
    """2 to 5 integer matrices of size 1 to 7 whose nonzeros lie on one
    random support; an entry on the support may still be 0 in some."""
    n = draw(st.integers(1, 7))
    support = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                            min_size=n, max_size=n))
    entry = st.integers(-9, 9) | st.integers(-(1 << 70), 1 << 70)
    width = draw(st.integers(2, 5))
    return [[[draw(entry) if support[i][j] else 0 for j in range(n)] for i in range(n)]
            for _ in range(width)]


@settings(deadline=None, max_examples=200)
@given(same_support_matrices(), st.sampled_from([2, 3, 5, 7, PRIME]))
def test_det_mod_lanes_match_exact_determinants(mats, p):
    # several lanes: every lane is its own matrix's determinant, as it is
    # one lane at a time
    expected = [bareiss_det(m) % p for m in mats]
    assert det_mod(lane_rows(mats), p, len(mats)) == expected
    assert [det_mod(lane_rows([m]), p, 1)[0] for m in mats] == expected


def test_det_mod_gives_every_lane_its_own_determinant(monkeypatch):
    # lane 0 is the identity and lane 1 swaps the two coordinates: every
    # entry is 0 in one of them, so no pivot serves both lanes, and each
    # lane is evaluated alone from the given rows
    widths = []

    def spy(rows, p, width):
        widths.append(width)
        return det_mod(rows, p, width)

    monkeypatch.setattr(linalg, "det_mod", spy)
    mats = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    assert det_mod(lane_rows(mats), PRIME, 2) == [1, PRIME - 1]
    assert widths == [1, 1]
    # an entry 0 in every lane is dropped; an all-zero column gives 0s
    assert det_mod([{0: [0, 0]}], PRIME, 2) == [0, 0]
    assert det_mod([], PRIME, 3) == [1, 1, 1]


@st.composite
def pivotless_lanes(draw):
    """2 to 6 integer matrices of size 2 to 7 that share no pivot: one
    has a zero diagonal, one is diagonal with no zero on it, and the
    others, in a random lane order, are any matrices of the same size."""
    n = draw(st.integers(2, 7))
    entry = st.integers(-9, 9) | st.integers(-(1 << 70), 1 << 70)
    nonzero = entry.filter(bool)
    hollow = [[0 if i == j else draw(entry) for j in range(n)] for i in range(n)]
    diagonal = [[draw(nonzero) if i == j else 0 for j in range(n)] for i in range(n)]
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(st.permutations([hollow, diagonal, *draw(st.lists(square, max_size=4))]))


@settings(deadline=None, max_examples=200)
@given(pivotless_lanes(), st.sampled_from([2, 3, 5, 7, PRIME]))
def test_det_mod_lanes_without_a_shared_pivot_match_exact_determinants(mats, p):
    # the first column eliminated has its diagonal 0 in the hollow lane
    # and its other rows 0 in the diagonal lane, so every lane is
    # evaluated alone
    assert det_mod(lane_rows(mats), p, len(mats)) == [bareiss_det(m) % p for m in mats]


@st.composite
def shared_lane_rows(draw):
    """(rows, p, width): lane rows of size 1 to 7 and width 1 to 5 whose
    entries are drawn from a pool of 1 to 4 shared list objects, their
    values unreduced, negative, or 0 mod p in some lanes.  The supports
    are paths (pendant pivots update one row), stars and dense blocks
    (pivots update several) or random, with or without the diagonal; the
    last step updates no row, and lanes that share no pivot go through
    the width-1 fallback."""
    p = draw(st.sampled_from([2, 3, 5, 7, PRIME]))
    width, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    value = (st.integers(-9, 9) | st.sampled_from([p, -p, 3 * p + 1])
             | st.integers(-(1 << 70), 1 << 70))
    pool = draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=4))
    shape = draw(st.sampled_from(["path", "star", "dense", "random"]))
    if shape == "path":
        support = {(i, i + 1) for i in range(n - 1)} | {(i + 1, i) for i in range(n - 1)}
    elif shape == "star":
        support = {(0, i) for i in range(n)} | {(i, 0) for i in range(n)}
    elif shape == "dense":
        support = {(i, j) for i in range(n) for j in range(n)}
    else:
        support = {(i, j) for i in range(n) for j in range(n) if draw(st.booleans())}
    if draw(st.booleans()):
        support |= {(i, i) for i in range(n)}
    rows = [{} for _ in range(n)]
    for i, j in sorted(support):
        rows[i][j] = draw(st.sampled_from(pool))
    return rows, p, width


ZERO_MOD_3, ONE = [3], [1]


@settings(deadline=None, max_examples=300)
@given(shared_lane_rows())
# the unreduced diagonal [3] is 0 mod 3: it must not be a pivot, and the
# determinant (2 mod 3) is nonzero
@example(([{0: ZERO_MOD_3, 1: ONE, 2: ONE}, {0: ONE, 1: ZERO_MOD_3, 2: ONE},
           {0: ONE, 1: ONE, 2: ZERO_MOD_3}], 3, 1))
def test_det_mod_with_shared_lane_lists_matches_exact_determinants(case):
    # lane lists shared between entries are reduced once and never
    # updated in place: every lane is its own matrix's determinant, and
    # the rows and lists are as given
    rows, p, width = case
    before = copy.deepcopy(rows)
    mats = [[[row[j][k] if j in row else 0 for j in range(len(rows))] for row in rows]
            for k in range(width)]
    assert det_mod(rows, p, width) == [bareiss_det(m) % p for m in mats]
    assert rows == before


def test_det_mod_rejects_malformed_rows():
    # a lane list of the wrong length, and column indices outside 0..n-1
    # (a negative one would index the column sets from the end)
    with pytest.raises(ValueError, match="lane list of length 2, not width 3"):
        det_mod([{0: [1, 2]}], 7, 3)
    with pytest.raises(ValueError, match="lane list of length 2, not width 1"):
        det_mod([{0: [1]}, {1: [1, 2]}], 7, 1)
    with pytest.raises(ValueError, match=r"column index 1 outside 0\.\.0"):
        det_mod([{1: [1]}], 7, 1)
    with pytest.raises(ValueError, match=r"column index -1 outside 0\.\.1"):
        det_mod([{0: [1]}, {-1: [0]}], 7, 1)


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None, reason="sympy not installed")
@settings(deadline=None, max_examples=200)
@given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))))
def test_permutation_sign_matches_sympy(perm):
    from sympy.combinatorics import Permutation
    assert permutation_sign(perm) == Permutation(list(perm), size=len(perm)).signature()


# ---------------------------------------------------------------------------
# the Schwartz-Zippel protocol
# ---------------------------------------------------------------------------

def two_coordinates(rng):
    return rng.randrange(PRIME), rng.randrange(PRIME)


@pytest.mark.parametrize("trials, index", [(20, 2), (2 * TRIAL_BLOCK + 1, TRIAL_BLOCK + 2)])
def test_identity_test_reports_the_one_differing_point(trials, index):
    """The sides differ only at the drawn point ``index`` (the 3rd, or the
    3rd of the second block): that point is reported, after one
    `evaluate` call per block up to its own."""
    rng = random.Random(5)
    target = [two_coordinates(rng) for _ in range(index + 1)][-1]
    widths = []

    def evaluate(points):
        widths.append(len(points))
        return [0] * len(points), [int(pt == target) for pt in points]

    report = identity_test(two_coordinates, evaluate, 9, trials, 5)
    assert report == {**identity_bounds(9, trials, 5), "verdict": "distinguished",
                      "distinguishing_point": list(target)}
    assert widths == [TRIAL_BLOCK] * (index // TRIAL_BLOCK) + [min(TRIAL_BLOCK, trials)]


def test_identity_test_equal_sides_and_bounds():
    widths = []

    def evaluate(points):
        widths.append(len(points))
        return [pt[0] for pt in points], [pt[0] for pt in points]

    report = identity_test(two_coordinates, evaluate, 12, 2 * TRIAL_BLOCK + 1, 0)
    assert report["verdict"] == "equivalent-with-bound" and "distinguishing_point" not in report
    assert widths == [TRIAL_BLOCK, TRIAL_BLOCK, 1]
    assert report["per_trial_bound"] == 12 / PRIME
    assert report["failure_bound_log10"] == pytest.approx((2 * TRIAL_BLOCK + 1)
                                                          * math.log10(12 / PRIME))
    assert (report["n"], report["prime"], report["seed"]) == (12, PRIME, 0)


@pytest.mark.parametrize("trials", [0, -1])
def test_identity_test_needs_a_trial(trials):
    def evaluate(points):
        raise AssertionError("no point may be evaluated")

    with pytest.raises(ValueError, match="at least one trial"):
        identity_test(two_coordinates, evaluate, 3, trials, 0)


def test_identity_test_rejects_a_short_evaluation():
    with pytest.raises(ValueError):
        identity_test(two_coordinates, lambda points: ([0] * len(points), [0]), 3, 4, 0)


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


def with_diagonal(rows, diagonal):
    """Copies of dense rows with ``diagonal`` on the diagonal."""
    return [row[:i] + [d] + row[i + 1:] for i, (row, d) in enumerate(zip(rows, diagonal))]


def singular_diagonal(rows):
    """The diagonal that makes every row sum to zero: M 1 = 0, so det M = 0."""
    return [sum((-e for j, e in enumerate(row) if j != i), start=0 * row[i])
            for i, row in enumerate(rows)]


def test_unicyclic_det_matches_float_det_on_random_integers():
    # each support at its own diagonal, then at three more in one call: two
    # random and one with zero row sums; every other support has an entry
    # that is zero in one direction only
    rng = random.Random(7)
    for m in (0, 3, 4, 5, 6, 7):
        for trial in range(6):
            n = rng.randint(max(m, 2), 9)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                a[i][i] = rng.randint(-5, 5)
            for k, (u, v) in enumerate(random_unicyclic_edges(rng, n, m)):
                a[u][v] = rng.choice((-3, -2, -1, 1, 2, 3))
                a[v][u] = 0 if k == 0 and trial % 2 else rng.randint(-3, 3)
            assert unicyclic_det(sparse(a)) == round(np.linalg.det(np.array(a, dtype=float)))
            diagonals = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(2)]
            diagonals.append(singular_diagonal(a))
            dets = unicyclic_dets(sparse(a), diagonals)
            assert dets[-1] == 0
            for diagonal, det in zip(diagonals, dets, strict=True):
                assert det == round(np.linalg.det(np.array(with_diagonal(a, diagonal), dtype=float)))


def test_unicyclic_det_matches_leibniz_expansion():
    # a random pencil in (x, alpha, beta) on the support, up to 7 vertices, at
    # its own diagonal, then at three more in one call as above
    rng = random.Random(19)
    for m in (0, 3, 4, 5, 6, 7):
        for trial in range(3):
            rows = random_multivariate_pencil(rng, rng.randint(max(m, 2), 7), m)
            if trial % 2:
                u, v = next((u, v) for u, row in enumerate(rows) for v, e in enumerate(row)
                            if u != v and e)
                rows[v][u] = SparsePolynomial.zero()
            assert unicyclic_det(sparse(rows)) == leibniz_det(rows)
            diagonals = [random_pencil_diagonal(rng, len(rows)) for _ in range(2)]
            diagonals.append(singular_diagonal(rows))
            dets = unicyclic_dets(sparse(rows), diagonals)
            assert dets[-1] == 0
            for diagonal, det in zip(diagonals, dets, strict=True):
                assert det == leibniz_det(with_diagonal(rows, diagonal))


class Unread:
    """Diagonals that fail the test when read."""

    def __iter__(self):
        raise AssertionError("no diagonal may be read")


def test_unicyclic_det_rejects_other_supports():
    # unicyclic_dets rejects the support before it reads any diagonal
    for det in (unicyclic_det, lambda rows: unicyclic_dets(rows, Unread())):
        # a matrix that is not square has a column outside 0..n-1
        with pytest.raises(ValueError, match="outside"):
            det(sparse([[1, 2]]))
        with pytest.raises(ValueError, match="outside"):
            det([{0: 1, 1: 2}, {0: 3, -1: 4}])
        with pytest.raises(ValueError, match="outside"):
            det([{0: 1, 2: 0}, {1: 1}])
        with pytest.raises(ValueError, match="connected"):
            det(sparse([[1, 0], [0, 1]]))
        with pytest.raises(ValueError, match="connected"):
            det([])
        # two triangles sharing the edge 0-1
        theta = [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 1]]
        with pytest.raises(ValueError, match="more than one cycle"):
            det(sparse(theta))


def test_unicyclic_dets_ignore_the_rows_diagonal():
    rows = sparse([[7, 2, 0], [3, 7, 1], [0, 5, 7]])
    assert unicyclic_dets(rows, []) == []
    assert unicyclic_dets(rows, [[1, 0, 0], [0, 0, 0], [7, 7, 7]]) == [-5, 0, unicyclic_det(rows)]
    with pytest.raises(ValueError, match="diagonal of length 2, not 3"):
        unicyclic_dets(rows, [[1, 2, 3], [1, 2]])


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
