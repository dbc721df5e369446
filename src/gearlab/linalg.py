"""Exact linear algebra on sparse rows (dicts col -> entry, absent meaning
zero): the row-times-matrix product and unicyclic determinants over any
ring, `unicyclic_dets` of one support at a batch of diagonals (the support
analysed once, each diagonal one O(n) pass), the one modular determinant,
`det_mod`, of a batch of matrices over GF(p) that share one support, and
the one Schwartz-Zippel protocol, `identity_test`.  Floating-point linear
algebra goes to numpy."""

from __future__ import annotations

import heapq
import math
import random

PRIME = (1 << 61) - 1  # Mersenne prime, fits fast hardware arithmetic
# points per `evaluate` call of `identity_test`: the default 20 zeta trials
# are one elimination, and a long run holds O(TRIAL_BLOCK n) values
TRIAL_BLOCK = 32


def row_times(row, rows):
    """The sparse row sum_k row[k] rows[k], zero entries dropped."""
    out = {}
    for k, c in row.items():
        for j, e in rows[k].items():
            out[j] = out[j] + c * e if j in out else c * e
    return {j: e for j, e in out.items() if e}


def _unicyclic_plan(rows):
    """The diagonal-free half of `unicyclic_dets`: (peel, root, cycle, closing).

    ``peel`` lists (c, v, M[v][c] M[c][v]) per leaf c peeled into v, in
    Schwenk order.  A tree ends at ``root``, with cycle and closing None;
    else ``cycle`` lists (v_i, M[v_i][v_i-1] M[v_i-1][v_i]) around the one
    cycle and ``closing`` = prod M[i][i+1] + prod M[i+1][i].  Raises
    ValueError for a column index outside 0..n-1, a disconnected support
    or one with two cycles.
    """
    n = len(rows)
    nbrs = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j, e in row.items():
            if not 0 <= j < n:
                raise ValueError(f"column index {j} outside 0..{n - 1}")
            if e and j != i:
                nbrs[i].add(j)
                nbrs[j].add(i)
    seen, todo = {0}, [0]
    while todo and n:
        for u in nbrs[todo.pop()] - seen:
            seen.add(u)
            todo.append(u)
    if n == 0 or len(seen) < n:
        raise ValueError("support is not connected")
    if sum(map(len, nbrs)) > 2 * n:
        raise ValueError("support has more than one cycle")

    peel, leaves = [], [v for v in range(n) if len(nbrs[v]) <= 1]
    while leaves:
        c = leaves.pop()
        if not nbrs[c]:
            return peel, c, None, None      # the support was a tree
        (v,) = nbrs[c]
        nbrs[v].remove(c)
        nbrs[c].clear()
        peel.append((c, v, rows[v].get(c, 0) * rows[c].get(v, 0)))
        if len(nbrs[v]) == 1:
            leaves.append(v)

    cycle = [next(v for v in range(n) if nbrs[v])]
    cycle.append(min(nbrs[cycle[0]]))
    while cycle[-1] != cycle[0]:
        (nxt,) = nbrs[cycle[-1]] - {cycle[-2]}
        cycle.append(nxt)
    cycle.pop()
    forward = backward = 1
    for v, w in zip(cycle, cycle[1:] + cycle[:1]):
        forward, backward = forward * rows[v].get(w, 0), backward * rows[w].get(v, 0)
    pairs = [(v, rows[v].get(u, 0) * rows[u].get(v, 0))
             for u, v in zip(cycle[-1:] + cycle[:-1], cycle)]
    return peel, None, pairs, forward + backward


def unicyclic_dets(rows, diagonals):
    """Exact determinants of the matrices ``rows`` with each diagonal in turn.

    Rows are sparse, dicts col -> ring element (SparsePolynomial, int, ...)
    with absent meaning zero, and their own diagonal entries are ignored:
    matrix k has diagonals[k][v] at (v, v).  The support joins i != j when
    M[i][j] or M[j][i] is nonzero and must be a tree or have one cycle.
    Its analysis is done once, before any diagonal is read: the checks,
    the leaf order, the cycle and every product of off-diagonal entries.
    Each diagonal then costs one O(n) pass.  Schwenk's recursion peels the
    leaves, alpha_v being the determinant of the peeled subtree at v and
    beta_v that of the subtree minus v: leaf c peels into v as
    alpha_v <- alpha_v alpha_c - M[v][c] M[c][v] beta_v beta_c and
    beta_v <- beta_v alpha_c.  The cycle v_0 ... v_{m-1} left over closes
    with the periodic tridiagonal transfer product (Molinari, LAA 429
    (2008) 2221): tr prod [[alpha_i, -M[i][i-1] M[i-1][i] beta_i],
    [beta_i, 0]] + (-1)^(m+1) (prod M[i][i+1] + prod M[i+1][i]) prod beta_i.
    Raises ValueError for a column index outside 0..n-1, a disconnected
    support, one with two cycles, or a diagonal that does not hold n values.
    """
    peel, root, cycle, closing = _unicyclic_plan(rows)
    n, dets = len(rows), []
    for diagonal in diagonals:
        alpha, beta = list(diagonal), [1] * n
        if len(alpha) != n:
            raise ValueError(f"diagonal of length {len(alpha)}, not {n}")
        for c, v, pair in peel:
            alpha[v] = alpha[v] * alpha[c] - pair * beta[v] * beta[c]
            beta[v] = beta[v] * alpha[c]
        if cycle is None:
            dets.append(alpha[root])
            continue
        (p00, p01), (p10, p11) = (1, 0), (0, 1)
        betas = 1
        for v, pair in cycle:
            a, b = alpha[v], beta[v]
            q = pair * b
            p00, p01, p10, p11 = a * p00 - q * p10, a * p01 - q * p11, b * p00, b * p01
            betas = betas * b
        closed = closing * betas
        dets.append(p00 + p11 + (closed if len(cycle) % 2 else -closed))
    return dets


def unicyclic_det(rows):
    """`unicyclic_dets` of the rows with their own diagonal."""
    return unicyclic_dets(rows, [[row.get(v, 0) for v, row in enumerate(rows)]])[0]


def permutation_sign(perm) -> int:
    """Sign of the permutation i -> perm[i] of range(n), in O(n).

    Puts one element in place per transposition, which flips the sign.
    """
    perm, sign = list(perm), 1
    for r in range(len(perm)):
        while perm[r] != r:
            c = perm[r]
            perm[r], perm[c] = perm[c], c
            sign = -sign
    return sign


def det_mod(rows, p, width):
    """Determinants over GF(p) of ``width`` matrices of one sparse support.

    Each row is a dict col -> lane list, the entry of every matrix at that
    position, one int per matrix ("lane"); an entry absent, or 0 in every
    lane, is zero.  Returns ``width`` residues, lane k the determinant of
    matrix k.  Rows may share lane lists: each distinct list is checked
    and reduced mod p once, and neither the rows nor the lists are
    changed.  The support, the column sets and the heap are kept once
    for all lanes, and the arithmetic runs lane-wise.  Each step eliminates
    the live column with the fewest nonzeros (kept in a lazy heap),
    pivoting on its diagonal entry when that is nonzero in every lane and
    else on its shortest row that is; if no row is, the lanes cannot share
    this step, and each lane is evaluated alone, at width 1, from the
    given rows (at width 1 every live row of the column serves).  Updates
    are division-free, row_i <- piv row_i - a_ic row_r.  The pivot rows,
    ordered by step, are triangular in the pivot columns, so the updated
    matrix has det = sign(row -> column) prod(pivots) in each lane, and a
    step that updates k rows scaled it by piv^k: only the net factor
    piv^(1-k) of a step is kept, nothing for a pendant pivot (k = 1), piv
    into ``det`` for k = 0 and piv^(k-1) into ``scale`` for k >= 2, and
    ``scale`` is divided out at the end with one modular inverse for all
    lanes (Montgomery's batch inversion, Math. Comp. 48 (1987) 243).  A
    determinant does not depend on the pivot order, so every lane is its
    own matrix's.  Eliminating a pendant vertex of the support makes no
    fill (Parter, SIAM Rev. 3 (1961)) and the fewest-nonzeros column
    (Markowitz, Manag. Sci. 3 (1957)) finds those first, so a tree or a
    single cycle with pendant paths costs O(n) row operations.  Raises
    ValueError for a column index outside 0..n-1 or a lane list that does
    not hold ``width`` values.
    """
    n, reduced = len(rows), {}     # id(lane list) -> its residues, None if all 0
    for row in rows:
        for j, lanes in row.items():
            if not 0 <= j < n:
                raise ValueError(f"column index {j} outside 0..{n - 1}")
            if id(lanes) not in reduced:
                if len(lanes) != width:
                    raise ValueError(f"lane list of length {len(lanes)}, not width {width}")
                v = [e % p for e in lanes]
                reduced[id(lanes)] = v if any(v) else None
    given, rows = rows, [{j: v for j, lanes in row.items() if (v := reduced[id(lanes)])}
                         for row in rows]
    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [(len(col), j) for j, col in enumerate(cols)]
    heapq.heapify(heap)
    pivot_col, det, scale = [0] * n, [1] * width, [1] * width
    for _ in range(n):
        count, c = heapq.heappop(heap)
        while cols[c] is None or count != len(cols[c]):
            count, c = heapq.heappop(heap)
        if not count:
            return [0] * width
        live, cols[c] = cols[c], None
        if c in live and all(rows[c][c]):
            r = c
        else:
            r = min((i for i in live if all(rows[i][c])), key=lambda i: len(rows[i]), default=None)
            if r is None:
                return [det_mod([{j: [e[k]] for j, e in row.items()} for row in given], p, 1)[0]
                        for k in range(width)]
        live.remove(r)
        pivot_row = rows[r]
        piv = pivot_row.pop(c)
        pivot_col[r] = c
        if not live:
            det = [d * q % p for d, q in zip(det, piv)]
        elif len(live) > 1:
            scale = [s * pow(q, len(live) - 1, p) % p for s, q in zip(scale, piv)]
        for j in pivot_row:
            cols[j].remove(r)
        for i in live:
            row = rows[i]
            a = row.pop(c)
            for j, w in row.items():
                v = pivot_row.get(j)
                row[j] = ([f * q % p for f, q in zip(w, piv)] if v is None else
                          [(f * q - b * e) % p for f, q, b, e in zip(w, piv, a, v)])
            # only the entries that the pivot row meets can cancel or fill
            for j, v in pivot_row.items():
                w = row.get(j)
                if w is None:
                    w = [-b * e % p for b, e in zip(a, v)]
                    if any(w):
                        row[j] = w
                        cols[j].add(i)
                elif not any(w):
                    del row[j]
                    cols[j].remove(i)
        for j in pivot_row:
            heapq.heappush(heap, (len(cols[j]), j))
    sign = permutation_sign(pivot_col)
    # 1/s_k = (s_0 ... s_(k-1)) / (s_0 ... s_k): one inverse, taken of the
    # whole product, then peeled back one lane at a time
    before = [1]
    for s in scale:
        before.append(before[-1] * s % p)
    inv, out = pow(before.pop(), -1, p), [0] * width
    for k in range(width - 1, -1, -1):
        out[k] = sign * det[k] * before[k] * inv % p
        inv = inv * scale[k] % p
    return out


def identity_bounds(degree: int, trials: int, seed: int) -> dict:
    """`identity_test`'s report before any point is drawn: the degree bound
    "n", the trials, PRIME, the seed and the bounds on a false "equivalent"
    verdict.  Raises ValueError for trials < 1."""
    if trials < 1:
        raise ValueError("need at least one trial")
    # (degree / PRIME) ** trials underflows to 0.0, so only its log10 is reported
    return {"n": degree, "trials": trials, "prime": PRIME, "seed": seed,
            "per_trial_bound": degree / PRIME, "failure_bound_log10":
            trials * (math.log10(degree) - math.log10(PRIME)) if degree else -math.inf}


def identity_test(draw, evaluate, degree: int, trials: int, seed: int) -> dict:
    """Schwartz-Zippel test of two polynomials of total degree <= ``degree``
    (Schwartz, J. ACM 27 (1980) 701; Zippel, EUROSAM 1979).

    ``draw(rng)`` gives a point, a tuple of coordinates from range(PRIME),
    from one Random(seed), and ``evaluate(points)`` the two polynomials'
    values (values_1, values_2) at a block of TRIAL_BLOCK points, one value
    per point (else ValueError).  The first block with a difference ends
    the test, and the report gives its first differing point, the one a
    point-by-point loop stops at.  Distinct polynomials (distinct mod PRIME
    where the values are residues) agree at a random point with probability
    at most degree / PRIME, so a false "equivalent-with-bound" has
    probability at most that to the power ``trials``.
    """
    report = identity_bounds(degree, trials, seed)
    rng = random.Random(seed)
    for start in range(0, trials, TRIAL_BLOCK):
        points = [draw(rng) for _ in range(min(TRIAL_BLOCK, trials - start))]
        for point, a, b in zip(points, *evaluate(points), strict=True):
            if a != b:
                return {**report, "verdict": "distinguished", "distinguishing_point": list(point)}
    return {**report, "verdict": "equivalent-with-bound"}
