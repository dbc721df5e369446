"""Exact linear algebra over any ring on sparse rows (dicts col -> entry, absent
meaning zero): the row-times-matrix product and unicyclic determinants.
Floating-point linear algebra goes to numpy."""

from __future__ import annotations


def row_times(row, rows):
    """The sparse row sum_k row[k] rows[k], zero entries dropped."""
    out = {}
    for k, c in row.items():
        for j, e in rows[k].items():
            out[j] = out[j] + c * e if j in out else c * e
    return {j: e for j, e in out.items() if e}


def unicyclic_det(rows):
    """Exact determinant of a matrix whose support is a tree or has one cycle.

    Rows are sparse, dicts col -> ring element (SparsePolynomial, int, ...)
    with absent meaning zero; the support joins i != j when M[i][j] or
    M[j][i] is nonzero.  Schwenk's recursion peels the leaves, alpha_v
    being the determinant of the peeled subtree at v and beta_v that of
    the subtree minus v: leaf c peels into v as
    alpha_v <- alpha_v alpha_c - M[v][c] M[c][v] beta_v beta_c and
    beta_v <- beta_v alpha_c.  The cycle v_0 ... v_{m-1} left over closes
    with the periodic tridiagonal transfer product (Molinari, LAA 429
    (2008) 2221): tr prod [[alpha_i, -M[i][i-1] M[i-1][i] beta_i],
    [beta_i, 0]] + (-1)^(m+1) (prod M[i][i+1] + prod M[i+1][i]) prod beta_i.
    Raises ValueError for a column index outside 0..n-1, a disconnected
    support or one with two cycles.
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

    alpha, beta = [rows[v].get(v, 0) for v in range(n)], [1] * n
    leaves = [v for v in range(n) if len(nbrs[v]) <= 1]
    while leaves:
        c = leaves.pop()
        if not nbrs[c]:
            return alpha[c]       # the support was a tree
        (v,) = nbrs[c]
        nbrs[v].remove(c)
        nbrs[c].clear()
        alpha[v] = alpha[v] * alpha[c] - rows[v].get(c, 0) * rows[c].get(v, 0) * beta[v] * beta[c]
        beta[v] = beta[v] * alpha[c]
        if len(nbrs[v]) == 1:
            leaves.append(v)

    cycle = [next(v for v in range(n) if nbrs[v])]
    cycle.append(min(nbrs[cycle[0]]))
    while cycle[-1] != cycle[0]:
        (nxt,) = nbrs[cycle[-1]] - {cycle[-2]}
        cycle.append(nxt)
    cycle.pop()
    (p00, p01), (p10, p11) = (1, 0), (0, 1)
    forward = backward = betas = 1
    for u, v, w in zip(cycle[-1:] + cycle[:-1], cycle, cycle[1:] + cycle[:1]):
        a, b = alpha[v], beta[v]
        q = rows[v].get(u, 0) * rows[u].get(v, 0) * b
        p00, p01, p10, p11 = a * p00 - q * p10, a * p01 - q * p11, b * p00, b * p01
        forward, backward = forward * rows[v].get(w, 0), backward * rows[w].get(v, 0)
        betas = betas * b
    closing = (forward + backward) * betas
    return p00 + p11 + (closing if len(cycle) % 2 else -closing)
