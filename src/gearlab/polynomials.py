"""Sparse multivariate polynomials with big-integer coefficients.

Exponent keys are 6-tuples over the fixed variable order
(x, y, alpha, beta, gamma, delta); zero coefficients are never stored.
Enough arithmetic for exact pencil determinants and identity checks --
not a general computer algebra system.
"""

from __future__ import annotations

VARIABLES = ("x", "y", "alpha", "beta", "gamma", "delta")
NVARS = len(VARIABLES)
_ZERO_EXP = (0,) * NVARS


class SparsePolynomial:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({_ZERO_EXP: int(c)})

    @classmethod
    def variable(cls, name):
        idx = VARIABLES.index(name)
        exps = [0] * NVARS
        exps[idx] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def monomial(cls, coeff, **powers):
        exps = [0] * NVARS
        for name, p in powers.items():
            exps[VARIABLES.index(name)] = p
        return cls({tuple(exps): int(coeff)})

    # -- ring operations ----------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = SparsePolynomial.constant(other)
        return isinstance(other, SparsePolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = SparsePolynomial.constant(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        res = SparsePolynomial.__new__(SparsePolynomial)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = SparsePolynomial.__new__(SparsePolynomial)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, int):
            other = SparsePolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return SparsePolynomial.zero()
            res = SparsePolynomial.__new__(SparsePolynomial)
            res.terms = {e: c * other for e, c in self.terms.items()}
            return res
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exps, 0) + c1 * c2
                if s:
                    out[exps] = s
                else:
                    out.pop(exps, None)
        res = SparsePolynomial.__new__(SparsePolynomial)
        res.terms = out
        return res

    __rmul__ = __mul__

    # -- queries --------------------------------------------------------
    def coefficient(self, **powers):
        exps = [0] * NVARS
        for name, p in powers.items():
            exps[VARIABLES.index(name)] = p
        return self.terms.get(tuple(exps), 0)

    def substitute(self, **values):
        """Substitute integer values for a subset of the variables."""
        idx_val = [(VARIABLES.index(k), int(v)) for k, v in values.items()]
        out = {}
        for exps, c in self.terms.items():
            coeff = c
            new = list(exps)
            for i, v in idx_val:
                coeff *= v ** exps[i]
                new[i] = 0
            if coeff:
                key = tuple(new)
                s = out.get(key, 0) + coeff
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return SparsePolynomial(out)

    def evaluate(self, point, mod=None):
        """Value at a full 6-tuple of integers, optionally mod a prime."""
        total = 0
        for exps, c in self.terms.items():
            term = c
            if mod is None:
                for v, e in zip(point, exps):
                    if e:
                        term *= v ** e
                total += term
            else:
                for v, e in zip(point, exps):
                    if e:
                        term = term * pow(v, e, mod) % mod
                total = (total + term) % mod
        return total % mod if mod is not None else total

    def dump_lines(self):
        """Stable text form: one `coeff x^a y^b ...` line per term."""
        lines = []
        for exps in sorted(self.terms):
            mono = " ".join(f"{name}^{e}" for name, e in zip(VARIABLES, exps))
            lines.append(f"{self.terms[exps]} {mono}")
        return lines

    def __repr__(self):
        if not self.terms:
            return "SparsePolynomial(0)"
        return "SparsePolynomial(" + " + ".join(self.dump_lines()) + ")"


def det_symbolic(rows):
    """Exact determinant of a matrix of SparsePolynomial entries.

    Dynamic program over used-column subsets; entries that are None or
    zero are skipped, so sparse matrices stay cheap.  Permutation signs
    accumulate via inversions against the used-column mask.
    """
    n = len(rows)
    sparse_rows = []
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
        sparse_rows.append([(c, p) for c, p in enumerate(row) if p])
    states = {0: SparsePolynomial.constant(1)}
    for row in sparse_rows:
        new_states = {}
        for mask, acc in states.items():
            for c, p in row:
                bit = 1 << c
                if mask & bit:
                    continue
                contrib = acc * p
                if (mask >> (c + 1)).bit_count() & 1:
                    contrib = -contrib
                key = mask | bit
                cur = new_states.get(key)
                new_states[key] = contrib if cur is None else cur + contrib
        states = {m: p for m, p in new_states.items() if p}
        if not states:
            return SparsePolynomial.zero()
    return states.get((1 << n) - 1, SparsePolynomial.zero())
