"""Sparse multivariate polynomials with big-integer coefficients.

Each monomial x^a y^b alpha^c beta^d gamma^e delta^f is stored as one
int, its key: the exponents are signed 32-bit fields, x in the most
significant one,

    key = a 2^160 + b 2^128 + c 2^96 + d 2^64 + e 2^32 + f.

The key of a product of two monomials is the sum of their keys, and
while every field lies in (-2^31, 2^31) the ascending order of the keys
is the lexicographic order of the exponent tuples (a lower field moves a
key by less than one unit of the field above it).  A field is decoded
after adding _BIAS, which makes every field nonnegative, so negative
exponents (the alpha^-1 of `zeta.intertwiner`) round-trip.  Zero
coefficients are never stored; `terms` shows the polynomial keyed by
exponent tuples.

No field overflows.  The constructors reject an exponent of magnitude
2^30 or more, and every polynomial gearlab builds lives on a digraph or
subdivision of at most V <= MAX_SUBDIVISION_VERTICES = 2^12 vertices,
which `Digraph` and the exports check before any polynomial is made: a
pencil determinant has degree V, and the largest exponent anywhere,
alpha's in `zeta.intertwiner_det` and `zeta.factored_det`, is at most
L V + V with L <= V / 2 the longest length, below 2^24; the sum of two
such exponents stays far inside the field.

Enough ring arithmetic for the exact pencil determinants of
`linalg.unicyclic_det` and for identity checks -- not a general
computer algebra system.  `+` and `-` share one merge loop; `evaluate`
computes each power of a coordinate once per call, however many terms
carry it; `shift_x` puts x + c delta in for x, the last step of
`zeta.char_poly_symbolic`.
"""

from __future__ import annotations

from types import MappingProxyType

VARIABLES = ("x", "y", "alpha", "beta", "gamma", "delta")
NVARS = len(VARIABLES)
_BITS = 32
_SHIFTS = tuple(_BITS * (NVARS - 1 - i) for i in range(NVARS))   # x's field on top
_MASK = (1 << _BITS) - 1
_HALF = 1 << (_BITS - 1)
_BIAS = sum(_HALF << s for s in _SHIFTS)
EXPONENT_LIMIT = 1 << 30      # constructors accept exponents e with |e| < EXPONENT_LIMIT


def _pack(exps) -> int:
    """The key of an exponent tuple; ValueError unless it has NVARS entries
    each of magnitude below EXPONENT_LIMIT."""
    exps = tuple(exps)
    if len(exps) != NVARS:
        raise ValueError(f"expected {NVARS} exponents, got {len(exps)}")
    key = 0
    for e, s in zip(exps, _SHIFTS):
        if not -EXPONENT_LIMIT < e < EXPONENT_LIMIT:
            raise ValueError(f"exponent {e} outside (-2^30, 2^30)")
        key += e << s
    return key


def _unpack(key: int) -> tuple:
    """The exponent tuple of a key."""
    key += _BIAS
    return tuple(((key >> s) & _MASK) - _HALF for s in _SHIFTS)


def _powers_key(powers) -> int:
    exps = [0] * NVARS
    for name, p in powers.items():
        exps[VARIABLES.index(name)] = p
    return _pack(exps)


def _wrap(terms):
    """A polynomial on a dict key -> nonzero coefficient, taken as is."""
    res = SparsePolynomial.__new__(SparsePolynomial)
    res._terms = terms
    return res


class SparsePolynomial:
    __slots__ = ("_terms",)       # key -> nonzero int coefficient

    def __init__(self, terms=None):
        """From a dict exponent tuple -> coefficient; zero coefficients dropped."""
        self._terms = {_pack(exps): coeff for exps, coeff in (terms or {}).items() if coeff}

    @property
    def terms(self):
        """Read-only view exponent tuple -> coefficient (decoded on each access)."""
        return MappingProxyType({_unpack(k): c for k, c in self._terms.items()})

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        c = int(c)
        return _wrap({0: c} if c else {})

    @classmethod
    def variable(cls, name):
        return _wrap({1 << _SHIFTS[VARIABLES.index(name)]: 1})

    @classmethod
    def monomial(cls, coeff, **powers):
        coeff = int(coeff)
        key = _powers_key(powers)
        return _wrap({key: coeff} if coeff else {})

    # -- ring operations ----------------------------------------------
    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return isinstance(other, SparsePolynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def _merge(self, other, sign):
        """self + sign * other, for sign +1 or -1: the one merge of + and -."""
        if isinstance(other, int):
            other = SparsePolynomial.constant(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + sign * c
            if s:
                out[k] = s
            else:
                del out[k]      # c != 0, so k was in out
        return _wrap(out)

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rsub__(self, other):
        return SparsePolynomial.constant(other) - self

    def __mul__(self, other):
        """Product; a monomial's key is the sum of its factors' keys."""
        if isinstance(other, int):
            return _wrap({k: c * other for k, c in self._terms.items()} if other else {})
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = {}
        get = out.get
        for kb, cb in b.items():
            for k, c in a.items():
                k += kb
                out[k] = get(k, 0) + c * cb
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return _wrap(out)

    __rmul__ = __mul__

    # -- queries --------------------------------------------------------
    def coefficients(self, name, count):
        """[c_0, ..., c_{count-1}] with c_k the coefficient of name^k, in one
        pass; ValueError when a term has another variable or another power."""
        s = _SHIFTS[VARIABLES.index(name)]
        out = [0] * count
        for key, c in self._terms.items():
            k = key >> s
            if k << s != key or not 0 <= k < count:
                raise ValueError(f"term {_unpack(key)} is not a power of {name} below {count}")
            out[k] = c
        return out

    def substitute(self, **values):
        """Substitute integer values for a subset of the variables.  A
        variable that no term carries changes nothing; with no other, the
        polynomial itself comes back after one scan of its keys."""
        shift_val = [(_SHIFTS[VARIABLES.index(k)], int(v)) for k, v in values.items()]
        shift_val = [(s, v) for s, v in shift_val
                     if any(((key + _BIAS) >> s) & _MASK != _HALF for key in self._terms)]
        if not shift_val:
            return self
        out = {}
        for key, c in self._terms.items():
            biased = key + _BIAS
            for s, v in shift_val:
                e = ((biased >> s) & _MASK) - _HALF
                if e:
                    c *= v ** e
                    key -= e << s
            if c:
                out[key] = out.get(key, 0) + c
        return _wrap({k: c for k, c in out.items() if c})

    def evaluate(self, point, mod=None):
        """Value at a full 6-tuple of integers, optionally mod a prime.  Each
        power v^e is computed once per call and kept for the other terms
        that carry it."""
        # per variable: biased exponent field -> v^e (mod ``mod``)
        powers = [{} for _ in _SHIFTS]
        total = 0
        for key, c in self._terms.items():
            biased = key + _BIAS
            for v, s, cache in zip(point, _SHIFTS, powers):
                f = (biased >> s) & _MASK
                if f != _HALF:
                    p = cache.get(f)
                    if p is None:
                        p = cache[f] = v ** (f - _HALF) if mod is None else pow(v, f - _HALF, mod)
                    c = c * p if mod is None else c * p % mod
            total += c
        return total % mod if mod is not None else total

    def shift_x(self, c):
        """This polynomial with x replaced by x + c delta, where no term
        carries delta: a term coeff x^a m becomes the sum over k <= a of
        coeff C(a, k) c^k x^(a-k) delta^k m.  Such a key gives back k
        (delta's exponent) and a (x's plus k), so no two terms meet and none
        cancels.  At c = 0 the polynomial itself comes back; else ValueError
        when a term carries delta or a negative power of x."""
        s, c = _SHIFTS[VARIABLES.index("delta")], int(c)
        if not c:
            return self
        step = (1 << s) - (1 << _SHIFTS[0])     # the key of x^-1 delta
        out = {}
        for key, coeff in self._terms.items():
            biased = key + _BIAS
            a = (biased >> _SHIFTS[0]) - _HALF   # x's field is the top one
            if (biased >> s) & _MASK != _HALF or a < 0:
                raise ValueError(f"term {_unpack(key)} carries delta or a negative power of x")
            out[key] = coeff
            for k in range(1, a + 1):
                # coeff C(a, k) c^k from the term before: exact, C(a, k) k = C(a, k-1) (a-k+1)
                coeff = coeff * (a - k + 1) * c // k
                key += step
                out[key] = coeff
        return _wrap(out)

    def dump_lines(self):
        """Stable text form: one `coeff x^a y^b ...` line per term, in
        lexicographic order of the exponent tuples (= ascending keys)."""
        lines = []
        for key in sorted(self._terms):
            mono = " ".join(f"{name}^{e}" for name, e in zip(VARIABLES, _unpack(key)))
            lines.append(f"{self._terms[key]} {mono}")
        return lines

    def __repr__(self):
        if not self._terms:
            return "SparsePolynomial(0)"
        return "SparsePolynomial(" + " + ".join(self.dump_lines()) + ")"
