"""Spectra of weighted metric graphs via secular linear systems.

On each edge an eigenfunction with eigenvalue lam = k^2 > 0 is written as
f_e(x) = a_e cos(kx) + b_e sin(kx); the vertex conditions (continuity plus
weighted Kirchhoff: sum of edge-weight times outward derivative vanishes)
become a square homogeneous system A(k) in the 2m coefficients.  k is an
eigenwavenumber exactly when A(k) loses rank.  The scan brackets each
root by a local minimum of sigma_min^2 of the row-normalized system A on
a k-grid, read as the smallest eigenvalue of the Gram matrix A^T A (one
batched eigvalsh, cheaper than an SVD; the square is monotone, so the
minima are those of sigma_min).  It refines each bracket by safeguarded
Newton on det A / det A' (one batched LU solve per step, converging in
one step where det A behaves as (k - k*)^m, so double roots converge as
fast as simple ones) and accepts the root by the singular values of A,
from an SVD, at the refined k.  The Gram eigenvalue has an absolute
error of about eps * sigma_max^2, so it resolves sigma_min only down to
~3e-8: far below sigma_min at a grid neighbour 0.01 away from a root,
but above RANK_TOL and MULT_TOL, which is why the root test keeps the
SVD.
The scan builds the k-independent entry list of the system once and
assembles stacks of matrices, and of their k-derivatives, per block of
k-points; one budget, _STACK_ENTRIES float64 entries per stack, sets the
length of every block.  A Kirchhoff row whose weights are all below 1/2
(a leaf's at small w) is scaled exactly by a power of two, so that the
squares in its norm do not underflow.  This coefficient basis stays
valid at wavenumbers where vertex-value bases degenerate, so no
eigenvalue family needs special casing; lam = 0 (the constants) is the
single analytic exception and is inserted directly.

A private memo, `_memo_entry` (a functools.lru_cache of two entries, keyed
by value on (graph, conditions)), keeps the secular system and the scan
state of the two most recently used graphs (one dual pair), so a repeat
scan of a graph computes sigma_min^2 only on new grid points and refines
only new minima.  Scans stay deterministic, and independent of the block
lengths and of earlier scans.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import GearlabError, MetricGraph, TOOTH, positive_finite, validate_metric

# float64 entries per batched stack of secular matrices (256 KiB), or one
# matrix with its derivatives where that is more: sets the k-points per
# batched eigvalsh or SVD of the scan and the brackets per batched Newton
# step, so that the per-call cost is amortised while peak memory stays
# independent of the grid length and of the number of minima
_STACK_ENTRIES = 1 << 15

# Newton steps after which a bracket stops refining; a bracket of width
# 0.1 that only bisects ends at REFINE_TOL in 36
_MAX_STEPS = 64

# k-grid points a scan may take (k_max / grid_step): bounds its time and
# the memory of the grid
MAX_GRID_POINTS = 10**7

# relative eigenvalue gap below which two compared spectra agree
GAP_TOL = 1e-8

# scan tolerances: the Newton step on k that ends root refinement (a
# step within the float spacing at k ends it too); the sigma_min /
# sigma_max below which k is a root; the sigma / sigma_max below which a
# singular value adds to the multiplicity; the distance on k below which
# two refined roots are one
REFINE_TOL = 1e-12
RANK_TOL = 1e-9
MULT_TOL = 1e-8
DEDUP_GAP = 1e-9


class SpectralError(GearlabError):
    pass


class NotAnEigenvalue(SpectralError):
    pass


@dataclass(frozen=True)
class VertexConditions:
    """Continuity + weighted Kirchhoff; tooth-class edges carry weight w."""

    w: float = 1.0

    def __post_init__(self):
        if not positive_finite(self.w):
            raise SpectralError("weight w must be positive and finite")

    def edge_weight(self, edge):
        return edge.weight * (self.w if edge.cls == TOOTH else 1.0)


@dataclass(frozen=True)
class ScanParams:
    """Scan ceiling and k-grid spacing; the tolerances are module constants.

    ``grid_step`` changes which roots a scan finds (see `scan_spectrum`).
    The grid may have at most MAX_GRID_POINTS points.
    """

    k_max: float
    grid_step: float = 0.01

    def __post_init__(self):
        for name in ("k_max", "grid_step"):
            if not positive_finite(getattr(self, name)):
                raise SpectralError(f"{name} must be positive and finite")
        if self.k_max / self.grid_step > MAX_GRID_POINTS:
            raise SpectralError(f"k_max / grid_step must be at most {MAX_GRID_POINTS}")


@dataclass(frozen=True, eq=False)
class Eigenfunction:
    """Edge e carries a_e cos(kx) + b_e sin(kx), at wavenumber 0 < k < inf.

    ``coeffs`` becomes a read-only float array of shape (edge_count, 2)
    whose row e is (a_e, b_e); any array-like of 2 * edge_count numbers
    in that order is accepted.
    """

    graph: MetricGraph
    k: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not positive_finite(self.k):
            raise SpectralError("eigenfunctions need 0 < k < inf")
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs.reshape(self.graph.edge_count, 2))

    def flat(self):
        return self.coeffs.reshape(-1)


@dataclass(frozen=True)
class Spectrum:
    entries: tuple  # ((lam, multiplicity), ...) strictly increasing lam
    k_max: float

    def count(self):
        return sum(m for _, m in self.entries)


# ---------------------------------------------------------------------------
# secular system
# ---------------------------------------------------------------------------

class _SecularSystem(NamedTuple):
    """k-independent entry list of a secular system.

    Entry i adds ``(coef[i] * (k if scaled[i] else 1)) * t`` to the cell
    ``cells[i]`` = row * 2m + col of the flattened matrix, where t = 1,
    cos(k l_e) or sin(k l_e) is column ``term[i]`` of the table
    [1, cos(k l), sin(k l)] built per k.  coef is +-1 on continuity rows
    and +-(edge weight) on Kirchhoff rows, times 2^s on a Kirchhoff row
    whose weights are all below 1/2, with s putting the largest of them in
    [1/2, 1).  The entries are stored in the order of the row loop.
    Without loop edges no two entries share a cell, so one scatter
    assembles the matrix.  Zero terms are left out.
    """

    lengths: np.ndarray
    cells: np.ndarray
    term: np.ndarray
    scaled: np.ndarray
    coef: np.ndarray


def _secular_system(g: MetricGraph, cond: VertexConditions) -> _SecularSystem:
    """The entry list of g's secular system, in the order of the row loop.

    Raises SpectralError when g fails `validate_metric`; the gear layout
    is not required.
    """
    problems = validate_metric(g)
    if problems:
        raise SpectralError("; ".join(problems))
    m = g.edge_count
    entries = []
    r = 0

    def value_terms(e, end):
        # (column offset, term) of f_e at its tail (1, 0) or head (cos, sin)
        return ((0, 0),) if end == 0 else ((0, 1 + e), (1, 1 + m + e))

    for incs in g.incidences():
        e0, end0 = incs[0]
        for e, end in incs[1:]:
            entries += [(r, 2 * e0 + off, t, False, 1.0) for off, t in value_terms(e0, end0)]
            entries += [(r, 2 * e + off, t, False, -1.0) for off, t in value_terms(e, end)]
            r += 1
        weights = [cond.edge_weight(g.edges[e]) for e, _ in incs]
        # row normalisation undoes this exact scale of small weights
        shift = -math.frexp(max(weights))[1] if max(weights) < 0.5 else 0
        for (e, end), wgt in zip(incs, weights):
            wgt = math.ldexp(wgt, shift)
            if end == 0:
                # outward derivative at the tail: f'(0) = k b
                entries.append((r, 2 * e + 1, 0, True, wgt))
            else:
                # outward derivative at the head: -f'(l)
                entries.append((r, 2 * e, 1 + m + e, True, wgt))
                entries.append((r, 2 * e + 1, 1 + e, True, -wgt))
        r += 1
    assert r == 2 * m
    rows, cols, term, scaled, coef = map(np.array, zip(*entries))
    system = _SecularSystem(np.array([e.length for e in g.edges]), rows * 2 * m + cols,
                            term, scaled, coef.astype(float))
    for array in system:
        # the memo hands one system to every caller
        array.flags.writeable = False
    return system


def _block_length(system: _SecularSystem, order: int) -> int:
    """k-points per stack with ``order`` derivatives within _STACK_ENTRIES."""
    size = 2 * len(system.lengths)
    return max(1, _STACK_ENTRIES // ((order + 1) * size * size))


class _ScanState(NamedTuple):
    """What the scans of one graph on one k-grid have computed so far.

    ``sig_sq`` is sigma_min^2 on the first len(sig_sq) grid points, ``lows``
    the ascending indices of its interior minima, ``ks`` the refined root
    of each minimum and ``s`` the descending singular values there.
    """

    grid_step: float
    sig_sq: np.ndarray
    lows: np.ndarray
    ks: np.ndarray
    s: np.ndarray


@dataclass
class _MemoEntry:
    system: _SecularSystem
    scan: _ScanState | None = None


# keeps the two most recently used graphs: one dual pair
@functools.lru_cache(maxsize=2)
def _memo_entry(g: MetricGraph, cond: VertexConditions) -> _MemoEntry:
    """The memo entry of (g, cond), keyed by value; call with both positionally."""
    return _MemoEntry(_secular_system(g, cond))


def _secular_stack(system: _SecularSystem, ks: np.ndarray, order: int = 0) -> np.ndarray:
    """Secular matrices and their first ``order`` k-derivatives at every k of ``ks``.

    Shape (K, order + 1, 2m, 2m).  All of them are divided by the row
    norms of the matrix at that k: a row scaling that is constant in k
    moves neither the roots of det nor d log|det| / dk.
    """
    lengths = system.lengths
    m, size = len(lengths), 2 * len(lengths)
    with np.errstate(over="ignore", invalid="ignore"):
        # d^j/dk^j of the table [1, cos kl, sin kl], for j = 0 .. order
        table = np.zeros((len(ks), order + 1, 1 + size))
        table[:, 0, 0] = 1.0
        kl = ks[:, None] * lengths
        np.cos(kl, out=table[:, 0, 1:1 + m])
        np.sin(kl, out=table[:, 0, 1 + m:])
        for j in range(1, order + 1):
            table[:, j, 1:1 + m] = -lengths * table[:, j - 1, 1 + m:]
            table[:, j, 1 + m:] = lengths * table[:, j - 1, 1:1 + m]
        trig = table[:, :, system.term]
        # an entry is coef * k^s * t with s = 0 or 1, so its j-th
        # derivative is coef * k^s * t^(j) + j * coef * s * t^(j-1)
        vals = (system.coef * np.where(system.scaled, ks[:, None], 1.0))[:, None] * trig
        if order:
            vals[:, 1:] += (np.arange(1, order + 1)[:, None] * (system.coef * system.scaled)
                            * trig[:, :-1])
        stack = np.zeros((len(ks), order + 1, size * size))
        stack[:, :, system.cells] += vals
        stack = stack.reshape(len(ks), order + 1, size, size)
        # squared row norms of every matrix of the stack
        sq = np.add.reduce(stack * stack, axis=3)
    # a non-finite entry makes its row norm non-finite too
    _finite(sq.reshape(len(ks), -1), ks, "secular matrix overflows")
    norms = np.sqrt(sq[:, :1, :, None])
    norms[norms == 0] = 1.0
    stack /= norms
    return stack


def _singular_values(stack: np.ndarray, ks) -> np.ndarray:
    """Descending singular values of each matrix of the stack, shape (K, 2m)."""
    try:
        s = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"SVD did not converge for k in [{ks[0]}, {ks[-1]}]") from exc
    return _finite(s, ks, "singular values not finite")


def _gram_min(stack: np.ndarray, ks) -> np.ndarray:
    """sigma_min^2 of each matrix A of the stack, as the smallest eigenvalue
    of A^T A, shape (K,); absolute error about eps * sigma_max^2."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = stack.mT @ stack
    try:
        lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigvalsh did not converge for k in [{ks[0]}, {ks[-1]}]") from exc
    return _finite(lam, ks, "Gram eigenvalues not finite")[:, 0]


def _finite(values: np.ndarray, ks, problem: str) -> np.ndarray:
    """``values``, one row per k, or SpectralError "<problem> at k=..." at
    the first k whose row is not finite."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise SpectralError(f"{problem} at k={ks[np.argmax(bad)]}")
    return values


def secular_matrix(g: MetricGraph, cond: VertexConditions, k: float) -> np.ndarray:
    """Row-normalized 2m x 2m vertex-condition system at wavenumber k > 0.

    Rows: per vertex, deg-1 continuity differences followed by one
    weighted Kirchhoff row; columns: (a_e, b_e) per edge.  The null space
    is isomorphic to the k^2-eigenspace.
    """
    if not (k > 0):
        raise SpectralError("secular matrix needs k > 0")
    return _secular_stack(_memo_entry(g, cond).system, np.array([k], dtype=float))[0, 0]


def _root_multiplicity(s: np.ndarray) -> np.ndarray:
    """Per row of descending singular values, 0 unless sigma_min <
    RANK_TOL * sigma_max, else the count of sigma < MULT_TOL * sigma_max."""
    smax = s[..., :1]
    return np.where(s[..., -1] < RANK_TOL * smax[..., 0], (s < MULT_TOL * smax).sum(axis=-1), 0)


def eigenfunction_basis(g, cond, k):
    """Orthonormal (coefficient-space) basis of the secular null space at k.

    k must be a root by the scan's test (`_root_multiplicity`), which also
    sets the dimension; otherwise NotAnEigenvalue is raised.
    """
    _, s, vh = np.linalg.svd(secular_matrix(g, cond, k))
    mult = int(_root_multiplicity(s))
    if not mult:
        raise NotAnEigenvalue(f"k={k} is not an eigenwavenumber (sigma_min={s[-1]:.3e})")
    return [Eigenfunction(g, k, row) for row in vh[len(s) - mult:]]


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def _newton_refine(system: _SecularSystem, ks, lo, hi) -> np.ndarray:
    """Roots of det A(k) from the starts ``ks`` in the brackets [lo_i, hi_i].

    Safeguarded Newton on det A / det A'; all brackets step in lockstep,
    in as few blocks as _STACK_ENTRIES allows for stacks of A, A' and A''.
    With tau = tr(A^-1 A') = d log|det A| / dk and
    tau' = tr(A^-1 A'') - tr((A^-1 A')^2), both from one batched LU
    solve, the step is tau / tau'.  The sign of tau tells on which side of
    k the root lies, so it shrinks the bracket; a step that leaves the
    bracket becomes a bisection.  A bracket stops after a step within
    REFINE_TOL or the float spacing at k, at an exactly singular A (k is
    a root; only then does a step factor its stack a second time, by
    slogdet), or after _MAX_STEPS steps.  A bracket without a root ends
    inside it, and the caller's rank test rejects it.  Returns the final
    k of every bracket.
    """
    ks, lo, hi = ks.copy(), lo.copy(), hi.copy()
    block = _block_length(system, 2)
    for start in range(0, len(ks), block):
        live = np.arange(start, min(start + block, len(ks)))
        for _ in range(_MAX_STEPS):
            if not live.size:
                break
            stack = _secular_stack(system, ks[live], 2)
            size = stack.shape[-1]
            a, rhs = stack[:, 0], np.concatenate([stack[:, 1], stack[:, 2]], axis=2)
            try:
                x = np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                # solve raises for the whole stack when one matrix is singular
                with np.errstate(divide="ignore"):     # log 0 at a singular matrix
                    regular = np.linalg.slogdet(a)[0] != 0
                live, a, rhs = live[regular], a[regular], rhs[regular]
                x = np.linalg.solve(a, rhs)
            d1, d2 = x[..., :size], x[..., size:]  # A^-1 A' and A^-1 A''
            k = ks[live]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                tau = np.trace(d1, axis1=1, axis2=2)
                step = tau / (np.trace(d2, axis1=1, axis2=2) - np.einsum("kij,kji->k", d1, d1))
                new = k + step
            hi[live[tau > 0]] = k[tau > 0]
            lo[live[tau < 0]] = k[tau < 0]
            tol = np.maximum(REFINE_TOL, np.spacing(k))
            keep = (np.abs(step) <= tol) | ((new > lo[live]) & (new < hi[live]))
            new[~keep] = 0.5 * (lo[live] + hi[live])[~keep]
            ks[live] = new
            live = live[np.abs(new - k) > tol]
    return ks


def _blockwise(system: _SecularSystem, ks: np.ndarray, kernel, out: np.ndarray) -> np.ndarray:
    """``out`` filled with kernel(stack, chunk) over the scan blocks of ``ks``."""
    block = _block_length(system, 0)
    for i in range(0, len(ks), block):
        chunk = ks[i:i + block]
        out[i:i + block] = kernel(_secular_stack(system, chunk)[:, 0], chunk)
    return out


def _grid_sig_sq(system: _SecularSystem, ks: np.ndarray) -> np.ndarray:
    """sigma_min^2 at the grid points ``ks``, from the Gram matrices."""
    return _blockwise(system, ks, _gram_min, np.empty(len(ks)))


def _root_svals(system: _SecularSystem, ks: np.ndarray) -> np.ndarray:
    """All descending singular values at the refined roots ``ks``, by SVD."""
    return _blockwise(system, ks, _singular_values, np.empty((len(ks), 2 * len(system.lengths))))


def _extend_scan(system: _SecularSystem, state: _ScanState, grid: np.ndarray) -> _ScanState:
    """``state`` grown to the longer ``grid``, whose prefix it covers.

    sigma_min^2 is computed on the new grid points only, and only the new
    minima are refined; the last old point becomes a candidate now that
    its right neighbour exists.  Each grid point and each bracket is
    computed on its own, so the result equals a scan of ``grid`` from
    scratch.
    """
    done = len(state.sig_sq)
    sig_sq = np.concatenate([state.sig_sq, _grid_sig_sq(system, grid[done:])])
    i = np.arange(max(1, done - 1), len(grid) - 1)
    lows = i[(sig_sq[i] <= sig_sq[i - 1]) & (sig_sq[i] <= sig_sq[i + 1])]
    ks = _newton_refine(system, grid[lows], grid[lows - 1], grid[lows + 1])
    return _ScanState(state.grid_step, sig_sq, np.concatenate([state.lows, lows]),
                      np.concatenate([state.ks, ks]),
                      np.concatenate([state.s, _root_svals(system, ks)]))


def scan_spectrum(g: MetricGraph, cond: VertexConditions, params: ScanParams) -> Spectrum:
    """Locate all eigenvalues with k in (0, k_max].

    lam = 0 is inserted analytically with multiplicity 1 (connected
    graph).  sigma_min^2 is evaluated on the k-grid as the smallest
    eigenvalue of the Gram matrix A^T A, by batched eigvalsh of as many
    secular matrices as _STACK_ENTRIES allows; its absolute error, about
    eps * sigma_max^2, matters only where sigma_min is below ~3e-8, far
    under its value at a grid neighbour of a root.  Every grid minimum is
    refined by safeguarded Newton on det A / det A' inside the bracket of
    its two grid neighbours (see `_newton_refine`), and accepted, with its
    multiplicity, by the root test of `eigenfunction_basis`
    (`_root_multiplicity`) on the singular values, from an SVD, at the
    refined k.  Two roots that share one grid minimum come out as one, so
    ``grid_step`` decides which roots are found.  The grid is a prefix of
    every longer grid of the same step, so the memo serves a smaller
    ``k_max`` from the minima it already refined and extends its state for
    a larger one.  Deterministic, and independent of the block lengths and
    of earlier scans.
    """
    entry = _memo_entry(g, cond)
    step = params.grid_step
    grid = np.arange(step, params.k_max + 2.5 * step, step)
    state = entry.scan
    if state is None or state.grid_step != step:
        width = 2 * g.edge_count
        state = _ScanState(step, np.empty(0), np.empty(0, dtype=int), np.empty(0),
                           np.empty((0, width)))
    if len(grid) > len(state.sig_sq):
        state = _extend_scan(entry.system, state, grid)
    entry.scan = state
    # the minima of this grid are those with both neighbours on it
    inside = state.lows < len(grid) - 1
    ks, mults = state.ks[inside], _root_multiplicity(state.s[inside])
    accept = (mults > 0) & (ks <= params.k_max + DEDUP_GAP)
    roots = sorted(zip(ks[accept].tolist(), mults[accept].tolist()))
    entries = [(0.0, 1)]
    for k_star, mult in roots:
        if entries[-1][0] > 0 and abs(math.sqrt(entries[-1][0]) - k_star) <= DEDUP_GAP:
            continue
        entries.append((float(k_star * k_star), mult))
    return Spectrum(tuple(entries), params.k_max)


def suggest_k_max(g: MetricGraph, count: int) -> float:
    """Scan ceiling expected to cover the first ``count`` eigenvalues (Weyl)."""
    return math.pi * (count + 3) / g.total_length() * 1.15


# ---------------------------------------------------------------------------
# inner products and residuals
# ---------------------------------------------------------------------------

def weighted_inner(f: Eigenfunction, h: Eigenfunction, cond: VertexConditions) -> float:
    """<f, h>_w = sum_e w_e int_0^l_e f_e h_e dx, in closed form.

    With z = a + ib (a coefficient row viewed as one complex number),
    a cos kx + b sin kx = Re(z e^{-ikx}), so
    f h = Re(z1 z2 e^{-i(k1+k2)x} + z1 conj(z2) e^{-i(k1-k2)x}) / 2, and
    int_0^l e^{-iqx} dx is (1 - e^{-iql}) / (iq), or l where k1 = k2.
    """
    if f.graph is not h.graph and f.graph.edges != h.graph.edges:
        raise SpectralError("eigenfunctions live on different graphs")
    l = np.array([e.length for e in f.graph.edges])
    wgt = np.array([cond.edge_weight(e) for e in f.graph.edges])
    z1, z2 = f.coeffs.view(complex)[:, 0], h.coeffs.view(complex)[:, 0]

    def integral(q):
        return (1 - np.exp(-1j * q * l)) / (1j * q)

    same = abs(f.k - h.k) <= 1e-12 * max(f.k, h.k)
    total = (z1 * z2 * integral(f.k + h.k)
             + z1 * z2.conj() * (l if same else integral(f.k - h.k)))
    return float(0.5 * (wgt @ total.real))


def vertex_residual(f: Eigenfunction, cond: VertexConditions) -> float:
    """Max violation of the vertex conditions, scale-free.

    Infinity norm of the row-normalized secular system applied to the
    unit-normalized coefficient vector.
    """
    x = f.flat()
    nrm = np.linalg.norm(x)
    if nrm == 0:
        return 0.0
    a = secular_matrix(f.graph, cond, f.k)
    return float(np.abs(a @ (x / nrm)).max())


# ---------------------------------------------------------------------------
# spectrum comparison
# ---------------------------------------------------------------------------

def _compare_entries(e1, e2) -> dict:
    """Pair two ((lam, multiplicity), ...) lists in order; report the gaps
    and the mismatches of multiplicity and of length."""
    pairs = []
    mism = []
    max_gap = 0.0
    for i in range(min(len(e1), len(e2))):
        l1, m1 = e1[i]
        l2, m2 = e2[i]
        denom = max(abs(l1), abs(l2))
        gap = 0.0 if denom == 0 else abs(l1 - l2) / denom
        max_gap = max(max_gap, gap)
        pairs.append((l1, l2, m1, m2))
        if m1 != m2:
            mism.append({"index": i, "lam": l1, "mult_1": m1, "mult_2": m2})
    if len(e1) != len(e2):
        mism.append({"index": min(len(e1), len(e2)), "lam": None,
                     "mult_1": len(e1), "mult_2": len(e2)})
    return {
        "max_rel_gap": float(max_gap),
        "multiplicity_mismatches": mism,
        "pairs": pairs,
        "match": bool(max_gap <= GAP_TOL and not mism),
    }


def compare_spectra(s1: Spectrum, s2: Spectrum) -> dict:
    """Pair eigenvalues in order and report gaps and multiplicity mismatches."""
    if s1.k_max != s2.k_max:
        raise SpectralError("spectra were scanned with different k_max")
    return _compare_entries(s1.entries, s2.entries)


def compare_first(s1: Spectrum, s2: Spectrum, count: int) -> dict:
    """`compare_spectra`'s report on the first ``count`` eigenvalues of each.

    They are counted with multiplicity; the entry that reaches ``count``
    keeps the part that fits.  Fewer than ``count`` fail with gap inf.
    """
    if min(s1.count(), s2.count()) < count:
        return {"max_rel_gap": math.inf, "multiplicity_mismatches": [
            {"index": None, "lam": None, "mult_1": s1.count(), "mult_2": s2.count()}],
            "pairs": [], "match": False}
    cut = ([], [])
    for s, out in zip((s1, s2), cut):
        before = 0
        for lam, mult in s.entries:
            if before >= count:
                break
            out.append((lam, min(mult, count - before)))
            before += mult
    return _compare_entries(*cut)
