"""Secular-system spectra: oracles, invariants, and comparisons."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gearlab.graphs import (TOOTH, Edge, GearSpec, MetricGraph, build_gear, dual_gear,
                            subdivide, validate_metric)
from gearlab.markov import crosscheck_quantum, markov_matrix, predicted_wavenumbers
from gearlab.spectral import (Eigenfunction, NotAnEigenvalue, ScanParams, SpectralError,
                              VertexConditions, compare_first, compare_spectra,
                              eigenfunction_basis, scan_spectrum, secular_matrix,
                              suggest_k_max, vertex_residual, weighted_inner)
from gearlab.transplant import transplant
from gearlab import spectral

from support import evaluate, evaluate_derivative, insert_degree_two_vertex

KN = VertexConditions(1.0)


def interval(length=1.0):
    return MetricGraph(2, (Edge(0, 0, 1, length),), "interval")


def circle_two_edges(circumference=6.0):
    half = circumference / 2.0
    return MetricGraph(2, (Edge(0, 0, 1, half), Edge(1, 0, 1, half)), "circle")


# ---------------------------------------------------------------------------
# secular matrix
# ---------------------------------------------------------------------------

def test_interval_secular_is_2x2_with_expected_rank():
    g = interval()
    a_pi = secular_matrix(g, KN, math.pi)
    assert a_pi.shape == (2, 2)
    smin = np.linalg.svd(a_pi, compute_uv=False)[-1]
    assert smin < 1e-12
    smin_half = np.linalg.svd(secular_matrix(g, KN, math.pi / 2), compute_uv=False)[-1]
    # direct evaluation: rows normalize to (0, 1) and (sin k, -cos k),
    # which at k = pi/2 is the permutation matrix with sigma_min = 1
    assert abs(smin_half - 1.0) < 1e-12
    assert smin_half > 0.1


def test_circle_null_space_dimension_two():
    g = circle_two_edges(6.0)
    k = 2 * math.pi / 6
    basis = eigenfunction_basis(g, KN, k)
    assert len(basis) == 2


def test_gear_secular_size_and_entry_bound():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    for k in (0.3, 1.7, 5.2):
        a = secular_matrix(g, KN, k)
        assert a.shape == (12, 12)
        assert np.abs(a).max() <= 1.0 + 1e-12
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)


def test_secular_rejects_nonpositive_k():
    with pytest.raises(SpectralError):
        secular_matrix(interval(), KN, 0.0)


def loop_secular_matrix(g, cond, k, normalize=True):
    """Reference: the secular matrix assembled cell by cell in loop order."""
    m = g.edge_count
    lengths = np.array([e.length for e in g.edges])
    ckl, skl = np.cos(k * lengths), np.sin(k * lengths)
    rows = np.zeros((2 * m, 2 * m))
    r = 0

    def value_coeffs(e, end):
        return (1.0, 0.0) if end == 0 else (ckl[e], skl[e])

    for incs in g.incidences():
        e0, end0 = incs[0]
        a0, b0 = value_coeffs(e0, end0)
        for e, end in incs[1:]:
            a1, b1 = value_coeffs(e, end)
            rows[r, 2 * e0] += a0
            rows[r, 2 * e0 + 1] += b0
            rows[r, 2 * e] -= a1
            rows[r, 2 * e + 1] -= b1
            r += 1
        for e, end in incs:
            wgt = cond.edge_weight(g.edges[e])
            if end == 0:
                rows[r, 2 * e + 1] += wgt * k
            else:
                rows[r, 2 * e] += wgt * k * skl[e]
                rows[r, 2 * e + 1] -= wgt * k * ckl[e]
        r += 1
    if not normalize:
        return rows
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0] = 1.0
    return rows / norms[:, None]


PARALLEL = MetricGraph(3, (Edge(0, 0, 1, 0.7, 2.0), Edge(1, 1, 0, 1.1), Edge(2, 1, 2, 0.4)),
                       "parallel edges")


@pytest.mark.parametrize("g", [
    PARALLEL,
    build_gear(GearSpec(3, (1, 2, 3), "dual")),
    build_gear(GearSpec(4, (1.4142, 1.7320508, 2.2360679, 1), "primal",
                        ("tail", "head", "tail", "head"))),
], ids=["parallel", "gear123-dual", "thth"])
def test_secular_matrix_equals_loop_assembly(g):
    cond = VertexConditions(1.5)
    rng = np.random.default_rng(3)
    for k in rng.uniform(0.01, 40.0, size=50):
        assert secular_matrix(g, cond, k).tobytes() == loop_secular_matrix(g, cond, k).tobytes()


def test_loop_edges_raise_spectral_error():
    # the continuity row pairing a loop's ends vanishes at its roots and row
    # normalisation hides that, so loops are rejected; split one instead
    tadpole = MetricGraph(2, (Edge(0, 1, 0, 1.0), Edge(1, 0, 0, 1.0)), "tadpole")
    with pytest.raises(SpectralError, match="^edge 1: loop edges are not supported$"):
        secular_matrix(tadpole, KN, 1.0)
    with pytest.raises(SpectralError, match="^edge 1: loop edges are not supported$"):
        scan_spectrum(tadpole, KN, ScanParams(k_max=7.0))
    # the split loop keeps both eigenfunctions at k = 2 pi: sin(kx) on the
    # loop alone, and cos(k(x - 1/2)) on the loop with -cos(k(y - 1)) on the tail
    split = insert_degree_two_vertex(tadpole, 1)
    entries = scan_spectrum(split, KN, ScanParams(k_max=7.0)).entries
    assert [m for lam, m in entries if abs(math.sqrt(lam) - 2 * math.pi) < 1e-9] == [2]


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def test_interval_spectrum():
    s = scan_spectrum(interval(), KN, ScanParams(k_max=10.0))
    expected = [(0.0, 1)] + [((j * math.pi) ** 2, 1) for j in (1, 2, 3)]
    assert len(s.entries) == len(expected)
    for (lam, mult), (lam_e, mult_e) in zip(s.entries, expected):
        assert mult == mult_e
        assert abs(lam - lam_e) <= 1e-9 * max(1.0, lam_e)


def test_circle_spectrum_multiplicity_two():
    s = scan_spectrum(circle_two_edges(6.0), KN, ScanParams(k_max=5.0))
    expected = [(0.0, 1)] + [((2 * math.pi * j / 6) ** 2, 2) for j in (1, 2, 3, 4)]
    assert len(s.entries) == len(expected)
    for (lam, mult), (lam_e, mult_e) in zip(s.entries, expected):
        assert mult == mult_e
        assert abs(lam - lam_e) <= 1e-9 * max(1.0, lam_e)


def test_unit_gear_spectrum_matches_walk_arccos_oracle():
    # independent oracle: the (1,1,1) walk eigenvalues come from
    # 3 mu^2 - 2 cos(2 pi j / 3) mu - 1 = 0, giving  1, -1/3, (-1 +- sqrt(13))/6
    g = build_gear(GearSpec(3, (1, 1, 1), "primal"))
    s = scan_spectrum(g, KN, ScanParams(k_max=math.pi))
    mus = sorted([(-1 + math.sqrt(13)) / 6] * 2
                 + [(-1 - math.sqrt(13)) / 6] * 2
                 + [-1 / 3])
    expected = sorted(math.acos(mu) for mu in mus)
    got = []
    for lam, mult in s.entries[1:]:
        got.extend([math.sqrt(lam)] * mult)
    assert len(got) == len(expected)
    assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-9


def test_scan_deterministic():
    g = build_gear(GearSpec(3, (1, 2, 3), "dual"))
    p = ScanParams(k_max=4.0)
    s1 = scan_spectrum(g, KN, p)
    s2 = scan_spectrum(g, KN, p)
    assert s1 == s2


def count_calls(monkeypatch, owner, name, log):
    """Patch ``owner.name`` to append its positional arguments to ``log``."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def refine_one(monkeypatch, g, cond, start, lo, hi):
    """Newton-refine one bracket; returns (k, number of LU solve calls)."""
    solves = []
    with monkeypatch.context() as patch:
        count_calls(patch, spectral.np.linalg, "solve", solves)
        k = spectral._newton_refine(spectral._secular_system(g, cond), np.array([start]),
                                    np.array([lo]), np.array([hi]))
    return k[0], len(solves)


@pytest.mark.parametrize("k0", [1e4, 2e4, 2e4 * math.pi], ids=["k1e4", "k2e4", "k6e4"])
@pytest.mark.parametrize("offset", [0.004, -0.007, 0.0099])
def test_newton_refine_stops_at_float_spacing(monkeypatch, k0, offset):
    # an interval of length l has the roots j pi / l; from k = 8192 on the
    # float spacing exceeds REFINE_TOL, and the sign of tau at the last
    # steps is noise that must not send the bracket into bisection
    length = math.e / 2
    root = round(k0 * length / math.pi) * math.pi / length
    assert np.spacing(root) > spectral.REFINE_TOL
    g = interval(length)
    k, steps = refine_one(monkeypatch, g, KN, root + offset, root - 0.01, root + 0.01)
    assert steps <= 4
    assert abs(k - root) <= 4 * np.spacing(root)


@pytest.mark.parametrize("offset", [0.004, -0.007, 0.0099])
def test_newton_refine_converges_on_a_double_root(monkeypatch, offset):
    # k = pi is a double root of the (1,1,2) gear (circle of circumference 4)
    g = build_gear(GearSpec(3, (1, 1, 2), "primal"))
    k, steps = refine_one(monkeypatch, g, KN, math.pi + offset, math.pi - 0.01, math.pi + 0.01)
    assert steps <= 6
    assert abs(k - math.pi) <= 4 * np.spacing(math.pi)
    assert len(eigenfunction_basis(g, KN, k)) == 2


def test_newton_refine_keeps_an_exactly_singular_k(monkeypatch):
    # a k whose matrix is exactly singular is a root; its bracket stops
    # there, and the LU solve of the rest of the block still runs
    system = spectral._secular_system(interval(), KN)
    singular = 1.05
    real_stack = spectral._secular_stack

    def stack_with_a_singular_k(sys_, ks, order=0):
        out = real_stack(sys_, ks, order)
        out[ks == singular, 0] = 0.0
        return out

    monkeypatch.setattr(spectral, "_secular_stack", stack_with_a_singular_k)
    slogdets = []
    count_calls(monkeypatch, spectral.np.linalg, "slogdet", slogdets)
    ks = spectral._newton_refine(system, np.array([singular, math.pi + 0.004]),
                                 np.array([1.0, math.pi - 0.01]), np.array([1.1, math.pi + 0.01]))
    assert ks[0] == singular
    assert abs(ks[1] - math.pi) <= 4 * np.spacing(math.pi)
    # the failed solve of the first step is the only one that needs slogdet
    assert len(slogdets) == 1


def test_newton_refine_without_a_root_ends_inside_and_is_rejected(monkeypatch):
    # the unit interval has no root in [1.0, 1.1] (its roots are j pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k, steps = refine_one(monkeypatch, interval(), KN, 1.05, 1.0, 1.1)
    assert 1.0 <= k <= 1.1
    assert steps < spectral._MAX_STEPS
    s = np.linalg.svd(secular_matrix(interval(), KN, k), compute_uv=False)
    assert s[-1] >= spectral.RANK_TOL * s[0]


GOLDEN_GEARS = [
    (build_gear(GearSpec(3, (1, 2, 3), "primal")), 1.5, 12.0),
    (build_gear(GearSpec(4, (1.4142, 1.7320508, 2.2360679, 1), "primal",
                         ("tail", "head", "tail", "head"))), 2.0, 9.0),
]


def scan_grid(params):
    return np.arange(params.grid_step, params.k_max + 2.5 * params.grid_step, params.grid_step)


def grid_length(params):
    return len(scan_grid(params))


def scan_state_bytes(g, cond):
    state = spectral._memo_entry(g, cond).scan
    return [array.tobytes() for array in (state.sig_sq, state.lows, state.ks, state.s)]


@pytest.mark.parametrize("g,w,k_max", GOLDEN_GEARS, ids=["gear123", "thth"])
def test_scan_independent_of_block_size(monkeypatch, g, w, k_max):
    cond, params = VertexConditions(w), ScanParams(k_max=k_max)
    default = scan_spectrum(g, cond, params)
    state = scan_state_bytes(g, cond)
    size = 2 * g.edge_count
    # one matrix per stack, then one stack for the whole grid and for all
    # brackets at once (A, A' and A'' per bracket)
    for budget in (1, 3 * size * size * (grid_length(params) + 10)):
        monkeypatch.setattr(spectral, "_STACK_ENTRIES", budget)
        spectral._memo_entry.cache_clear()
        assert scan_spectrum(g, cond, params) == default
        assert scan_state_bytes(g, cond) == state


def test_lockstep_refinement_equals_one_at_a_time():
    # all minima of the gear123 scan refine in one lockstep block, bit for
    # bit as each does alone
    g, w, k_max = GOLDEN_GEARS[0]
    cond, params = VertexConditions(w), ScanParams(k_max)
    scan_spectrum(g, cond, params)
    entry, grid = spectral._memo_entry(g, cond), scan_grid(params)
    lows = entry.scan.lows
    assert 1 < len(lows) <= spectral._block_length(entry.system, 2)
    lockstep = spectral._newton_refine(entry.system, grid[lows], grid[lows - 1], grid[lows + 1])
    alone = [spectral._newton_refine(entry.system, grid[i:i + 1], grid[i - 1:i], grid[i + 1:i + 2])
             for i in lows]
    assert lockstep.tobytes() == np.concatenate(alone).tobytes() == entry.scan.ks.tobytes()


@pytest.mark.parametrize("g,w,k_max", GOLDEN_GEARS, ids=["gear123", "thth"])
def test_scan_kernel_counts(monkeypatch, g, w, k_max):
    # counters, not wall time: a Newton step makes one LU, and slogdet runs
    # only where a step meets an exactly singular matrix; no stack exceeds
    # the budget unless one matrix with its derivatives does
    cond, params = VertexConditions(w), ScanParams(k_max)
    grid, size = scan_grid(params), 2 * g.edge_count
    scan_spectrum(g, cond, params)
    state = spectral._memo_entry(g, cond).scan
    # each bracket alone: its Newton steps, and one slogdet per exactly
    # singular iterate, whose failed solve is solved again
    steps, singular = [], 0
    for i in state.lows:
        slogdets = []
        with monkeypatch.context() as patch:
            count_calls(patch, spectral.np.linalg, "slogdet", slogdets)
            solves = refine_one(monkeypatch, g, cond, grid[i], grid[i - 1], grid[i + 1])[1]
        steps.append(solves - len(slogdets))
        singular += len(slogdets)
    spectral._memo_entry.cache_clear()

    solves, slogdets, eigvalshs, svds, stacks, blocks = [], [], [], [], [], []
    real_slogdet = np.linalg.slogdet
    for name, log in (("solve", solves), ("slogdet", slogdets), ("eigvalsh", eigvalshs),
                      ("svd", svds)):
        count_calls(monkeypatch, spectral.np.linalg, name, log)
    real_stack, real_refine = spectral._secular_stack, spectral._newton_refine

    def recorded_stack(system, ks, order=0):
        out = real_stack(system, ks, order)
        stacks.append((order, out.size, ks))
        return out

    def recorded_refine(system, ks, lo, hi):
        before = len(solves)
        out = real_refine(system, ks, lo, hi)
        blocks.append((len(ks), len(solves) - before))
        return out

    monkeypatch.setattr(spectral, "_secular_stack", recorded_stack)
    monkeypatch.setattr(spectral, "_newton_refine", recorded_refine)
    scan_spectrum(g, cond, params)
    # a lockstep step meets the singular iterates of all its brackets at once
    assert bool(slogdets) == bool(singular) and len(slogdets) <= singular
    assert all((real_slogdet(args[0])[0] == 0).any() for args in slogdets)
    # one refine call, whose minima fit in one block
    assert blocks == [(len(state.lows), len(solves))]
    assert len(state.lows) <= spectral._block_length(spectral._secular_system(g, cond), 2)
    # the slowest bracket sets the steps; a failed solve is solved again
    assert len(solves) - len(slogdets) == max(steps)
    assert {order for order, _, _ in stacks} == {0, 2}
    for order, entries, _ in stacks:
        assert entries <= max(spectral._STACK_ENTRIES, (order + 1) * size * size)
    # the order-0 stacks are the grid, then the refined roots; eigvalsh
    # sees each grid point once, and svd only the roots, one matrix per
    # grid minimum
    assert np.concatenate([ks for order, _, ks in stacks if order == 0]).tobytes() == (
        np.concatenate([grid, state.ks]).tobytes())
    assert sum(len(args[0]) for args in eigvalshs) == len(grid)
    roots = real_stack(spectral._secular_system(g, cond), state.ks)[:, 0]
    assert np.concatenate([args[0] for args in svds]).tobytes() == roots.tobytes()


def svd_sigma_min(stack, ks):
    """Reference grid kernel: sigma_min from a full SVD."""
    return np.linalg.svd(stack, compute_uv=False)[:, -1]


def grid_minima(values):
    """Interior grid indices at which ``values`` has a local minimum, as the scan finds them."""
    i = np.arange(1, len(values) - 1)
    return i[(values[i] <= values[i - 1]) & (values[i] <= values[i + 1])]


@st.composite
def gram_scan_gears(draw):
    """Gears with n <= 8, mixed attachments and integer, irrational or
    near-equal lengths."""
    n = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(("integer", "irrational", "near-equal")))
    if kind == "integer":
        lengths = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    elif kind == "irrational":
        lengths = draw(st.lists(st.sampled_from(
            (math.sqrt(2.0), math.sqrt(3.0), math.pi / 2, (1 + math.sqrt(5.0)) / 2, math.e / 2)),
            min_size=n, max_size=n))
    else:
        base = draw(st.sampled_from((1.0, math.sqrt(2.0), 1.5)))
        lengths = [base + j * draw(st.sampled_from((1e-9, 1e-6, 1e-3)))
                   for j in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    attachments = draw(st.lists(st.sampled_from(("tail", "head")), min_size=n, max_size=n))
    return build_gear(GearSpec(n, tuple(lengths), draw(st.sampled_from(("primal", "dual"))),
                               tuple(attachments)))


@settings(deadline=None, max_examples=30)
@given(gram_scan_gears(), st.floats(-3.0, 3.0), st.floats(1.0, 8.0))
def test_gram_grid_minima_equal_the_svd_ones(g, log_w, k_max):
    # sigma_min^2 from the Gram eigenvalues has the grid minima of
    # sigma_min from the SVD, so the scan is bit for bit the scan whose
    # grid kernel is that SVD
    cond, params = VertexConditions(10.0 ** log_w), ScanParams(k_max)
    system, grid = spectral._secular_system(g, cond), scan_grid(params)
    stack = spectral._secular_stack(system, grid)[:, 0]
    assert np.array_equal(grid_minima(spectral._grid_sig_sq(system, grid)),
                          grid_minima(svd_sigma_min(stack, grid)))
    spectral._memo_entry.cache_clear()
    gram = scan_spectrum(g, cond, params)
    state = scan_state_bytes(g, cond)[1:]       # sig_sq holds the kernel's own values
    spectral._memo_entry.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_gram_min", svd_sigma_min)
        assert scan_spectrum(g, cond, params) == gram
        assert scan_state_bytes(g, cond)[1:] == state


def test_scan_lists_a_root_refined_twice_once(monkeypatch):
    # two grid minima whose brackets refine to one root: the DEDUP_GAP
    # merge lists the root once, with the multiplicity of its first copy
    g, cond, params = build_gear(GearSpec(3, (1, 2, 3))), VertexConditions(1.5), ScanParams(4.0)
    cold = scan_spectrum(g, cond, params).entries
    i = next(j for j, (lam, _) in enumerate(cold) if abs(lam - math.pi ** 2) < 1e-9)
    assert cold[i][1] == 2
    real_refine = spectral._newton_refine

    def pi_twice(system, ks, lo, hi):
        out = real_refine(system, ks, lo, hi)
        j = int(np.argmin(np.abs(out - math.pi)))
        out[j + 1] = out[j]
        return out

    monkeypatch.setattr(spectral, "_newton_refine", pi_twice)
    spectral._memo_entry.cache_clear()
    assert scan_spectrum(g, cond, params).entries == cold[:i + 1] + cold[i + 2:]


# ---------------------------------------------------------------------------
# scan memo
# ---------------------------------------------------------------------------

def assert_served_scans_equal_cold(g, cond, first, second):
    """Scans of ``second`` after one of ``first``, and its repeat, equal a cold scan."""
    spectral._memo_entry.cache_clear()
    scan_spectrum(g, cond, first)
    served = [scan_spectrum(g, cond, second) for _ in range(2)]
    spectral._memo_entry.cache_clear()
    cold = scan_spectrum(g, cond, second)
    assert served == [cold, cold]


# k_max 2.984999 and 2.985001 straddle a grid point: the grids have 300
# and 301 points
STRADDLE = (2.985 - 1e-6, 2.985 + 1e-6)
MEMO_CASES = [
    (GOLDEN_GEARS[0][0], 1.5, 4.0, 6.0),
    (GOLDEN_GEARS[0][0], 1.5, 6.0, 4.0),
    (GOLDEN_GEARS[1][0], 2.0, 9.0, 5.0),
    (GOLDEN_GEARS[1][0], 2.0, 5.0, 9.0),
    (GOLDEN_GEARS[1][0], 2.0, *STRADDLE),
    (GOLDEN_GEARS[1][0], 2.0, *reversed(STRADDLE)),
    (build_gear(GearSpec(3, (1, 1, 2), "primal")), 1.0, *STRADDLE),
    # the k = 3.14 grid point next to the root pi is the last point of the
    # first grid, so only the longer grid makes it a minimum
    (interval(), 1.0, 3.12, 3.2),
]


@pytest.mark.parametrize("g,w,k_first,k_second", MEMO_CASES)
def test_memo_serves_scans_equal_to_cold_ones(g, w, k_first, k_second):
    first, second = ScanParams(k_first), ScanParams(k_second)
    if STRADDLE in ((k_first, k_second), (k_second, k_first)):
        assert abs(grid_length(first) - grid_length(second)) == 1
    assert_served_scans_equal_cold(g, VertexConditions(w), first, second)


@st.composite
def scan_gears(draw):
    n = draw(st.integers(3, 4))
    kind = st.integers(1, 4) if draw(st.booleans()) else st.sampled_from(
        (math.sqrt(2.0), math.sqrt(3.0), math.pi / 2, (1 + math.sqrt(5.0)) / 2))
    lengths = draw(st.lists(kind, min_size=n, max_size=n))
    attachments = draw(st.lists(st.sampled_from(("tail", "head")), min_size=n, max_size=n))
    return build_gear(GearSpec(n, tuple(lengths), "primal", tuple(attachments)))


@settings(deadline=None, max_examples=25)
@given(scan_gears(), st.sampled_from([0.4, 1.0, 1.5, 2.0]), st.floats(0.2, 4.0),
       st.floats(0.2, 4.0), st.sampled_from([0.01, 0.02]))
def test_memo_serves_scans_equal_to_cold_ones_property(g, w, k_first, k_second, step):
    assert_served_scans_equal_cold(g, VertexConditions(w), ScanParams(k_first),
                                   ScanParams(k_second, step))


def lookup_hits(g, cond):
    """Memo hits of one `secular_matrix` lookup of (g, cond): 1 or 0."""
    before = spectral._memo_entry.cache_info().hits
    secular_matrix(g, cond, 1.0)
    return spectral._memo_entry.cache_info().hits - before


def test_memo_keeps_two_graphs_with_read_only_systems():
    specs = [GearSpec(3, lengths, "primal") for lengths in ((1, 2, 3), (1, 1, 2), (2, 2, 3))]
    for spec in specs:
        scan_spectrum(build_gear(spec), KN, ScanParams(k_max=2.0))
    info = spectral._memo_entry.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (0, 3, 2, 2)
    # keyed by value: a rebuilt graph hits, and becomes the most recent.
    # specs[1] was stored before specs[2], but its lookup makes specs[2] the
    # least recently used, so a third graph evicts specs[2]
    assert [lookup_hits(build_gear(spec), KN)
            for spec in (specs[1], specs[0], specs[1], specs[2])] == [1, 0, 1, 0]
    system = spectral._memo_entry(build_gear(specs[1]), KN).system
    for array in system:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_memo_serves_the_quantum_route_of_a_dual_pair_from_two_misses():
    # the quantum verdict of one dual pair: both scans, eigenfunctions and
    # their transplants at the first roots, then the walk cross-check,
    # which rebuilds the primal gear; only the two scans build a system
    spec, w = GearSpec(3, (1, 2, 3), "primal"), 1.5
    g1, g2, cond = build_gear(spec), build_gear(dual_gear(spec)), VertexConditions(w)
    params = ScanParams(suggest_k_max(g1, 25))
    s1 = scan_spectrum(g1, cond, params)
    scan_spectrum(g2, cond, params)
    lookups = 2
    for lam, _ in s1.entries[1:6]:
        basis = eigenfunction_basis(g1, cond, math.sqrt(lam))
        for f in basis:
            transplant(f, g2, w)
        lookups += 1 + len(basis)
    assert crosscheck_quantum(spec, w, 2 * math.pi)["agree"]
    lookups += 1
    info = spectral._memo_entry.cache_info()
    assert (info.misses, info.hits) == (2, lookups - 2)
    # a third graph evicts the least recently used one, the dual
    third = build_gear(GearSpec(3, (1, 1, 2), "primal"))
    assert [lookup_hits(g, cond) for g in (third, g1, g2)] == [0, 1, 0]


def test_newton_steps_per_grid_minimum(monkeypatch):
    # guards the convergence speed of the refinement: every grid minimum
    # of the gear123 scan is refined on its own, counting its LU solves
    g, w, k_max = GOLDEN_GEARS[0]
    solves, steps = [], []
    real_solve, real_refine = np.linalg.solve, spectral._newton_refine

    def counting_solve(a, b):
        solves.append(len(a))
        return real_solve(a, b)

    def one_at_a_time(system, ks, lo, hi):
        out = []
        for i in range(len(ks)):
            before = sum(solves)
            out.append(real_refine(system, ks[i:i + 1], lo[i:i + 1], hi[i:i + 1]))
            steps.append(sum(solves) - before)
        return np.concatenate(out)

    monkeypatch.setattr(spectral.np.linalg, "solve", counting_solve)
    monkeypatch.setattr(spectral, "_newton_refine", one_at_a_time)
    spectrum = scan_spectrum(g, VertexConditions(w), ScanParams(k_max))
    assert len(steps) >= len(spectrum.entries) - 1 == 42
    assert sum(steps) <= 6 * len(steps)
    assert max(steps) < spectral._MAX_STEPS


def test_derivative_stack_matches_finite_differences():
    # A' and A'' against central differences of the loop assembly, all
    # divided by the row norms of A at k
    cond = VertexConditions(1.5)
    h = 1e-4
    for g in (PARALLEL, build_gear(GearSpec(3, (1, 2, 3), "dual"))):
        system = spectral._secular_system(g, cond)
        for k in (0.7, 3.1, 11.9):
            a, d1, d2 = spectral._secular_stack(system, np.array([k]), 2)[0]
            raw = [loop_secular_matrix(g, cond, x, normalize=False) for x in (k - h, k, k + h)]
            norms = np.linalg.norm(raw[1], axis=1)[:, None]
            assert np.array_equal(a, raw[1] / norms)
            assert np.allclose(d1, (raw[2] - raw[0]) / (2 * h) / norms, rtol=0, atol=1e-6)
            assert np.allclose(d2, (raw[2] - 2 * raw[1] + raw[0]) / h ** 2 / norms,
                               rtol=0, atol=1e-5)


@pytest.mark.parametrize("w", [1e200, 1e308])
def test_secular_matrix_overflow_raises_without_warnings(w):
    # 1e308 overflows the Kirchhoff entries, 1e200 only their row norms
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectralError, match="overflows at k=1.5"):
            secular_matrix(g, VertexConditions(w), 1.5)


def test_batched_singular_values_reject_non_finite_stack():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    ks = np.array([0.5, 1.0, 1.5])
    stack = np.stack([secular_matrix(g, KN, k) for k in ks])
    assert spectral._singular_values(stack, ks).shape == (3, 12)
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[1, 2, 3] = bad
        with pytest.raises(SpectralError):
            spectral._singular_values(broken, ks)


def test_batched_gram_eigenvalues_reject_non_finite_stack(monkeypatch):
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    ks = np.array([0.5, 1.0, 1.5])
    stack = np.stack([secular_matrix(g, KN, k) for k in ks])
    lam = spectral._gram_min(stack, ks)
    sig = np.linalg.svd(stack, compute_uv=False)[:, -1]
    assert lam.shape == (3,) and np.allclose(lam, sig ** 2, rtol=0, atol=1e-14)
    for bad in (np.nan, np.inf):
        broken = stack.copy()
        broken[1, 2, 3] = bad
        with pytest.raises(SpectralError, match=r"k in \[0.5, 1.5\]|not finite at k=1.0"):
            spectral._gram_min(broken, ks)
    real_eigvalsh = np.linalg.eigvalsh

    def nan_at_second_k(a):
        # any eigenvalue counts, not only the smallest
        lam = real_eigvalsh(a)
        lam[1:2, -1] = np.nan
        return lam

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral.np.linalg, "eigvalsh", nan_at_second_k)
    with pytest.raises(SpectralError, match="Gram eigenvalues not finite at k=1.0"):
        spectral._gram_min(stack, ks)
    monkeypatch.setattr(spectral.np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(SpectralError, match=r"eigvalsh did not converge for k in \[0.5, 1.5\]"):
        spectral._gram_min(stack, ks)
    # and so does the scan (exit 3 at the command line)
    with pytest.raises(SpectralError, match=r"did not converge for k in \[0.01, "):
        scan_spectrum(g, KN, ScanParams(k_max=3.0))


@pytest.mark.parametrize("kwargs", [
    {"k_max": math.inf}, {"k_max": 3.0, "grid_step": math.inf},
    {"k_max": 3.0, "grid_step": math.nan}, {"k_max": -1.0},
    {"k_max": "5"}, {"k_max": 5, "grid_step": "0.01"}, {"k_max": None}])
def test_scan_params_require_positive_finite(kwargs):
    with pytest.raises(SpectralError, match="^(k_max|grid_step) must be positive and finite$"):
        ScanParams(**kwargs)


def test_scan_params_reject_a_grid_beyond_max_grid_points():
    assert spectral.MAX_GRID_POINTS == 10 ** 7
    ScanParams(k_max=5e4)
    ScanParams(k_max=1e4, grid_step=0.002)
    for kwargs in ({"k_max": 1e6}, {"k_max": 1.0, "grid_step": 1e-8}):
        with pytest.raises(SpectralError, match="k_max / grid_step"):
            ScanParams(**kwargs)


def ring(edge_count):
    return MetricGraph(edge_count, tuple(Edge(i, i, (i + 1) % edge_count, 1.0)
                                         for i in range(edge_count)), "ring")


def test_secular_size_is_bounded_before_any_stack(monkeypatch):
    # a ring of m edges has a 2m x 2m secular system, at most 2048 x 2048
    assert validate_metric(ring(1024)) == []

    def no_stack(*args, **kwargs):
        raise AssertionError("secular stack built past MAX_SECULAR_SIZE")

    monkeypatch.setattr(spectral, "_secular_stack", no_stack)
    over = ring(1025)
    message = "^secular system of 2050 rows exceeds MAX_SECULAR_SIZE = 2048$"
    with pytest.raises(SpectralError, match=message):
        scan_spectrum(over, KN, ScanParams(k_max=0.05))
    with pytest.raises(SpectralError, match=message):
        secular_matrix(over, KN, 1.0)


@pytest.mark.parametrize("w", [math.inf, math.nan, 0.0, -1.0, "3/2", None, 1j])
def test_vertex_conditions_require_positive_finite_weight(w):
    with pytest.raises(SpectralError, match="^weight w must be positive and finite$"):
        VertexConditions(w)


@pytest.mark.parametrize("w", [1e-310, 1e-320, 5e-324])
def test_scan_at_a_subnormal_tooth_weight_warns_nothing(w):
    # Newton may meet an exactly singular secular matrix there and then
    # reads only the sign of its slogdet
    spec = GearSpec(3, (1, 2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan_spectrum(build_gear(spec), VertexConditions(w), ScanParams(5.0))
    # the memo serves the cross-check the same scan
    assert crosscheck_quantum(spec, w, 5.0)["agree"]


@pytest.mark.parametrize("w", [1e-300, 1e-310, 1e-320, 5e-324])
@pytest.mark.parametrize("lengths", [(1, 2, 3), (1, 2, 3, 5)], ids=["123", "1235"])
def test_scan_matches_the_walk_at_a_tiny_tooth_weight(lengths, w):
    # a leaf's Kirchhoff row holds only w-weighted entries: unscaled, their
    # squares underflow, the row stays near 0 and every grid minimum passes
    # as a root
    assert crosscheck_quantum(GearSpec(len(lengths), lengths), w, 4.0)["agree"]


@pytest.mark.parametrize("w", [0.5, 1.0, 1.5, 2.0, 0.3, 1e-13, 1e-300, 5e-324])
def test_secular_system_scales_only_kirchhoff_rows_of_small_weights(w):
    """A leaf's Kirchhoff row holds only w; below w = 1/2 it is scaled by a
    power of two to w's mantissa in [1/2, 1).  Every other row keeps its
    edge weights, so from w = 1/2 on the system is the unscaled one."""
    g = build_gear(GearSpec(3, (1, 2, 3)))
    cond = VertexConditions(w)
    system = spectral._secular_system(g, cond)
    size = 2 * g.edge_count
    kirchhoff = system.scaled
    rows = system.cells[kirchhoff] // size
    edges = [g.edges[e] for e in system.cells[kirchhoff] % size // 2]
    coef = np.abs(system.coef[kirchhoff])
    for r in np.unique(rows):
        in_row = np.flatnonzero(rows == r)
        leaf = all(edges[i].cls == TOOTH for i in in_row)
        expected = [np.frexp(w)[0] if leaf and w < 0.5 else cond.edge_weight(edges[i])
                    for i in in_row]
        assert np.array_equal(coef[in_row], expected)
    assert np.all(np.abs(system.coef[~kirchhoff]) == 1.0)


def test_gear_112_count():
    g = build_gear(GearSpec(3, (1, 1, 2), "primal"))
    assert scan_spectrum(g, KN, ScanParams(k_max=6.0)).count() == 15


@pytest.mark.xfail(strict=True, reason="the grid scan misses the partner of the "
                   "k = 3.1408082 root at 3.1408067; the count is not certified")
def test_near_degenerate_cluster_not_dropped():
    # (1, 1.001, 2) has as many eigenvalues below k = 6 as (1, 1, 2)
    g = build_gear(GearSpec(3, (1, 1.001, 2), "primal"))
    assert scan_spectrum(g, KN, ScanParams(k_max=6.0)).count() == 15


@pytest.mark.xfail(strict=True, reason="the default grid has one sigma_min minimum for "
                   "k = 3.9324913 and its neighbour; a grid_step=0.003 scan finds both")
def test_thth_default_scan_finds_the_fine_grid_root():
    # the fine-grid scan is pinned by test_cli::test_grid_step_finds_the_thth_root
    g, w, k_max = GOLDEN_GEARS[1]
    s = scan_spectrum(g, VertexConditions(w), ScanParams(k_max))
    assert min(abs(math.sqrt(lam) - 3.9324913) for lam, _ in s.entries) < 1e-6


@pytest.mark.xfail(strict=True, reason="the grid scan finds 85 of the 88 eigenvalues the walk "
                   "predicts below k = 9.37; the first miss is k = 2.9812366")
@pytest.mark.parametrize("variant", ["primal", "dual"])
def test_integer_gear_scan_matches_walk_prediction(variant):
    spec = GearSpec(5, (1, 2, 3, 4, 5), variant)
    assert crosscheck_quantum(spec, Fraction(1, 2), 9.37)["agree"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the walk predicts 136 eigenvalues below k = 6 and the grid scan finds "
                   "118; the first miss is the lowest nonzero one, k = 0.10720")
def test_eight_tooth_gear_scan_matches_walk_prediction():
    spec, w = GearSpec(8, (1, 2, 3, 4, 5, 6, 7, 8)), Fraction(3, 2)
    cold = crosscheck_quantum(spec, w, 6.0)
    # a scan past k = 6 first, as in a benchmark verdict: the memo serves
    # the cross-check's scan and must report the same miss
    scan_spectrum(build_gear(spec), VertexConditions(1.5), ScanParams(k_max=6.5))
    if crosscheck_quantum(spec, w, 6.0) != cold:
        pytest.fail("the memo changed the cross-check report")
    assert cold["agree"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at w = 1000 the walk predicts 14 eigenvalues below k = 4, in 13 "
                   "entries, and the default grid finds 10; the first miss is k = 0.0234997")
def test_large_tooth_weight_default_scan_matches_walk_prediction():
    assert crosscheck_quantum(GearSpec(3, (1, 2, 3)), 1000, 4.0)["agree"]


def test_large_tooth_weight_fine_grid_scan_matches_walk_prediction():
    # the w = 1000 gear's roots come in pairs 0.019 to 0.032 apart, which
    # the default grid loses; a grid of step 0.001 finds all 14
    spec, k_max = GearSpec(3, (1, 2, 3)), 4.0
    s = scan_spectrum(build_gear(spec), VertexConditions(1000.0), ScanParams(k_max, 0.001))
    limit = k_max - 1e-6
    scanned = [(math.sqrt(lam), mult) for lam, mult in s.entries
               if lam > 0 and math.sqrt(lam) < limit]
    predicted = predicted_wavenumbers(markov_matrix(subdivide(build_gear(spec)), 1000), limit)
    assert sum(mult for _, mult in predicted) == 14
    assert [mult for _, mult in scanned] == [mult for _, mult in predicted]
    assert max(abs(k - p) for (k, _), (p, _) in zip(scanned, predicted)) < 1e-12


@pytest.mark.parametrize("edge, problem", [
    (Edge(1, 1, 0, -1.0), "edge 1: length must be positive and finite"),
    (Edge(1, 1, 0, 1.0, 0.0), "edge 1: weight must be positive and finite"),
    (Edge(1, 1, 0, math.nan), "edge 1: length must be positive and finite"),
    (Edge(0, 1, 0, 1.0), "edge 0: duplicate id"),
], ids=["length-negative", "weight-zero", "length-nan", "duplicate-id"])
def test_scan_rejects_invalid_metric_graphs(edge, problem):
    g = MetricGraph(2, (Edge(0, 0, 1, 1.0), edge))
    with pytest.raises(SpectralError, match=f"^{problem}$"):
        scan_spectrum(g, KN, ScanParams(k_max=3.0))
    with pytest.raises(SpectralError, match=f"^{problem}$"):
        secular_matrix(g, KN, 1.0)


def test_scan_rejects_disconnected():
    g = MetricGraph(4, (Edge(0, 0, 1, 1.0), Edge(1, 2, 3, 1.0)))
    with pytest.raises(SpectralError):
        scan_spectrum(g, KN, ScanParams(k_max=3.0))


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------

def test_interval_eigenfunction_is_cosine():
    basis = eigenfunction_basis(interval(), KN, math.pi)
    assert len(basis) == 1
    a, b = basis[0].coeffs[0]
    assert abs(abs(a) - 1.0) < 1e-9 and abs(b) < 1e-9


def test_basis_rejects_non_roots():
    with pytest.raises(NotAnEigenvalue):
        eigenfunction_basis(interval(), KN, math.pi / 2)


def test_gear_dirichlet_multiplicity_at_pi():
    # circle of circumference 6 at k = pi carries a 2-dim eigenspace
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    assert len(eigenfunction_basis(g, KN, math.pi)) == 2


def test_evaluate_and_derivative():
    g = interval()
    k = 2.0
    cos_f = Eigenfunction(g, k, ((1.0, 0.0),))
    sin_f = Eigenfunction(g, k, ((0.0, 1.0),))
    assert evaluate(cos_f, 0, 0.0) == 1.0
    assert evaluate_derivative(cos_f, 0, 0.0) == 0.0
    assert evaluate_derivative(sin_f, 0, 0.0) == k
    for outside in (-0.5, 2.0):
        with pytest.raises(SpectralError, match="outside"):
            evaluate(cos_f, 0, outside)
        with pytest.raises(SpectralError, match="outside"):
            evaluate_derivative(sin_f, 0, outside)


def test_weighted_inner_rejects_eigenfunctions_of_two_graphs():
    def cosine(length):
        return Eigenfunction(interval(length), 2.0, ((1.0, 0.0),))

    with pytest.raises(SpectralError, match="different graphs"):
        weighted_inner(cosine(1.0), cosine(2.0), KN)
    # equal edges on two graph objects are one graph
    f = cosine(1.0)
    assert weighted_inner(cosine(1.0), f, KN) == weighted_inner(f, f, KN)


def test_cosine_norm_on_unit_interval():
    f = Eigenfunction(interval(), math.pi, ((1.0, 0.0),))
    assert abs(weighted_inner(f, f, KN) - 0.5) < 1e-12


def test_pair_integral_against_quadrature():
    # independent oracle of weighted_inner: composite Simpson on random
    # coefficient pairs over one tooth edge, weighted by its weight and w
    import random

    def simpson(fun, l, n=4000):
        xs = [l * i / n for i in range(n + 1)]
        ws = [1 if i in (0, n) else (4 if i % 2 else 2) for i in range(n + 1)]
        return sum(w * fun(x) for w, x in zip(ws, xs)) * l / (3 * n)

    rng = random.Random(13)
    cases = [(2.0, 2.0), (2.0, 3.7), (1.0, 1.0 + 1e-14)]
    for k1, k2 in cases:
        a1, b1, a2, b2 = (rng.uniform(-2, 2) for _ in range(4))
        l, weight, w = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        g = MetricGraph(2, (Edge(0, 0, 1, l, weight, TOOTH),))
        f, h = Eigenfunction(g, k1, ((a1, b1),)), Eigenfunction(g, k2, ((a2, b2),))
        exact = weighted_inner(f, h, VertexConditions(w))
        approx = weight * w * simpson(lambda x: evaluate(f, 0, x) * evaluate(h, 0, x), l)
        assert abs(exact - approx) < 1e-9 * max(1.0, abs(exact))


def test_eigenfunctions_weighted_orthogonal_across_roots():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    cond = VertexConditions(1.5)
    s = scan_spectrum(g, cond, ScanParams(k_max=3.0))
    funcs = []
    for lam, _ in s.entries[1:]:
        funcs.extend(eigenfunction_basis(g, cond, math.sqrt(lam)))
    l = np.array([e.length for e in g.edges])
    wgt = np.array([cond.edge_weight(e) for e in g.edges])
    for f in funcs:
        # orthogonal to the constants: sum_e w_e int_0^l_e f_e dx = 0
        (a, b), k = f.coeffs.T, f.k
        mean = wgt @ (a * np.sin(k * l) + b * (1.0 - np.cos(k * l))) / k
        assert abs(mean) <= 1e-6 * math.sqrt(weighted_inner(f, f, cond) * (wgt @ l))
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            if funcs[i].k == funcs[j].k:
                continue
            ip = weighted_inner(funcs[i], funcs[j], cond)
            scale = math.sqrt(weighted_inner(funcs[i], funcs[i], cond)
                              * weighted_inner(funcs[j], funcs[j], cond))
            assert abs(ip) <= 1e-6 * scale


def test_vertex_residual_flags_bad_coefficients():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    k = math.sqrt(scan_spectrum(g, KN, ScanParams(k_max=2.0)).entries[1][0])
    f = eigenfunction_basis(g, KN, k)[0]
    assert vertex_residual(f, KN) < 1e-10
    bad = Eigenfunction(g, k, ((1.0, 0.5),) * 6)
    assert vertex_residual(bad, KN) > 1e-3


# ---------------------------------------------------------------------------
# spectrum invariances
# ---------------------------------------------------------------------------

def test_degree_two_insertion_invariance():
    g = build_gear(GearSpec(3, (1, 2, 3), "primal"))
    split = insert_degree_two_vertex(g, 1, 0.37)
    p = ScanParams(k_max=4.0)
    s1, s2 = scan_spectrum(g, KN, p), scan_spectrum(split, KN, p)
    rep = compare_spectra(s1, s2)
    assert rep["max_rel_gap"] < 1e-8
    assert not rep["multiplicity_mismatches"]


def test_length_scaling_scales_eigenvalues():
    spec = GearSpec(3, (1, 1, 2), "primal")
    s = 1.7
    scaled = GearSpec(3, tuple(s * l for l in spec.lengths), "primal")
    s1 = scan_spectrum(build_gear(spec), KN, ScanParams(k_max=3.4))
    s2 = scan_spectrum(build_gear(scaled), KN, ScanParams(k_max=3.4 / s))
    for (l1, m1), (l2, m2) in zip(s1.entries[1:6], s2.entries[1:6]):
        assert m1 == m2
        assert abs(l2 - l1 / s ** 2) <= 1e-8 * max(1.0, abs(l2))


def test_compare_spectra_reports():
    g = build_gear(GearSpec(3, (1, 1, 2), "primal"))
    s1 = scan_spectrum(g, KN, ScanParams(k_max=3.0))
    rep = compare_spectra(s1, s1)
    assert rep["max_rel_gap"] == 0.0 and rep["match"]
    from gearlab.spectral import Spectrum
    shifted = Spectrum(tuple((lam * (1 + 1e-3), m) for lam, m in s1.entries), s1.k_max)
    rep = compare_spectra(s1, shifted)
    assert not rep["match"] and rep["max_rel_gap"] > 1e-4
    with pytest.raises(SpectralError):
        compare_spectra(s1, Spectrum(s1.entries, 99.0))


def spec_of(*entries, k_max=10.0):
    return spectral.Spectrum(tuple(entries), k_max)


def test_compare_first_equal_spectra():
    s = spec_of((0.0, 1), (1.0, 2), (4.0, 1))
    rep = compare_first(s, s, 4)
    assert rep["match"] and rep["max_rel_gap"] == 0.0
    assert rep["multiplicity_mismatches"] == []


def test_compare_first_reads_only_the_first_count_eigenvalues():
    near = spec_of((0.0, 1), (1.0, 2), (4.0, 1))
    far = spec_of((0.0, 1), (1.0, 2), (5.0, 3))
    assert compare_first(near, far, 3)["match"]
    rep = compare_first(near, far, 4)
    assert not rep["match"] and rep["max_rel_gap"] == pytest.approx(0.2)


def test_compare_first_count_cuts_inside_a_multiplicity():
    # the third eigenvalue is the first of a triple on one side, the last
    # of a double on the other: the first three agree
    s1 = spec_of((0.0, 1), (1.0, 2), (4.0, 1))
    s2 = spec_of((0.0, 1), (1.0, 3))
    rep = compare_first(s1, s2, 3)
    assert rep["match"] and rep["max_rel_gap"] == 0.0
    assert rep["multiplicity_mismatches"] == []
    assert compare_first(s2, s1, 3)["match"]
    assert not compare_first(s1, s2, 4)["match"]


def test_compare_first_with_fewer_than_count_eigenvalues():
    s1 = spec_of((0.0, 1), (1.0, 2), (4.0, 2))
    s2 = spec_of((0.0, 1), (1.0, 2), (4.0, 1))
    rep = compare_first(s1, s2, 5)
    assert not rep["match"] and rep["max_rel_gap"] == math.inf
    assert rep["multiplicity_mismatches"] == [
        {"index": None, "lam": None, "mult_1": 5, "mult_2": 4}]
    assert compare_first(s1, s2, 4)["match"]


def test_compare_first_multiplicity_mismatch_within_count():
    # a double against two simple eigenvalues closer than GAP_TOL
    s1 = spec_of((0.0, 1), (1.0, 2), (4.0, 1))
    s2 = spec_of((0.0, 1), (1.0, 1), (1.0 + 1e-12, 1), (4.0, 1))
    rep = compare_first(s1, s2, 4)
    assert not rep["match"]
    assert rep["multiplicity_mismatches"][0] == {"index": 1, "lam": 1.0, "mult_1": 2,
                                                 "mult_2": 1}


def test_compare_first_report_keys_read_by_the_benchmark():
    s1 = spec_of((0.0, 1), (1.0, 1), (4.0, 1))
    s2 = spec_of((0.0, 1), (1.0 + 1e-6, 1), (4.0, 1))
    rep = compare_first(s1, s2, 3)
    assert type(rep["max_rel_gap"]) is float
    assert rep["max_rel_gap"] == pytest.approx(1e-6, rel=1e-5)
    assert rep["multiplicity_mismatches"] == [] and rep["match"] is False


def test_compare_first_rejects_a_multiplicity_split_at_the_count():
    # two close simple eigenvalues against a triple: the first two
    # eigenvalues agree within GAP_TOL, but not entry by entry
    s1 = spec_of((0.0, 1), (1.0, 1), (1.0 + 1e-12, 1))
    s2 = spec_of((0.0, 1), (1.0, 3))
    assert parent_compare_first(s1, s2, 3)["match"]
    rep = compare_first(s1, s2, 3)
    assert not rep["match"]
    assert rep["multiplicity_mismatches"][-1] == {"index": 2, "lam": None, "mult_1": 3,
                                                  "mult_2": 2}
    assert rep["pairs"] == [(0.0, 0.0, 1, 1), (1.0, 1.0, 1, 2)]


def parent_compare_first(s1, s2, count):
    """compare_first as it compared expanded eigenvalue lists, kept as a reference."""
    e1 = [lam for lam, mult in s1.entries for _ in range(mult)]
    e2 = [lam for lam, mult in s2.entries for _ in range(mult)]
    if len(e1) < count or len(e2) < count:
        return {"max_rel_gap": math.inf, "match": False}
    max_gap = 0.0
    for l1, l2 in zip(e1[:count], e2[:count]):
        denom = max(abs(l1), abs(l2))
        max_gap = max(max_gap, 0.0 if denom == 0 else abs(l1 - l2) / denom)
    mism = []
    budget = count
    for i in range(min(len(s1.entries), len(s2.entries))):
        if budget <= 0:
            break
        l1, m1 = s1.entries[i]
        _, m2 = s2.entries[i]
        if budget >= max(m1, m2) and m1 != m2:
            mism.append(i)
        budget -= m1
    return {"max_rel_gap": max_gap, "match": max_gap <= spectral.GAP_TOL and not mism}


def first_multiplicities(s, count):
    """The multiplicities of s's first ``count`` eigenvalues, entry by entry."""
    out = []
    for _, mult in s.entries:
        if count <= 0:
            break
        out.append(min(mult, count))
        count -= mult
    return out


def boundary_split(s1, s2, count):
    """Whether, at the first entry where the cut multiplicities differ, the
    count ends inside one of the two full multiplicities."""
    budget = count
    for (_, m1), (_, m2), t1, t2 in zip(s1.entries, s2.entries,
                                        first_multiplicities(s1, count),
                                        first_multiplicities(s2, count)):
        if t1 != t2:
            return max(m1, m2) > budget
        budget -= t1
    return False


@st.composite
def spectrum_pairs(draw):
    """A spectrum and a variant of it: entries kept, shifted within or beyond
    GAP_TOL, re-weighted, split in two close entries, merged with the next,
    and the tail cut; then a count up to two past the smaller total."""
    lams = sorted(set(draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))))
    e1 = [(0.0, 1)] + [(float(lam), draw(st.integers(1, 4))) for lam in lams]
    e2 = [(0.0, 1)]
    i = 1
    while i < len(e1):
        lam, mult = e1[i]
        op = draw(st.sampled_from(["keep", "near", "far", "mult", "split", "merge"]))
        if op == "near":
            e2.append((lam * (1 + 1e-12), mult))
        elif op == "far":
            e2.append((lam * (1 + 1e-3), mult))
        elif op == "mult":
            e2.append((lam, draw(st.integers(1, 4))))
        elif op == "split" and mult > 1:
            part = draw(st.integers(1, mult - 1))
            e2 += [(lam, part), (lam * (1 + 1e-12), mult - part)]
        elif op == "merge" and i + 1 < len(e1):
            e2.append((lam, mult + e1[i + 1][1]))
            i += 1
        else:
            e2.append((lam, mult))
        i += 1
    e2 = e2[:draw(st.integers(1, len(e2)))]
    s1, s2 = spec_of(*e1), spec_of(*e2)
    if draw(st.booleans()):
        s1, s2 = s2, s1
    count = draw(st.integers(0, min(s1.count(), s2.count()) + 2))
    return s1, s2, count


@settings(deadline=None, max_examples=400)
@given(spectrum_pairs())
def test_compare_first_against_the_expanded_comparison(pair):
    s1, s2, count = pair
    new, old = compare_first(s1, s2, count), parent_compare_first(s1, s2, count)
    if new["match"]:
        assert old["match"]
    if not boundary_split(s1, s2, count):
        assert new["match"] == old["match"]
    if (first_multiplicities(s1, count) == first_multiplicities(s2, count)
            or old["max_rel_gap"] == math.inf):
        assert new["max_rel_gap"] == old["max_rel_gap"]
