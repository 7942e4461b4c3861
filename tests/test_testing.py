"""Operator norms and testing constants against independent oracles."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twoweight import GridSpec, LeafMeasure, build_grid, indicator, lebesgue
from twoweight.exceptions import NormError
from twoweight.haar import basis
from twoweight.localization import ewl_radius
from twoweight.operators import (
    COEFFICIENT_BUILDERS,
    CoefficientSequence,
    DyadicOperator,
    haar_shift,
    martingale_transform,
    paraproduct,
    random_ewl,
    zero_operator,
)
from twoweight.perfect_dyadic import perfect_dyadic_operator, random_kernel
from twoweight.testing import LANCZOS_MIN_LEAVES, admissible_pairs, lanczos_norm, operator_norm
from twoweight.testing import testing_report as make_report

from conftest import random_measure


def pair(rng, grid, zero_fraction=0.0, low=0.0):
    return (random_measure(grid, rng, zero_fraction, low=low),
            random_measure(grid, rng, zero_fraction, low=low))


def test_zero_operator_all_zero(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = pair(rng, grid, low=0.1)
    rep = make_report(zero_operator(grid, sigma, omega))
    assert rep.norm == rep.c1 == rep.c2 == rep.c3 == 0.0
    assert rep.c1_global == rep.c2_global == 0.0
    assert rep.ratio_sum == 0.0 and rep.ratio_max == 0.0


def test_undefined_norm_for_massless_side(rng):
    grid = build_grid(GridSpec(1, 2))
    sigma = LeafMeasure(grid, np.zeros(4))
    omega = random_measure(grid, rng, low=0.1)
    with pytest.raises(NormError):
        operator_norm(zero_operator(grid, sigma, omega))


def test_unit_martingale_norm_and_c1_hand_value():
    # b = 1, sigma = omega = Lebesgue on [0,1), depth 2: T f = f - mean,
    # c1 = max_E (1 - |E|) = 3/4 attained at leaf volume 1/4
    grid = build_grid(GridSpec(1, 2))
    leb = lebesgue(grid)
    t = martingale_transform(CoefficientSequence.constant(grid, 1.0), leb, leb)
    rep = make_report(t, r=0)
    assert rep.norm == pytest.approx(1.0, abs=1e-9)
    assert rep.c1 == pytest.approx(0.75, abs=1e-12)
    assert rep.c2 == pytest.approx(0.75, abs=1e-12)
    assert rep.ratio_sum <= 1.0


def test_two_leaf_closed_form_singular_value(rng):
    # n=1, d=1: whitened matrix is 2x2; compare against the closed form
    grid = build_grid(GridSpec(1, 1))
    sigma, omega = pair(rng, grid, low=0.2)
    t = random_ewl(1, sigma, omega, 4)
    w = t.w
    gram = w.T @ w
    tr, det = np.trace(gram), np.linalg.det(gram)
    disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
    closed = np.sqrt((tr + disc) / 2)
    assert operator_norm(t) == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("n,d", [(1, 10), (2, 5)])
def test_martingale_norm_closed_form_at_1024_leaves(n, d, rng):
    # T_b maps h^sigma_E to b_E h^omega_E, so W is diagonal on the slots both
    # measures charge and the norm is the largest |b_E| there
    grid = build_grid(GridSpec(n, d))
    sigma, omega = pair(rng, grid, zero_fraction=0.2)
    b = CoefficientSequence.random(grid, rng)
    both = basis(sigma).charged_slots() & basis(omega).charged_slots()
    assert grid.num_leaves == 1024 and 0 < np.count_nonzero(both) < grid.num_leaves
    closed = float(np.max(np.abs(b.values[both])))
    t = martingale_transform(b, sigma, omega)
    assert operator_norm(t) == closed  # sqrt(0.0 + b**2) == |b| exactly


NORM_FAMILIES = [*COEFFICIENT_BUILDERS, "random_ewl0", "random_ewl1", "random_ewl2", "custom"]


def _family_operator(family, grid, sigma, omega, rng):
    """One operator of a family; "random_ewlR" has radius R, "custom" is a dense W."""
    if family in COEFFICIENT_BUILDERS:
        return COEFFICIENT_BUILDERS[family](CoefficientSequence.random(grid, rng), sigma, omega)
    if family.startswith("random_ewl"):
        return random_ewl(int(family[-1]), sigma, omega, rng.integers(2**32))
    if family == "perfect_dyadic":
        kernel = random_kernel(grid, 1, int(rng.integers(2**32)))
        return perfect_dyadic_operator(kernel, sigma, omega)
    n = grid.num_leaves
    return DyadicOperator(grid, sigma, omega, rng.standard_normal((n, n)))


def _svd_norm(t):
    return float(np.linalg.svd(t.w, compute_uv=False)[0])


LANCZOS_GRIDS = [(1, 9), (1, 10), (2, 5)]  # 512 and 1024 leaves


def _lanczos_families(n, d):
    """NORM_FAMILIES, plus perfect-dyadic operators but at n=1 d=10: there the
    dense W adds about 2.6 s to the two tests (mostly the Lanczos norm) and
    reaches no path that n=1 d=9 does not."""
    return NORM_FAMILIES if (n, d) == (1, 10) else [*NORM_FAMILIES, "perfect_dyadic"]


@pytest.mark.parametrize("n,d", LANCZOS_GRIDS)
def test_lanczos_norm_matches_svd_every_family(n, d, rng):
    grid = build_grid(GridSpec(n, d))
    assert grid.num_leaves >= LANCZOS_MIN_LEAVES
    sigma, omega = pair(rng, grid, zero_fraction=0.2)
    for family in _lanczos_families(n, d):
        if family == "haar_shift" and n > 1:
            continue
        t = _family_operator(family, grid, sigma, omega, rng)
        assert operator_norm(t) == pytest.approx(_svd_norm(t), rel=1e-13), family


def _coupled_martingale(values, sigma, omega, row, col, entry):
    """The martingale transform of values with one more nonzero in W, at
    (row, col): its Gram matrices are not diagonal, so lanczos_norm iterates."""
    w = martingale_transform(CoefficientSequence(sigma.grid, values), sigma, omega).w.copy()
    w[row, col] = entry
    return DyadicOperator(sigma.grid, sigma, omega, w)


def _compressed_gram(w):
    """The Gram matrix lanczos_norm iterates on: the smaller one of w
    restricted to its nonzero rows and columns."""
    w = w[np.any(w, axis=1)][:, np.any(w, axis=0)]
    return w.T @ w if w.shape[1] <= w.shape[0] else w @ w.T


@pytest.mark.parametrize("n,d", LANCZOS_GRIDS)
def test_lanczos_norm_doubled_top_singular_value(n, d, rng, monkeypatch):
    # two slots share the largest |b|: the top singular value of W is double;
    # the coupled slots 1 and 2 stay below it (|b| <= 0.9, entry 0.05)
    grid = build_grid(GridSpec(n, d))
    sigma, omega = pair(rng, grid, low=0.1)  # every slot charged on both sides
    values = rng.uniform(-0.9, 0.9, grid.num_leaves)
    values[0] = 0.0
    values[[3, grid.num_leaves - 5]] = [1.0, -1.0]
    t = _coupled_martingale(values, sigma, omega, 1, 2, 0.05)
    assert np.sort(np.linalg.svd(t.w, compute_uv=False))[-2] == pytest.approx(1.0, rel=1e-15)
    norm, steps = _lanczos_steps(monkeypatch, t)
    assert steps > 1
    assert operator_norm(t) == norm == pytest.approx(1.0, rel=1e-13)


def _lanczos_steps(monkeypatch, t):
    """(lanczos_norm(t), its step count): it solves one tridiagonal eigh per step."""
    sizes = []
    eigh = np.linalg.eigh

    def counted(a):
        sizes.append(len(a))
        return eigh(a)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", counted)
        norm = lanczos_norm(t)
    assert sizes == list(range(1, len(sizes) + 1))
    return norm, len(sizes)


@pytest.mark.parametrize("n,d", LANCZOS_GRIDS)
def test_lanczos_norm_rank_one_single_row_and_zero_charged_block(n, d, rng, monkeypatch):
    grid = build_grid(GridSpec(n, d))
    sigma, omega = pair(rng, grid, zero_fraction=0.2)
    size = grid.num_leaves
    rows = basis(omega).charged_slots()
    cols = basis(sigma).charged_slots()
    assert not rows.all() and not cols.all()
    u, v = rng.standard_normal(size), rng.standard_normal(size)
    rank_one = DyadicOperator(grid, sigma, omega, np.outer(u, v))
    closed = np.linalg.norm(u[rows]) * np.linalg.norm(v[cols])
    norm, steps = _lanczos_steps(monkeypatch, rank_one)
    # breakdown: the start vector and the one image direction span the space
    assert steps == 2
    assert operator_norm(rank_one) == norm == pytest.approx(closed, rel=1e-13)
    assert norm == pytest.approx(_svd_norm(rank_one), rel=1e-13)
    one_row = np.zeros((size, size))
    one_row[np.flatnonzero(rows)[3]] = v
    single = DyadicOperator(grid, sigma, omega, one_row)
    assert operator_norm(single) == pytest.approx(np.linalg.norm(v[cols]), rel=1e-13)
    # entries only where a slot is uncharged: the mask clears all of them
    outside = rng.standard_normal((size, size))
    outside[np.ix_(rows, cols)] = 0.0
    assert operator_norm(DyadicOperator(grid, sigma, omega, outside)) == 0.0


@pytest.mark.parametrize("d", [4, 5, 6])
def test_lanczos_norm_krylov_exhaustion_small_grids(d, rng):
    # 16-64 leaves: the iteration runs until its basis spans the smaller side
    # or breaks down, including rank-deficient paraproducts
    grid = build_grid(GridSpec(1, d))
    for zero_fraction in (0.0, 0.2):
        sigma, omega = pair(rng, grid, zero_fraction=zero_fraction)
        for family in [*NORM_FAMILIES, "perfect_dyadic"]:
            t = _family_operator(family, grid, sigma, omega, rng)
            assert lanczos_norm(t) == pytest.approx(_svd_norm(t), rel=1e-13), family


@pytest.mark.parametrize("d", [4, 5, 6])
def test_lanczos_norm_top_cluster_at_exhaustion(d, rng, monkeypatch):
    # |b| crowds towards its maximum 1 - 1e-15: the top Ritz value settles
    # only once the basis spans every slot, and only with an orthogonal basis.
    # The coupling sits on the two smallest nonzero |b|, away from the cluster.
    grid = build_grid(GridSpec(1, d))
    sigma, omega = pair(rng, grid, low=0.1)
    values = np.zeros(grid.num_leaves)
    values[1:] = 1.0 - np.geomspace(1e-15, 1.0, grid.num_leaves - 1)
    last = grid.num_leaves - 2  # values[-1] is 0
    t = _coupled_martingale(values, sigma, omega, last, last - 1, 0.01)
    norm, steps = _lanczos_steps(monkeypatch, t)
    assert steps == _compressed_gram(t.w).shape[0]
    assert norm == pytest.approx(_svd_norm(t), rel=1e-13)


@pytest.mark.parametrize("n,d", [(1, 10), (2, 5)])
def test_lanczos_norm_repeatable_and_adjoint_invariant(n, d, rng):
    grid = build_grid(GridSpec(n, d))
    sigma, omega = pair(rng, grid, zero_fraction=0.2)
    for family in _lanczos_families(n, d):
        if family == "haar_shift" and n > 1:
            continue
        t = _family_operator(family, grid, sigma, omega, rng)
        norm = operator_norm(t)
        assert operator_norm(t) == norm  # bit for bit
        # ||T|| = ||T*||: the same spectrum, reached from the other side
        assert operator_norm(t.adjoint()) == pytest.approx(norm, rel=1e-13), family


def _lanczos_reference_steps(gram):
    """Steps of plain dense Lanczos on gram until the documented rule stops it."""
    eps = np.finfo(np.float64).eps
    k = gram.shape[0]
    start = np.random.default_rng(0).standard_normal(k)
    vectors = [start / np.linalg.norm(start)]
    alpha, beta = [], []
    for j in range(k):
        y = gram @ vectors[j]
        floor = np.sqrt(k) * eps * np.linalg.norm(y)
        done = np.array(vectors)
        alpha.append(0.0)
        for _ in range(2):
            h = done @ y
            y = y - h @ done
            alpha[j] += h[j]
        beta.append(np.linalg.norm(y))
        tri = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
        theta, s = np.linalg.eigh(tri)
        if beta[j] * abs(s[-1, -1]) <= eps * theta[-1] or beta[j] <= floor or j + 1 == k:
            return j + 1
        vectors.append(y / beta[j])


def test_lanczos_norm_stops_at_the_documented_rule(rng, monkeypatch):
    # a 1024-leaf martingale transform with one coupled row converges slowly
    # (close top values of |b|), so a looser or tighter residual bound moves
    # its stopping step
    grid = build_grid(GridSpec(1, 10))
    sigma, omega = pair(rng, grid, low=0.1)
    b = CoefficientSequence.random(grid, rng)
    t = _coupled_martingale(b.values, sigma, omega, 1, 2, 0.05)
    want = _lanczos_reference_steps(_compressed_gram(t.w))
    norm, steps = _lanczos_steps(monkeypatch, t)
    assert 50 < want < grid.num_leaves - 1
    assert abs(steps - want) <= 1
    assert norm == pytest.approx(_svd_norm(t), rel=1e-13)


def test_lanczos_norm_closed_form_on_a_diagonal_gram(rng, monkeypatch):
    # a martingale transform, a Haar shift and their adjoints: no two
    # nonzeros of W share a row (or, for the adjoints, a column).  Then the
    # martingale transform with -0.0 entries beside its nonzeros: W's
    # nonzero list holds them (the input stages need their sign), but they
    # are no entries of the Gram matrix, which stays diagonal
    grid = build_grid(GridSpec(1, 10))
    sigma, omega = pair(rng, grid, zero_fraction=0.2)
    b = CoefficientSequence.random(grid, rng)
    t = martingale_transform(b, sigma, omega)
    w = t.w.copy()
    live = np.flatnonzero(np.diag(w))
    w[live[:-1], live[1:]] = -0.0
    signed = DyadicOperator(grid, sigma, omega, w)
    assert len(signed.nonzeros()[0]) == 2 * len(live) - 1
    for t in (t, haar_shift(b, sigma, omega), signed):
        for op in (t, t.adjoint()):
            norm, steps = _lanczos_steps(monkeypatch, op)
            assert steps == 0, op.family
            assert norm == pytest.approx(_svd_norm(op), rel=1e-13), op.family


def test_norm_certified_against_whitened_leaf_matrix(rng):
    # independent route: explicit D_omega^{1/2} A D_sigma^{-1/2} at d <= 4
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid, low=0.05)
    t = random_ewl(1, sigma, omega, 9)
    a = t.leaf_matrix()
    dw = np.sqrt(omega.masses)
    ds = np.zeros_like(sigma.masses)
    pos = sigma.masses > 0
    ds[pos] = 1.0 / np.sqrt(sigma.masses[pos])
    whitened = dw[:, None] * a * ds[None, :]
    svd = float(np.linalg.svd(whitened, compute_uv=False)[0])
    assert operator_norm(t) == pytest.approx(svd, rel=1e-9)


def test_norm_against_rayleigh_search(rng):
    # sampled Rayleigh quotients refined by an independent eigensolver
    for d in (2, 3):
        grid = build_grid(GridSpec(1, d))
        sigma, omega = pair(rng, grid, low=0.1)
        t = random_ewl(1, sigma, omega, 21)
        norm = operator_norm(t)
        sample = rng.standard_normal((20000, grid.num_leaves))
        sample /= np.linalg.norm(sample, axis=1, keepdims=True)
        rayleigh = np.max(np.linalg.norm(sample @ t.w.T, axis=1))
        assert rayleigh <= norm * (1 + 1e-9)
        eig = float(np.sqrt(np.linalg.eigvalsh(t.w.T @ t.w)[-1]))
        assert norm == pytest.approx(eig, abs=1e-6 * max(eig, 1.0))


def test_c1_equals_c2_of_adjoint(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid, zero_fraction=0.2)
    t = random_ewl(1, sigma, omega, 14)
    rep = make_report(t, r=0, norm=False)
    adj = make_report(t.adjoint(), r=0, norm=False)
    assert rep.c1 == pytest.approx(adj.c2, rel=1e-12)
    assert rep.c2 == pytest.approx(adj.c1, rel=1e-12)
    # with the radius measured, T and T* read the same one
    assert ewl_radius(t) == ewl_radius(t.adjoint())
    rep, adj = make_report(t, norm=False), make_report(t.adjoint(), norm=False)
    assert rep.r_used == adj.r_used


@st.composite
def report_cases(draw):
    """An operator of every sweep family on grids of up to 256 leaves, one leaf
    block below 256 and two at 256, some with massless leaves."""
    n, d = draw(st.sampled_from([(1, 2), (1, 5), (2, 2), (2, 3), (1, 8), (2, 4)]))
    family = draw(st.sampled_from(["random_ewl", "paraproduct", "martingale_transform",
                                   "haar_shift"]))
    assume(n == 1 or family != "haar_shift")
    zero_fraction = draw(st.sampled_from([0.0, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    grid = build_grid(GridSpec(n, d))
    sigma, omega = pair(rng, grid, zero_fraction)
    assume(sigma.total > 0 and omega.total > 0)
    if family == "random_ewl":
        return random_ewl(draw(st.integers(0, 2)), sigma, omega, seed)
    builder = {"paraproduct": paraproduct, "martingale_transform": martingale_transform,
               "haar_shift": haar_shift}[family]
    return builder(CoefficientSequence.random(grid, rng), sigma, omega)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(report_cases())
def test_report_of_the_adjoint_swaps_the_sides(t):
    rep, adj = make_report(t), make_report(t.adjoint())
    assert adj.r_used == rep.r_used
    assert adj.norm == pytest.approx(rep.norm, rel=1e-12)
    for one, two in [("c1", "c2"), ("c1_global", "c2_global"), ("c1_cube", "c2_cube")]:
        assert getattr(adj, one) == pytest.approx(getattr(rep, two), rel=1e-12)
        assert getattr(adj, two) == pytest.approx(getattr(rep, one), rel=1e-12)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(report_cases(), st.sampled_from([1e-8, 1e8]))
def test_report_invariant_under_reciprocal_rescaling(t, scale):
    """sigma -> scale sigma and omega -> omega / scale with W fixed keep the
    measured radius, the norm and c1, c2, c3."""
    scaled = DyadicOperator(t.grid, LeafMeasure(t.grid, t.sigma.masses * scale),
                            LeafMeasure(t.grid, t.omega.masses / scale), t.w.copy())
    assert np.array_equal(scaled.w, t.w)
    rep, got = make_report(t), make_report(scaled)
    assert got.r_used == rep.r_used == ewl_radius(t) == ewl_radius(scaled)
    for name in ("norm", "c1", "c2", "c3"):
        assert getattr(got, name) == pytest.approx(getattr(rep, name), rel=1e-12)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(report_cases())
def test_report_homogeneous_in_the_coefficients(t):
    """W -> cW scales the norm and every testing constant by |c| and keeps the
    measured radius, the ratios and the witnesses: no sum in the pass meets
    an absolute threshold, and the support tolerance scales with ||W||_F."""
    rep = make_report(t, c3_next=True)
    assert rep.r_used == ewl_radius(t)
    for c in (1e-8, 1.0, 1e8):
        got = make_report(DyadicOperator(t.grid, t.sigma, t.omega, c * t.w), c3_next=True)
        assert got.r_used == rep.r_used
        assert got.witnesses == rep.witnesses
        for name in ("norm", "c1", "c2", "c3", "c1_global", "c2_global", "c1_cube", "c2_cube",
                     "c3_cube", "c3_next", "ratio_sum", "ratio_max"):
            scale = 1.0 if name.startswith("ratio") else c
            want = scale * getattr(rep, name)
            assert abs(getattr(got, name) - want) <= 1e-12 * abs(want), name


def test_c3_diagonal_pair_admissible(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = pair(rng, grid, low=0.1)
    t = random_ewl(0, sigma, omega, 2)
    c3 = make_report(t, r=0, norm=False).c3
    # the self pair (E, E) is always admissible; c3 dominates it
    e = 3
    pairing = np.sum(t.apply(indicator(grid, e).values) * indicator(grid, e).values
                     * omega.masses)
    assert c3 >= abs(pairing) / np.sqrt(sigma.box_mass[e] * omega.box_mass[e]) - 1e-12


@pytest.mark.parametrize("r", [0, 1, 2])
def test_c3_brute_force(r, rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = pair(rng, grid, low=0.05)
    t = random_ewl(r, sigma, omega, 8)
    best = 0.0
    for e in range(1, grid.num_boxes):
        img = t.apply(indicator(grid, e).values)
        for g in range(1, grid.num_boxes):
            if abs(int(grid.box_depth[e]) - int(grid.box_depth[g])) > r:
                continue
            anc = max(e >> r, 1)
            if not (grid.contains(anc, g) or grid.contains(g, anc)):
                continue
            se, og = sigma.box_mass[e], omega.box_mass[g]
            if se <= 0 or og <= 0:
                continue
            val = np.sum(img * indicator(grid, g).values * omega.masses)
            best = max(best, abs(val) / np.sqrt(se * og))
    assert make_report(t, r=r, norm=False).c3 == pytest.approx(best, rel=1e-10, abs=1e-12)


def test_global_constants_two_path(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid, zero_fraction=0.25)
    t = random_ewl(1, sigma, omega, 31)
    rep = make_report(t, r=0, norm=False)
    best1 = best2 = 0.0
    ta = t.adjoint()
    for e in range(1, grid.num_boxes):
        se, oe = sigma.box_mass[e], omega.box_mass[e]
        ind = indicator(grid, e).values
        if se > 0:
            nrm = np.sqrt(np.sum(omega.masses * t.apply(ind) ** 2))
            best1 = max(best1, nrm / np.sqrt(se))
        if oe > 0:
            nrm = np.sqrt(np.sum(sigma.masses * ta.apply(ind) ** 2))
            best2 = max(best2, nrm / np.sqrt(oe))
    assert rep.c1_global == pytest.approx(best1, rel=1e-12)
    assert rep.c2_global == pytest.approx(best2, rel=1e-12)


def test_local_below_global_below_norm(rng):
    grid = build_grid(GridSpec(1, 5))
    for seed in range(10):
        sigma, omega = pair(rng, grid, zero_fraction=0.3)
        if sigma.total == 0 or omega.total == 0:
            continue
        t = random_ewl(1, sigma, omega, seed)
        rep = make_report(t)
        assert rep.c1 <= rep.c1_global * (1 + 1e-9)
        assert rep.c2 <= rep.c2_global * (1 + 1e-9)
        assert max(rep.c1, rep.c2, rep.c3) <= rep.norm * (1 + 1e-9)
        assert rep.c1_global <= rep.norm * (1 + 1e-9)


def test_cube_testing_dimension_one_coincides(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid, low=0.1)
    t = random_ewl(1, sigma, omega, 5)
    rep = make_report(t, r=1)
    assert rep.c1_cube == pytest.approx(rep.c1, rel=1e-12)
    assert rep.c2_cube == pytest.approx(rep.c2, rel=1e-12)
    assert rep.c3_cube == pytest.approx(rep.c3, rel=1e-12)


def test_cube_testing_2d_brute_force(rng):
    grid = build_grid(GridSpec(2, 2))
    sigma, omega = pair(rng, grid, low=0.1)
    t = random_ewl(1, sigma, omega, 6)
    rep = make_report(t, r=1, norm=False)
    cubes = [h for h in range(1, grid.num_boxes) if grid.is_cube(h)]
    assert len(cubes) == 1 + 4 + 16
    best = 0.0
    for q in cubes:
        sq = sigma.box_mass[q]
        if sq <= 0:
            continue
        ind = indicator(grid, q).values
        img = t.apply(ind) * ind
        best = max(best, np.sqrt(np.sum(omega.masses * img**2) / sq))
    assert rep.c1_cube == pytest.approx(best, rel=1e-12)
    assert rep.c1_cube <= rep.c1 * (1 + 1e-12)


def _admissible_pairs_loop(grid, r):
    """Per-box loop enumeration of admissible_pairs, kept as its reference."""
    depth = grid.box_depth
    nd = grid.tree_depth
    offsets = np.zeros(grid.num_boxes + 1, dtype=np.int64)
    partners = []
    for e in range(1, grid.num_boxes):
        de = depth[e]
        anc = max(e >> r, 1)
        da = int(depth[anc])
        for m in range(max(da, de - r), min(nd, de + r) + 1):
            gap = m - da
            partners.extend(range(anc << gap, (anc + 1) << gap))
        a = anc
        while a > 1:
            a >>= 1
            if depth[a] >= de - r:
                partners.append(a)
        offsets[e + 1] = len(partners)
    return offsets, np.asarray(partners, dtype=np.int64)


@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
                                 (2, 3)])
def test_admissible_pairs_match_loop_reference(n, d):
    grid = build_grid(GridSpec(n, d))
    for r in range(4):
        offsets, partners = admissible_pairs(grid, r)
        want_offsets, want_partners = _admissible_pairs_loop(grid, r)
        assert np.array_equal(offsets, want_offsets)
        assert partners.dtype == want_partners.dtype
        assert np.array_equal(partners, want_partners)


def test_admissible_pair_count_bound():
    from twoweight.certificates import bound_factors

    for n, d, r in [(1, 3, 1), (1, 4, 2), (2, 2, 1)]:
        grid = build_grid(GridSpec(n, d))
        offsets, partners = admissible_pairs(grid, r)
        per_box = np.diff(offsets)
        assert int(per_box.max()) <= bound_factors(n, r)["M"]


def test_report_json_bit_stable_ints(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = pair(rng, grid, low=0.1)
    rep = make_report(random_ewl(1, sigma, omega, 77), r=1)
    doc = json.loads(json.dumps(rep.as_dict()))
    assert doc["r_used"] == rep.r_used
    w1 = rep.witnesses["c1"]
    expect = list(map(int, w1)) if isinstance(w1, tuple) else int(w1)
    assert doc["witnesses"]["c1"] == expect
