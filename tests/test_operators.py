"""Operator family identities, adjoints and the random EWL generator."""

import numpy as np
import pytest

from twoweight import (
    GridSpec,
    HaarRectangle,
    LeafMeasure,
    build_grid,
    haar0,
    haar_avg,
    inner,
    lebesgue,
    weighted_haar,
)
from twoweight.exceptions import DimensionError
from twoweight.haar import basis, indicator_coefficients
from twoweight.localization import ewl_radius
from twoweight.operators import (
    CoefficientSequence,
    DyadicOperator,
    from_leaf_matrix,
    haar_shift,
    martingale_transform,
    paraproduct,
    random_ewl,
    zero_operator,
)

from conftest import random_measure


def _measure_pair(rng, grid, zero_fraction=0.0):
    return (random_measure(grid, rng, zero_fraction), random_measure(grid, rng, zero_fraction))


def test_martingale_identity_weighted(rng):
    grid = build_grid(GridSpec(2, 2))
    sigma, omega = _measure_pair(rng, grid)
    b = CoefficientSequence.random(grid, rng)
    t = martingale_transform(b, sigma, omega)
    for heap in [1, 2, 3, 7, 12]:
        rect = HaarRectangle(grid, heap)
        img = t.apply(weighted_haar(rect, sigma).values)
        want = b.values[heap] * weighted_haar(rect, omega).values
        assert np.allclose(img, want, atol=1e-12)


def test_martingale_unweighted_reduces_to_classic(rng):
    grid = build_grid(GridSpec(1, 3))
    leb = lebesgue(grid)
    b = CoefficientSequence.random(grid, rng)
    t = martingale_transform(b, leb, leb)
    for heap in [1, 2, 5]:
        h0 = haar0(HaarRectangle(grid, heap))
        assert np.allclose(t.apply(h0.values), b.values[heap] * h0.values, atol=1e-12)


def test_zero_coefficients_zero_operator(rng):
    grid = build_grid(GridSpec(1, 2))
    sigma, omega = _measure_pair(rng, grid)
    for ctor in (martingale_transform, paraproduct, haar_shift):
        t = ctor(CoefficientSequence.constant(grid, 0.0), sigma, omega)
        assert np.all(t.w == 0.0)
    assert np.all(zero_operator(grid, sigma, omega).w == 0.0)


def test_unit_martingale_is_mean_zero_projection(rng):
    grid = build_grid(GridSpec(1, 3))
    mu = random_measure(grid, rng, low=0.1)
    t = martingale_transform(CoefficientSequence.constant(grid, 1.0), mu, mu)
    f = rng.standard_normal(grid.num_leaves)
    mean = np.sum(f * mu.masses) / mu.total
    assert np.allclose(t.apply(f), f - mean, atol=1e-12)
    from twoweight.testing import operator_norm

    assert operator_norm(t) == pytest.approx(1.0, abs=1e-9)


def test_paraproduct_adjoint_identity_unweighted(rng):
    # P*_b h0_I = b_I h1_I on the Lebesgue model
    grid = build_grid(GridSpec(1, 3))
    leb = lebesgue(grid)
    b = CoefficientSequence.random(grid, rng)
    p_adj = paraproduct(b, leb, leb).adjoint()
    for heap in [1, 3, 6]:
        rect = HaarRectangle(grid, heap)
        img = p_adj.apply(haar0(rect).values)
        want = b.values[heap] * haar_avg(rect).values
        assert np.allclose(img, want, atol=1e-12)


def test_paraproduct_on_constants(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = _measure_pair(rng, grid, zero_fraction=0.0)
    b = CoefficientSequence.random(grid, rng)
    p = paraproduct(b, sigma, omega)
    img = p.apply(np.ones(grid.num_leaves))
    want = np.zeros(grid.num_leaves)
    for heap in grid.rectangles():
        want += b.values[heap] * weighted_haar(HaarRectangle(grid, heap), omega).values
    assert np.allclose(img, want, atol=1e-12)


def test_paraproduct_single_term_rank_one(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = _measure_pair(rng, grid)
    b = CoefficientSequence.from_dict(grid, {3: 2.5})
    p = paraproduct(b, sigma, omega)
    assert np.linalg.matrix_rank(p.w, tol=1e-12) == 1
    f = rng.standard_normal(grid.num_leaves)
    rect = HaarRectangle(grid, 3)
    sel = rect.leaf_slice()
    avg = np.sum((f * sigma.masses)[sel]) / np.sum(sigma.masses[sel])
    want = 2.5 * avg * weighted_haar(rect, omega).values
    assert np.allclose(p.apply(f), want, atol=1e-12)


def test_haar_shift_identity_and_supports(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = _measure_pair(rng, grid)
    b = CoefficientSequence.random(grid, rng)
    s = haar_shift(b, sigma, omega)
    for heap in [1, 2, 5]:
        rect = HaarRectangle(grid, heap)
        left, right = rect.halves()
        img = s.apply(weighted_haar(rect, sigma).values)
        want = b.values[heap] * (weighted_haar(right, omega).values
                                 - weighted_haar(left, omega).values)
        assert np.allclose(img, want, atol=1e-12)
        assert np.all(np.abs(img[: rect.leaf_slice().start]) <= 1e-12)
        assert np.all(np.abs(img[rect.leaf_slice().stop:]) <= 1e-12)
    # leaf-scale children map to zero
    deepest = HaarRectangle(grid, grid.num_leaves - 1)
    assert np.allclose(s.apply(weighted_haar(deepest, sigma).values), 0.0, atol=1e-12)
    # adjoint image lands in the parent
    leb = lebesgue(grid)
    s0 = haar_shift(b, leb, leb)
    child = HaarRectangle(grid, 6)
    img = s0.adjoint().apply(haar0(child).values)
    parent_slice = HaarRectangle(grid, 3).leaf_slice()
    assert np.any(np.abs(img) > 1e-6)
    assert np.all(np.abs(img[: parent_slice.start]) <= 1e-12)
    assert np.all(np.abs(img[parent_slice.stop:]) <= 1e-12)
    assert ewl_radius(s) == 1


def test_haar_shift_needs_dimension_one(rng):
    grid = build_grid(GridSpec(2, 2))
    sigma, omega = _measure_pair(rng, grid)
    with pytest.raises(DimensionError):
        haar_shift(CoefficientSequence.constant(grid, 1.0), sigma, omega)


def test_adjoint_involution_and_duality(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = _measure_pair(rng, grid, zero_fraction=0.2)
    t = random_ewl(1, sigma, omega, 7)
    ta = t.adjoint()
    assert np.array_equal(ta.adjoint().w, t.w)
    fro = t.frobenius()
    for _ in range(100):
        f = rng.standard_normal(grid.num_leaves)
        g = rng.standard_normal(grid.num_leaves)
        lhs = np.sum(t.apply(f) * g * omega.masses)
        rhs = np.sum(f * ta.apply(g) * sigma.masses)
        fn = np.sqrt(np.sum(sigma.masses * f**2))
        gn = np.sqrt(np.sum(omega.masses * g**2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, fn * gn * fro)


def test_martingale_adjoint_identity(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = _measure_pair(rng, grid)
    b = CoefficientSequence.random(grid, rng)
    ta = martingale_transform(b, sigma, omega).adjoint()
    for heap in [1, 2, 6]:
        rect = HaarRectangle(grid, heap)
        img = ta.apply(weighted_haar(rect, omega).values)
        assert np.allclose(img, b.values[heap] * weighted_haar(rect, sigma).values,
                           atol=1e-12)


def test_random_ewl_deterministic_and_localized(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = _measure_pair(rng, grid)
    t1 = random_ewl(2, sigma, omega, 123)
    t2 = random_ewl(2, sigma, omega, 123)
    assert np.array_equal(t1.w, t2.w)
    for seed in range(20):
        assert ewl_radius(random_ewl(2, sigma, omega, seed)) <= 2


def _random_ewl_loop(r, sigma, omega, rng_seed):
    """Per-slot loop construction of random_ewl, kept as its reference."""
    grid = sigma.grid
    n = grid.num_leaves
    boxes = np.arange(n, dtype=np.int64)
    boxes[0] = 1
    depth = grid.box_depth[boxes]
    anc = np.maximum(boxes >> np.minimum(r, depth), 1)
    anc_depth = grid.box_depth[anc]
    rng = np.random.default_rng(rng_seed)
    w = np.zeros((n, n))
    out_charged = basis(omega).charged_slots()
    in_charged = basis(sigma).charged_slots()
    for e in range(n):
        if not in_charged[e]:
            continue
        gap_out = depth - anc_depth[e]
        in_anc_of_e = (gap_out >= 0) & ((boxes >> np.maximum(gap_out, 0)) == anc[e])
        gap_in = depth[e] - anc_depth
        e_in_anc_of_out = (gap_in >= 0) & ((boxes[e] >> np.maximum(gap_in, 0)) == anc)
        allowed = in_anc_of_e & e_in_anc_of_out & out_charged
        k = int(np.count_nonzero(allowed))
        if k:
            w[allowed, e] = rng.uniform(-1.0, 1.0, k)
    for e in range(1, n):
        mass = omega.box_mass[anc[e]]
        if in_charged[e] and mass > 0:
            idx, val = indicator_coefficients(omega, int(anc[e]))
            w[idx, e] += rng.uniform(-1.0, 1.0) * val / np.sqrt(mass)
    for g in range(1, n):
        mass = sigma.box_mass[anc[g]]
        if out_charged[g] and mass > 0:
            idx, val = indicator_coefficients(sigma, int(anc[g]))
            w[g, idx] += rng.uniform(-1.0, 1.0) * val / np.sqrt(mass)
    return DyadicOperator(grid, sigma, omega, w)


# (1, 8): 256 leaves, so the window is built in more than one block of columns
@pytest.mark.parametrize("n,d", [(1, 6), (2, 3), (1, 8)])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_random_ewl_matches_loop_reference(n, d, r, rng):
    grid = build_grid(GridSpec(n, d))
    for seed in range(4):
        sigma, omega = _measure_pair(rng, grid, zero_fraction=0.3)
        want = _random_ewl_loop(r, sigma, omega, (r, seed))
        assert np.array_equal(random_ewl(r, sigma, omega, (r, seed)).w, want.w)


def test_random_ewl_radius_zero_supports(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = _measure_pair(rng, grid)
    t = random_ewl(0, sigma, omega, 99)
    for heap in grid.rectangles():
        rect = HaarRectangle(grid, heap)
        h = weighted_haar(rect, sigma)
        if np.all(h.values == 0):
            continue
        img = t.apply(h.values)
        outside = np.ones(grid.num_leaves, dtype=bool)
        outside[rect.leaf_slice()] = False
        assert np.all(np.abs(img[outside] * (omega.masses[outside] > 0)) <= 1e-12)


def test_linearity(rng):
    grid = build_grid(GridSpec(2, 2))
    sigma, omega = _measure_pair(rng, grid)
    t = random_ewl(1, sigma, omega, 5)
    f, g = rng.standard_normal((2, grid.num_leaves))
    lhs = t.apply(2.0 * f - 3.0 * g)
    rhs = 2.0 * t.apply(f) - 3.0 * t.apply(g)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_leaf_matrix_roundtrip(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = _measure_pair(rng, grid)
    t = random_ewl(1, sigma, omega, 11)
    a = t.leaf_matrix()
    back = from_leaf_matrix(grid, sigma, omega, a)
    assert np.allclose(back.w, t.w, atol=1e-10)
