"""Localization radius classifier and the well-localized bridge."""

import numpy as np
import pytest

from twoweight import GridSpec, LeafMeasure, build_grid
from twoweight.haar import basis, indicator_coefficients
from twoweight.localization import NOT_LOCALIZED, ewl_radius, wl_check, wl_radius
from twoweight.operators import (
    CoefficientSequence,
    DyadicOperator,
    haar_shift,
    martingale_transform,
    paraproduct,
    random_ewl,
)
from twoweight.perfect_dyadic import perfect_dyadic_operator, random_kernel

from conftest import random_measure


def pair(rng, grid, zero_fraction=0.0):
    return (random_measure(grid, rng, zero_fraction), random_measure(grid, rng, zero_fraction))


def test_known_radii_classic_families(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid)
    b = CoefficientSequence.random(grid, rng)
    t = martingale_transform(b, sigma, omega)
    assert ewl_radius(t) == 0
    assert wl_check(t, 1)
    s = haar_shift(b, sigma, omega)
    assert ewl_radius(s) == 1
    assert not wl_check(s, 1)
    assert wl_check(s, 2)
    p = paraproduct(b, sigma, omega)
    assert ewl_radius(p) == 0
    assert wl_check(p, 1)


def test_dense_random_operator_degenerate_radius(rng):
    # generic full supports force the maximal radius the truncated grid allows
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid)
    w = rng.standard_normal((grid.num_leaves, grid.num_leaves))
    t = DyadicOperator(grid, sigma, omega, w)
    assert ewl_radius(t) == grid.tree_depth - 1
    assert ewl_radius(t) is not NOT_LOCALIZED


def test_wl_check_monotone_in_r(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid)
    t = random_ewl(1, sigma, omega, 3)
    results = [wl_check(t, r) for r in range(1, grid.tree_depth + 1)]
    assert results == sorted(results)  # once true, stays true


@pytest.mark.parametrize("r", [0, 1, 2])
def test_bridge_both_directions(r, rng):
    grid = build_grid(GridSpec(1, 5))
    sigma, omega = pair(rng, grid, zero_fraction=0.15)
    for seed in range(10):
        t = random_ewl(r, sigma, omega, seed)
        r0 = ewl_radius(t)
        assert r0 <= r
        assert wl_check(t, r0 + 1)
        for rr in range(1, grid.tree_depth + 1):
            if wl_check(t, rr):
                assert r0 <= rr
                break


def test_bridge_in_two_dimensions(rng):
    grid = build_grid(GridSpec(2, 2))
    sigma, omega = pair(rng, grid)
    for seed in range(5):
        t = random_ewl(1, sigma, omega, seed)
        r0 = ewl_radius(t)
        assert r0 <= 1
        assert wl_check(t, r0 + 1)


def test_wl_check_rejects_r_zero(rng):
    grid = build_grid(GridSpec(1, 2))
    sigma, omega = pair(rng, grid)
    with pytest.raises(ValueError):
        wl_check(martingale_transform(CoefficientSequence.constant(grid, 1.0),
                                      sigma, omega), 0)


def _wl_check_loop(t, r, rtol=1e-10):
    """Reference: the per-box loop, one indicator analysis per box Q."""
    fro = t.frobenius()

    def side_ok(w, in_measure, out_measure):
        grid = t.grid
        depth = grid.box_depth
        rect = np.nonzero(basis(out_measure).charged)[0]
        rect_depth = depth[rect]
        for q in range(1, grid.num_boxes):
            dq = depth[q]
            anc = max(q >> r, 1)
            gap_anc = rect_depth - depth[anc]
            in_q_r = (gap_anc >= 0) & ((rect >> np.maximum(gap_anc, 0)) == anc)
            gap_q = rect_depth - dq
            in_q = (gap_q >= 0) & ((rect >> np.maximum(gap_q, 0)) == q)
            must_vanish = (rect_depth >= dq - 1) & (
                ~in_q_r | ((rect_depth >= dq + r) & ~in_q))
            if not np.any(must_vanish):
                continue
            idx, val = indicator_coefficients(in_measure, q)
            pairings = w[:, idx] @ val
            checked = rect[must_vanish]
            tol = rtol * fro * np.sqrt(in_measure.box_mass[q] * out_measure.box_mass[checked])
            if np.any(np.abs(pairings[checked]) > tol):
                return False
        return True

    return side_ok(t.w, t.sigma, t.omega) and side_ok(t.w.T, t.omega, t.sigma)


@pytest.mark.parametrize("zero_fraction", [0.0, 0.3])
@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (1, 4), (1, 6), (2, 1), (2, 2), (2, 3)])
def test_wl_check_matches_per_box_loop(n, d, zero_fraction):
    rng = np.random.default_rng(1000 * n + 10 * d + int(10 * zero_fraction))
    grid = build_grid(GridSpec(n, d))
    sigma, omega = pair(rng, grid, zero_fraction)
    b = CoefficientSequence.random(grid, rng)
    ops = [martingale_transform(b, sigma, omega), paraproduct(b, sigma, omega),
           random_ewl(1, sigma, omega, 3), random_ewl(2, sigma, omega, 4),
           perfect_dyadic_operator(random_kernel(grid, 1, 5), sigma, omega),
           DyadicOperator(grid, sigma, omega,
                          rng.standard_normal((grid.num_leaves, grid.num_leaves)))]
    if n == 1:
        ops.append(haar_shift(b, sigma, omega))
    for t in ops:
        radius = wl_radius(t)
        assert 1 <= radius <= max(1, grid.tree_depth)
        for r in range(1, grid.tree_depth + 2):
            assert wl_check(t, r) == _wl_check_loop(t, r) == (r >= radius), (t.family, r)


def test_wl_radius_small_rectangle_condition_binds():
    # one entry W[R, E]: E the root rectangle, R = heap 7 (leaves 6, 7).  At
    # rtol 1.2 only Q = heap 2 (the left half) exceeds the tolerance; R is
    # outside Q and 4x smaller, so r = 1 fails on |R| <= 2^-r |Q| alone.
    grid = build_grid(GridSpec(1, 3))
    uniform = LeafMeasure(grid, np.full(8, 0.125))
    w = np.zeros((8, 8))
    w[7, 1] = 1.0
    t = DyadicOperator(grid, uniform, uniform, w)
    assert wl_radius(t, rtol=1.2) == 2
    assert wl_radius(t) == 3  # leaf boxes in the left half pair with R too
    for rtol in (1.2, 1e-10):
        for r in range(1, grid.tree_depth + 2):
            assert wl_check(t, r, rtol) == _wl_check_loop(t, r, rtol), (rtol, r)
