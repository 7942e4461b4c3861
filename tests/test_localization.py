"""Localization radius classifier and the well-localized bridge."""

import numpy as np
import pytest

from twoweight import GridSpec, LeafMeasure, _kernels, build_grid, localization
from twoweight.localization import ewl_radius, wl_check, wl_radius
from twoweight.operators import (
    CoefficientSequence,
    DyadicOperator,
    haar_shift,
    martingale_transform,
    paraproduct,
    random_ewl,
)
from twoweight.perfect_dyadic import perfect_dyadic_operator, random_kernel

from conftest import random_measure, wl_check_loop


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dense_random_operator_degenerate_radius(n, rng):
    # generic full supports force the bound tree_depth - 1: the smallest
    # rectangles climb to the root
    grid = build_grid(GridSpec(n, {1: 4, 2: 3, 3: 2}[n]))
    sigma, omega = pair(rng, grid)
    w = rng.standard_normal((grid.num_leaves, grid.num_leaves))
    t = DyadicOperator(grid, sigma, omega, w)
    assert ewl_radius(t) == grid.tree_depth - 1


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


def test_ewl_radius_independent_of_the_coefficient_scale():
    """The support tolerance scales with ||W||_F, so W -> cW keeps the radius.
    With an absolute tolerance this operator read 0, 2, 2 and 5."""
    grid = build_grid(GridSpec(1, 6))
    rng = np.random.default_rng(0)
    sigma = LeafMeasure(grid, rng.random(grid.num_leaves))
    omega = LeafMeasure(grid, rng.random(grid.num_leaves))
    t = random_ewl(2, sigma, omega, 0)
    radii = [localization.radii(DyadicOperator(grid, sigma, omega, c * t.w))
             for c in (1e-14, 1e-6, 1.0, 1e6)]
    assert radii == [(2, 3)] * 4
    assert [ewl_radius(DyadicOperator(grid, sigma, omega, c * t.w))
            for c in (1e-14, 1e-6, 1.0, 1e6)] == [2] * 4


def test_wl_check_rejects_r_zero(rng):
    grid = build_grid(GridSpec(1, 2))
    sigma, omega = pair(rng, grid)
    with pytest.raises(ValueError):
        wl_check(martingale_transform(CoefficientSequence.constant(grid, 1.0),
                                      sigma, omega), 0)


@pytest.mark.parametrize("n,d,zero_fraction", [
    (n, d, zero_fraction)
    for n, d in [(1, 0), (1, 1), (1, 2), (1, 4), (1, 6), (2, 1), (2, 2), (2, 3)]
    for zero_fraction in (0.0, 0.3)] + [(2, 4, 0.3)])
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
            assert wl_check(t, r) == wl_check_loop(t, r) == (r >= radius), (t.family, r)


def test_wl_radius_small_rectangle_condition_binds(monkeypatch):
    # one entry W[R, E]: E the root rectangle, R = heap 7 (leaves 6, 7).  At
    # rtol 1.2 only Q = heap 2 (the left half) exceeds the tolerance; R is
    # outside Q and 4x smaller, so r = 1 fails on |R| <= 2^-r |Q| alone.
    grid = build_grid(GridSpec(1, 3))
    uniform = LeafMeasure(grid, np.full(8, 0.125))
    w = np.zeros((8, 8))
    w[7, 1] = 1.0
    # at the default tolerance leaf boxes in the left half pair with R too
    for rtol, radius in ((1e-10, 3), (1.2, 2)):
        monkeypatch.setattr(localization, "WL_RTOL", rtol)
        t = DyadicOperator(grid, uniform, uniform, w.copy())  # radii are read once per operator
        assert wl_radius(t) == radius
        for r in range(1, grid.tree_depth + 2):
            assert wl_check(t, r) == wl_check_loop(t, r, rtol), (rtol, r)


def test_wl_radius_bound_from_rectangle_one_level_up():
    """One entry W[R, E], R = heap 4 (depth 2), E the root, on 16 uniform
    leaves: T*(omega h_R) is a multiple of h_E, nonzero on every box inside
    a half of the root.  The pairs with |R| <= 2|Q| have d(Q) <= 3; those of
    depth-3 boxes Q have R one level above Q, and their largest bound,
    1 + bit_length((Q >> 1) ^ R) = 3 at Q = 12 .. 15, is the radius: every
    shallower box bounds at most 2, and no leaf is paired with R."""
    grid = build_grid(GridSpec(1, 4))
    uniform = LeafMeasure(grid, np.full(16, 1 / 16))
    w = np.zeros((16, 16))
    w[4, 1] = 1.0
    t = DyadicOperator(grid, uniform, uniform, w)
    assert wl_radius(t) == 3
    for r in range(1, grid.tree_depth + 2):
        assert wl_check(t, r) == wl_check_loop(t, r) == (r >= 3), r


def test_wl_radius_with_empty_boxes_and_uncharged_rectangles(rng):
    """sigma is empty on the right half and omega on leaves 8 .. 11, each
    also on about 30% of the other leaves.  So the side whose output measure
    is sigma has an uncharged rectangle on every level (the root and every
    one inside the right half) and input boxes of zero mass, and the other
    side has both too: the masked columns and the zero-mass rows agree with
    the per-box loop."""
    grid = build_grid(GridSpec(1, 5))
    sigma, omega = (random_measure(grid, rng, 0.3).masses.copy() for _ in range(2))
    sigma[16:], omega[8:12] = 0.0, 0.0
    sigma, omega = LeafMeasure(grid, sigma), LeafMeasure(grid, omega)
    ops = [random_ewl(r, sigma, omega, 30 + r) for r in range(3)]
    ops += [perfect_dyadic_operator(random_kernel(grid, 1, 6), sigma, omega),
            DyadicOperator(grid, sigma, omega, rng.standard_normal((32, 32)))]
    for t in ops:
        radius = wl_radius(t)
        for r in range(1, grid.tree_depth + 2):
            assert wl_check(t, r) == wl_check_loop(t, r) == (r >= radius), (t.family, r)


def test_radii_read_once_per_operator(monkeypatch, rng):
    """radii fills both caches, so ewl_radius, wl_radius and wl_check over
    every r run no further vanishing test; wl_check alone runs one per side.
    ewl_radius, then wl_check at every r (the benchmark's kernel
    classification) builds one input stage per side."""
    grid = build_grid(GridSpec(1, 5))
    sigma, omega = pair(rng, grid, 0.2)
    calls, stages = [], []
    vanishing = localization._vanishing_radius
    monkeypatch.setattr(localization, "_vanishing_radius",
                        lambda *args: calls.append(1) or vanishing(*args))
    levels = _kernels.synthesize_levels
    monkeypatch.setattr(_kernels, "synthesize_levels",
                        lambda *args: stages.append(1) or levels(*args))
    u = perfect_dyadic_operator(random_kernel(grid, 1, 5), sigma, omega)
    ewl = ewl_radius(u)
    verdicts = [wl_check(u, r) for r in range(1, grid.tree_depth + 1)]
    assert len(stages) == 2 and len(calls) == 2
    assert (ewl, verdicts) == (ewl_radius(u), [r >= wl_radius(u) for r in range(1, grid.tree_depth + 1)])
    calls.clear()
    t = perfect_dyadic_operator(random_kernel(grid, 1, 3), sigma, omega)
    ewl, wl = localization.radii(t)
    assert len(calls) == 2
    verdicts = [wl_check(t, r) for r in range(1, grid.tree_depth + 1)]
    assert (ewl_radius(t), wl_radius(t)) == (ewl, wl) and len(calls) == 2
    assert verdicts == [r >= wl for r in range(1, grid.tree_depth + 1)]
    s = random_ewl(2, sigma, omega, 4)
    verdicts = [wl_check(s, r) for r in range(1, grid.tree_depth + 1)]
    assert len(calls) == 4
    assert verdicts == [r >= wl_radius(s) for r in range(1, grid.tree_depth + 1)]
    assert verdicts == [wl_check_loop(s, r) for r in range(1, grid.tree_depth + 1)]


@pytest.mark.parametrize("depth", range(9))
def test_gap_table_is_depth_less_lca_depth(depth):
    """_gap_table(D)[i, E] is depth(E) - lca_depth(E, p) at the parent p =
    N/2 + i of leaf scale and every rectangle E, and 0 at slot 0."""
    grid = build_grid(GridSpec(1, depth))
    n = grid.num_leaves
    table = localization._gap_table(depth)
    assert table.shape == (max(1, n // 2), n) and table.dtype == np.int8
    assert not table.flags.writeable
    parents, rects = np.meshgrid(np.arange(n // 2, n), np.arange(1, n), indexing="ij")
    want = grid.box_depth[rects] - grid.lca_depth(rects, parents)
    assert np.array_equal(table[:, 1:], want)
    assert not table[:, 0].any()
