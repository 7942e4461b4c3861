"""Haar functions, weighted bases, martingale calculus."""

import gc
import weakref

import numpy as np
import pytest

from twoweight import (
    DyadicCube,
    GridSpec,
    HaarRectangle,
    LeafFunction,
    LeafMeasure,
    build_grid,
    haar0,
    haar_avg,
    inner,
    lebesgue,
    martingale_decompose,
    split_rectangles,
    weighted_haar,
)
from twoweight.haar import analyze, basis, synthesize


def all_rectangles(grid):
    return [HaarRectangle(grid, h) for h in grid.rectangles()]


def test_haar0_unit_interval():
    grid = build_grid(GridSpec(1, 1))
    h = haar0(HaarRectangle(grid, 1))
    assert np.allclose(h.values, [-1.0, 1.0])
    leb = lebesgue(grid)
    assert inner(h, h, leb) == pytest.approx(1.0)


def test_haar0_orthonormal_exhaustive():
    for n, d in [(1, 3), (2, 2)]:
        grid = build_grid(GridSpec(n, d))
        leb = lebesgue(grid)
        rects = all_rectangles(grid)
        for i, r1 in enumerate(rects):
            h1 = haar0(r1)
            assert inner(h1, h1, leb) == pytest.approx(1.0, abs=1e-12)
            for r2 in rects[i + 1:]:
                assert inner(h1, haar0(r2), leb) == pytest.approx(0.0, abs=1e-12)


def test_haar_avg_integrates_to_one():
    grid = build_grid(GridSpec(2, 2))
    leb = lebesgue(grid)
    for rect in all_rectangles(grid):
        avg = haar_avg(rect)
        ones = LeafFunction(grid, np.ones(grid.num_leaves))
        assert inner(avg, ones, leb) == pytest.approx(1.0)


def test_weighted_haar_uniform_reduces_to_unweighted():
    grid = build_grid(GridSpec(1, 2))
    leb = lebesgue(grid)
    for rect in all_rectangles(grid):
        hw = weighted_haar(rect, leb)
        h0 = haar0(rect)
        # proportional with unit weighted norm
        ratio = hw.values[rect.leaf_slice()] / h0.values[rect.leaf_slice()]
        assert np.allclose(ratio, ratio[0])
        assert inner(hw, hw, leb) == pytest.approx(1.0, abs=1e-12)


def test_measure_and_its_basis_freed_without_the_cycle_collector():
    """A measure's cached basis keeps no reference back to the measure, so
    both are freed with the last outside reference, not at a later gc pass
    (a measure per operator piled up between passes of the classify loop)."""
    grid = build_grid(GridSpec(1, 3))
    mu = LeafMeasure(grid, np.full(8, 0.125))
    b = basis(mu)
    assert b.charged_slots().all()
    refs = weakref.ref(mu), weakref.ref(b)
    gc.disable()
    try:
        del mu, b
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_weighted_haar_zero_half_convention(rng):
    grid = build_grid(GridSpec(1, 2))
    masses = rng.uniform(0.5, 1, 4)
    masses[:2] = 0.0  # kill the left half of the root interval
    mu = LeafMeasure(grid, masses)
    assert np.all(weighted_haar(HaarRectangle(grid, 1), mu).values == 0.0)


def test_weighted_haar_mean_zero_and_unit_norm(rng):
    grid = build_grid(GridSpec(2, 2))
    mu = LeafMeasure(grid, rng.uniform(0.1, 2.0, grid.num_leaves))
    ones = LeafFunction(grid, np.ones(grid.num_leaves))
    for rect in all_rectangles(grid):
        h = weighted_haar(rect, mu)
        assert inner(h, ones, mu) == pytest.approx(0.0, abs=1e-12)
        assert inner(h, h, mu) == pytest.approx(1.0, abs=1e-12)


def test_weighted_orthonormality_with_degenerate_masses(rng):
    grid = build_grid(GridSpec(2, 2))
    masses = rng.uniform(0.1, 1, grid.num_leaves)
    masses[rng.random(grid.num_leaves) < 0.4] = 0.0
    mu = LeafMeasure(grid, masses)
    rects = all_rectangles(grid)
    charged = basis(mu).charged
    for r1 in rects:
        h1 = weighted_haar(r1, mu)
        for r2 in rects:
            h2 = weighted_haar(r2, mu)
            expect = 1.0 if (r1.heap == r2.heap and charged[r1.heap]) else 0.0
            assert inner(h1, h2, mu) == pytest.approx(expect, abs=1e-12)


def test_decompose_constant():
    grid = build_grid(GridSpec(2, 2))
    leb = lebesgue(grid)
    f = LeafFunction(grid, np.ones(grid.num_leaves))
    dec = martingale_decompose(f, leb)
    assert dec.mean == pytest.approx(1.0)
    assert np.allclose(dec.rectangle_coefficients(), 0.0, atol=1e-14)


def test_decompose_single_haar(rng):
    grid = build_grid(GridSpec(1, 3))
    mu = LeafMeasure(grid, rng.uniform(0.2, 1, 8))
    rect = HaarRectangle(grid, 3)
    dec = martingale_decompose(weighted_haar(rect, mu), mu)
    assert dec.mean == pytest.approx(0.0, abs=1e-13)
    want = np.zeros(grid.num_leaves)
    want[3] = 1.0
    assert np.allclose(dec.whitened, want, atol=1e-12)


@pytest.mark.parametrize("n,d", [(1, 4), (2, 3), (3, 2)])
def test_reconstruction_and_parseval(n, d, rng):
    grid = build_grid(GridSpec(n, d))
    for _ in range(20):
        mu = LeafMeasure(grid, rng.uniform(0.0, 1.0, grid.num_leaves))
        f = LeafFunction(grid, rng.standard_normal(grid.num_leaves))
        dec = martingale_decompose(f, mu)
        rec = dec.reconstruct()
        charged = mu.masses > 0
        err = np.max(np.abs((rec.values - f.values)[charged])) if charged.any() else 0.0
        assert err <= 1e-12 * max(1.0, np.max(np.abs(f.values)))
        norm_sq = f.norm(mu) ** 2
        assert dec.norm_squared() == pytest.approx(norm_sq, rel=1e-10, abs=1e-12)


def test_analyze_synthesize_batched(rng):
    grid = build_grid(GridSpec(2, 2))
    mu = LeafMeasure(grid, rng.uniform(0.1, 1, grid.num_leaves))
    batch = rng.standard_normal((5, grid.num_leaves))
    coefs = analyze(mu, batch)
    back = synthesize(mu, coefs)
    assert np.allclose(back, batch, atol=1e-12)
    single = analyze(mu, batch[2])
    assert np.allclose(single, coefs[2])


def test_completeness_count_fully_charged(rng):
    # charged rectangles + constant span the whole leaf space
    grid = build_grid(GridSpec(2, 2))
    mu = LeafMeasure(grid, rng.uniform(0.1, 1, grid.num_leaves))
    assert int(np.count_nonzero(basis(mu).charged)) == grid.num_leaves - 1
