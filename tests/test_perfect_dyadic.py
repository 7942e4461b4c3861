"""Perfect dyadic kernels: validation, generation, classification, CSV."""

import hashlib

import numpy as np
import pytest

from twoweight import GridSpec, HaarRectangle, build_grid, weighted_haar
from twoweight.exceptions import KernelValidationError
from twoweight.localization import ewl_radius
from twoweight.perfect_dyadic import (
    CONSTANCY_ATOL,
    PerfectDyadicKernel,
    _constancy_classes,
    _leaf_distances,
    corrupt_kernel,
    perfect_dyadic_operator,
    random_kernel,
    separated_cube_pairs,
    validate_kernel,
)

from conftest import random_measure


def test_zero_kernel_zero_operator(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma = random_measure(grid, rng)
    omega = random_measure(grid, rng)
    k = PerfectDyadicKernel(grid, np.zeros((8, 8)), 1)
    t = perfect_dyadic_operator(k, sigma, omega)
    assert np.allclose(t.w, 0.0, atol=1e-15)


@pytest.mark.parametrize("radius", [0, 1])
def test_random_kernels_validate_and_classify(radius, rng):
    grid = build_grid(GridSpec(1, 4))
    sigma = random_measure(grid, rng, low=0.1)
    omega = random_measure(grid, rng, low=0.1)
    for seed in range(10):
        k = random_kernel(grid, radius, seed)
        validate_kernel(k)
        t = perfect_dyadic_operator(k, sigma, omega)
        assert ewl_radius(t) <= radius


# ewl_radius <= r + n - 1 in every dimension (see the module docstring); random
# kernels attain it.
@pytest.mark.parametrize("n,d", [(1, 5), (1, 7), (2, 3), (2, 4), (3, 2)])
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_random_kernel_radius_bound_every_dimension(n, d, radius, rng):
    grid = build_grid(GridSpec(n, d))
    radii = []
    for seed in range(2):
        sigma = random_measure(grid, rng, zero_fraction=0.2)
        omega = random_measure(grid, rng, zero_fraction=0.2)
        t = perfect_dyadic_operator(random_kernel(grid, radius, seed), sigma, omega)
        radii.append(ewl_radius(t))
    assert max(radii) == radius + n - 1


def test_constant_kernel_annihilates_haar(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma = random_measure(grid, rng, low=0.1)
    omega = random_measure(grid, rng, low=0.1)
    c = 0.9 / float(np.max(_leaf_distances(grid)))
    k = PerfectDyadicKernel(grid, np.full((16, 16), c), 1)
    t = perfect_dyadic_operator(k, sigma, omega)
    h = weighted_haar(HaarRectangle(grid, 5), sigma)
    assert np.allclose(t.apply(h.values), 0.0, atol=1e-12)


def test_corrupted_kernel_fails_with_named_pair(rng):
    grid = build_grid(GridSpec(1, 4))
    k = random_kernel(grid, 1, 42)
    bad = corrupt_kernel(k, 7)
    with pytest.raises(KernelValidationError) as err:
        validate_kernel(bad)
    assert err.value.cube_pair is not None
    i, j = err.value.cube_pair
    assert 1 <= i < grid.num_boxes and 1 <= j < grid.num_boxes


def test_size_condition_violation_detected():
    grid = build_grid(GridSpec(1, 3))
    values = np.zeros((8, 8))
    values[0, 7] = 1e6  # far pair, way above 1/dist
    with pytest.raises(KernelValidationError) as err:
        validate_kernel(PerfectDyadicKernel(grid, values, 0))
    assert "size" in str(err.value)


def _separated_cube_pairs_loop(grid, radius):
    """Reference: the pairwise loop over cubes."""
    cubes = grid.cubes()
    anc = np.maximum(cubes >> np.minimum(radius, grid.box_depth[cubes]), 1)

    def meet(a, b):
        return grid.contains(a, b) or grid.contains(b, a)

    return [(int(i), int(j))
            for a, i in enumerate(cubes) for bj, j in enumerate(cubes)
            if not meet(anc[a], j) and not meet(anc[bj], i)]


def _first_nonconstant_pair_loop(kernel):
    """Reference: the first separated pair whose block is not constant."""
    lo, hi = kernel.grid.box_lo, kernel.grid.box_hi
    for i, j in _separated_cube_pairs_loop(kernel.grid, kernel.radius):
        block = kernel.values[lo[i] : hi[i], lo[j] : hi[j]]
        if np.ptp(block) > CONSTANCY_ATOL * (1.0 + np.max(np.abs(block))):
            return (i, j)
    return None


@pytest.mark.parametrize("n,depths", [(1, range(0, 7)), (2, range(0, 4))])
def test_separated_cube_pairs_match_loop(n, depths):
    for d in depths:
        grid = build_grid(GridSpec(n, d))
        for radius in range(4):
            got = separated_cube_pairs(grid, radius)
            assert got == _separated_cube_pairs_loop(grid, radius), (d, radius)
            assert all(type(h) is int for p in got for h in p)


def test_validate_kernel_names_first_nonconstant_pair():
    cases = [(1, 4, 1), (1, 5, 0), (1, 6, 2), (2, 2, 1), (2, 3, 1)]
    checked = 0
    for n, d, radius in cases:
        grid = build_grid(GridSpec(n, d))
        for seed in range(4):
            bad = corrupt_kernel(random_kernel(grid, radius, seed), 100 + seed)
            want = _first_nonconstant_pair_loop(bad)
            assert want is not None
            with pytest.raises(KernelValidationError) as err:
                validate_kernel(bad)
            assert err.value.cube_pair == want
            assert str(err.value) == (
                f"kernel not constant on separated cube pair (heap {want[0]}, heap {want[1]})")
            checked += 1
    assert checked == 20


def _constancy_classes_union_find(grid, radius):
    """Reference: union-find over every leaf pair of every separated pair."""
    n = grid.num_leaves
    parent = np.arange(n * n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    lo, hi = grid.box_lo, grid.box_hi
    for i, j in _separated_cube_pairs_loop(grid, radius):
        first = None
        for x in range(lo[i], hi[i]):
            for y in range(lo[j], hi[j]):
                key = x * n + y
                if first is None:
                    first = find(key)
                else:
                    parent[find(key)] = first
    return np.fromiter((find(a) for a in range(n * n)), dtype=np.int64)


@pytest.mark.parametrize("n,depths", [(1, range(0, 7)), (2, range(0, 4)), (3, range(0, 3))])
def test_constancy_classes_match_union_find(n, depths):
    # the union-find roots are the class minima, so the labels equal them and
    # random_kernel draws its classes in the same order
    for d in depths:
        grid = build_grid(GridSpec(n, d))
        for radius in range(4):
            got = _constancy_classes(grid, radius)
            assert np.array_equal(got, _constancy_classes_union_find(grid, radius)), (d, radius)


# sha256 of random_kernel(grid, radius, 0).values and of corrupt_kernel(that, 3)
# .values, as the union-find generator made them: the benchmark's reference
# outputs depend on this draw order
PINNED_KERNELS = {
    (1, 6, 2): ("c29af59aea2e50c620efce0ffbd10a792391c6dcd89a6fbe7f7134e41813fd41",
                "8a01a17447d5b997e85c108fd8ea12026ebb5580b388a2d8b665cf6a68b116be"),
    (2, 3, 1): ("7a1477423c68777abb291503fbd45a84dae1159db42f74bf0f5c17dd596894d4",
                "577308ac313170112b4a1302d665f66dbaa3aafee286d2d2665b157325c42144"),
    (3, 2, 1): ("13d79a7ff6c780872678f16f239a6df1adafbd5e05f32fa6e35a46c3ab92202a",
                "ca5f1eb23adb408768115603ec598ac3029b39a54309f06dc672032383d86068"),
    (2, 4, 0): ("103cae500c165caca8a284f87c3c82c68725b3cbac4acccb9426e7dc2d4ef153",
                "1b0c73d9ad38ecab97d466d14e83342425dd191628f2f952a068f73a68ce7b2f"),
}


@pytest.mark.parametrize("n,d,radius", sorted(PINNED_KERNELS))
def test_random_kernel_pinned_stream(n, d, radius):
    kernel = random_kernel(build_grid(GridSpec(n, d)), radius, 0)
    digest = hashlib.sha256(kernel.values.tobytes()).hexdigest()
    corrupt = hashlib.sha256(corrupt_kernel(kernel, 3).values.tobytes()).hexdigest()
    assert (digest, corrupt) == PINNED_KERNELS[n, d, radius]
