r"""Kernels constant on separated dyadic cube pairs, and their operators.

A kernel table K over leaf pairs is (essentially) perfect dyadic with radius
r when |K(x, y)| <= 1 / dist(x, y) off the diagonal and K is constant on
I x J for every pair of dyadic cubes with I^(r) /\ J = 0 and J^(r) /\ I = 0
(heap ancestors, clipped at the root).  Such operators are essentially well
localized with ewl_radius <= r + n - 1 for any pair of measures.  A box E
lies in the dyadic cube C at depth n floor(depth(E) / n), at most n - 1 heap
levels up.  For a leaf x outside C^(r), the box at C's depth containing x is
a cube J with C^(r) /\ J = 0 and J^(r) /\ C = 0 (same-depth boxes with
different r-ancestors), so the kernel row at x is constant on C, which holds
E, and the weighted Haar function of E integrates to zero against it:
T(sigma h_E) vanishes outside C^(r) = E^(r + depth(E) - depth(C)), and
T*(omega h_E) likewise.  For n = 1 every box is a cube and the bound is r;
random kernels attain r + n - 1 in every dimension sampled (n = 1, 2, 3).

dist(x, y) is the Euclidean distance between leaf centers (the discrete
reading of the pointwise size bound on a leaf-constant kernel).
"""

from __future__ import annotations

import numpy as np

from .exceptions import KernelValidationError
from .grid import Grid
from .measures import LeafMeasure
from .operators import DyadicOperator, from_leaf_matrix

SIZE_SLACK = 1 + 1e-12
CONSTANCY_ATOL = 1e-11


class PerfectDyadicKernel:
    """Leaf-pair kernel table (Morton order) with a claimed radius."""

    def __init__(self, grid: Grid, values, radius: int):
        values = np.asarray(values, dtype=np.float64)
        n = grid.num_leaves
        if values.shape != (n, n):
            raise ValueError("kernel table must be (num_leaves, num_leaves)")
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.grid = grid
        self.values = values
        self.radius = radius


def _leaf_distances(grid: Grid) -> np.ndarray:
    c = grid.leaf_centers
    diff = c[:, None, :] - c[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _separated_pairs(grid: Grid, radius: int):
    """Heap arrays (I, J) of the separated cube pairs, row-major over cubes."""
    cubes = grid.cubes()
    meet = grid.meets(grid.ancestor(cubes, radius)[:, None], cubes)  # [I, J]: I^(r) meets J
    a, b = np.nonzero(~meet & ~meet.T)
    return cubes[a], cubes[b]


def separated_cube_pairs(grid: Grid, radius: int):
    """Ordered cube pairs (I, J) with disjoint r-ancestor overlaps."""
    i, j = _separated_pairs(grid, radius)
    return list(zip(i.tolist(), j.tolist()))


def _depth_pair_blocks(grid: Grid, i: np.ndarray, j: np.ndarray):
    """Yield (sel, shape, bi, bj) per (depth I, depth J) group of the pairs
    (i, j): the cubes of one depth tile the leaves, so table.reshape(shape)
    has the block I x J of pair sel[t] at [bi[t], :, bj[t], :]."""
    n = grid.num_leaves
    levels = grid.tree_depth + 1
    group = grid.box_depth[i] * levels + grid.box_depth[j]
    for key in np.unique(group):
        sel = np.nonzero(group == key)[0]
        mi, mj = divmod(int(key), levels)
        yield sel, (1 << mi, n >> mi, 1 << mj, n >> mj), i[sel] - (1 << mi), j[sel] - (1 << mj)


def validate_kernel(kernel: PerfectDyadicKernel):
    """Raise KernelValidationError at the first violated condition."""
    grid = kernel.grid
    k = kernel.values
    dist = _leaf_distances(grid)
    off = ~np.eye(grid.num_leaves, dtype=bool)
    bad = off & (np.abs(k) * dist > SIZE_SLACK)
    if np.any(bad):
        x, y = np.argwhere(bad)[0]
        raise KernelValidationError(
            f"size condition fails at leaf pair ({x}, {y}): "
            f"|K|={abs(k[x, y]):.6g} > 1/dist={1 / dist[x, y]:.6g}",
            cube_pair=(int(grid.leaf_heap(x)), int(grid.leaf_heap(y))),
        )
    i, j = _separated_pairs(grid, kernel.radius)
    broken = np.zeros(i.size, dtype=bool)
    for sel, shape, bi, bj in _depth_pair_blocks(grid, i, j):
        blocks = k.reshape(shape)
        spread = np.ptp(blocks, axis=(1, 3))
        peak = np.max(np.abs(blocks), axis=(1, 3))
        broken[sel] = spread[bi, bj] > CONSTANCY_ATOL * (1.0 + peak[bi, bj])
    if np.any(broken):
        first = int(np.argmax(broken))
        ci, cj = int(i[first]), int(j[first])
        raise KernelValidationError(
            f"kernel not constant on separated cube pair (heap {ci}, heap {cj})",
            cube_pair=(ci, cj),
        )


def _constancy_classes(grid: Grid, radius: int) -> np.ndarray:
    """Class label of each ordered leaf pair (key x * num_leaves + y).

    The pairs of one block I x J of a separated cube pair must share a value;
    a class is a set of pairs joined through such blocks, labelled by its
    smallest key.  Setting every separated block to its smallest label until
    nothing changes reaches those labels: labels only decrease and stay keys
    of the class, and at the fixed point each block is constant.
    """
    n = grid.num_leaves
    labels = np.arange(n * n).reshape(n, n)
    views = []
    for _, shape, bi, bj in _depth_pair_blocks(grid, *_separated_pairs(grid, radius)):
        separated = np.zeros((shape[0], 1, shape[2], 1), dtype=bool)
        separated[bi, 0, bj, 0] = True
        views.append((labels.reshape(shape), separated))
    while True:
        before = labels.copy()
        for blocks, separated in views:
            np.copyto(blocks, blocks.min(axis=(1, 3), keepdims=True), where=separated)
        if np.array_equal(labels, before):
            return labels.ravel()


def random_kernel(grid: Grid, radius: int, seed) -> PerfectDyadicKernel:
    """Random valid kernel: one uniform value per constancy class, scaled to
    the tightest size bound inside the class; diagonal zero.  Classes draw in
    the order of their labels."""
    rng = np.random.default_rng(seed)
    n = grid.num_leaves
    dist = _leaf_distances(grid)
    with np.errstate(divide="ignore"):
        bound = np.where(dist > 0, 1.0 / dist, 0.0).ravel()
    keys, cls = np.unique(_constancy_classes(grid, radius), return_inverse=True)
    tightest = np.full(keys.size, np.inf)
    np.minimum.at(tightest, cls, bound)
    live = tightest != 0.0  # a class touching the diagonal keeps zero
    value = np.zeros(keys.size)
    value[live] = rng.uniform(-1.0, 1.0, np.count_nonzero(live)) * tightest[live]
    k = value[cls].reshape(n, n)
    np.fill_diagonal(k, 0.0)
    return PerfectDyadicKernel(grid, k, radius)


def corrupt_kernel(kernel: PerfectDyadicKernel, seed) -> PerfectDyadicKernel:
    """Break constancy inside one multi-leaf class; validation must flag it."""
    rng = np.random.default_rng(seed)
    grid = kernel.grid
    roots = _constancy_classes(grid, kernel.radius)
    counts = np.bincount(roots, minlength=roots.size)
    big = np.nonzero(counts[roots] > 1)[0]
    if big.size == 0:
        raise ValueError("no multi-pair constancy class at this size")
    pick = int(big[rng.integers(big.size)])
    n = grid.num_leaves
    values = kernel.values.copy()
    dist = _leaf_distances(grid)
    x, y = divmod(pick, n)
    values[x, y] += 0.5 / dist[x, y] * (1 if values[x, y] <= 0 else -1)
    return PerfectDyadicKernel(grid, values, kernel.radius)


def perfect_dyadic_operator(kernel: PerfectDyadicKernel, sigma: LeafMeasure,
                            omega: LeafMeasure) -> DyadicOperator:
    """T(sigma f)(x) = sum_y K(x, y) f(y) sigma(y); kernel validated first."""
    validate_kernel(kernel)
    a = kernel.values * sigma.masses[None, :]
    return from_leaf_matrix(kernel.grid, sigma, omega, a, family="perfect_dyadic",
                            claimed_radius=kernel.radius)
