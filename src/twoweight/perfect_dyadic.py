r"""Kernels constant on separated dyadic cube pairs, and their operators.

A kernel table K over leaf pairs is (essentially) perfect dyadic with radius
r when |K(x, y)| <= 1 / dist(x, y) off the diagonal and K is constant on
I x J for every pair of dyadic cubes with I^(r) /\ J = 0 and J^(r) /\ I = 0
(heap ancestors, clipped at the root).  In dimension 1 such operators are
essentially well localized with radius <= r for any pair of measures: for a
leaf x outside E^(r), the same-depth box containing x forms a separated pair
with E, so the kernel row is constant on E and the weighted Haar function
integrates to zero against it.  The argument needs E to be a dyadic cube,
which every box is only when n = 1; for n >= 2 the radius bound does not
hold in general (a random n=2, d=3 kernel of radius 1, benchmark reference
key ``kernel:perfect_dyadic:n2d3@e576a51b011c``, has ewl_radius 2).

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

    def validate(self):
        validate_kernel(self)
        return self


def _leaf_distances(grid: Grid) -> np.ndarray:
    c = grid.leaf_centers
    diff = c[:, None, :] - c[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def separated_cube_pairs(grid: Grid, radius: int):
    """Ordered cube pairs (I, J) with disjoint r-ancestor overlaps."""
    cubes = grid.cubes()
    depth = grid.box_depth
    anc = np.maximum(cubes >> np.minimum(radius, depth[cubes]), 1)
    pairs = []
    for a, i in enumerate(cubes):
        for bj, j in enumerate(cubes):
            if _boxes_meet(grid, anc[a], j) or _boxes_meet(grid, anc[bj], i):
                continue
            pairs.append((int(i), int(j)))
    return pairs


def _boxes_meet(grid: Grid, a: int, b: int) -> bool:
    return grid.contains(a, b) or grid.contains(b, a)


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
    lo, hi = grid.box_lo, grid.box_hi
    for i, j in separated_cube_pairs(grid, kernel.radius):
        block = k[lo[i] : hi[i], lo[j] : hi[j]]
        if block.size and np.ptp(block) > CONSTANCY_ATOL * (1.0 + np.max(np.abs(block))):
            raise KernelValidationError(
                f"kernel not constant on separated cube pair (heap {i}, heap {j})",
                cube_pair=(int(i), int(j)),
            )


def _constancy_classes(grid: Grid, radius: int) -> np.ndarray:
    """Union-find partition of ordered leaf pairs forced to share one value."""
    n = grid.num_leaves
    parent = np.arange(n * n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    lo, hi = grid.box_lo, grid.box_hi
    for i, j in separated_cube_pairs(grid, radius):
        xs = range(lo[i], hi[i])
        ys = range(lo[j], hi[j])
        first = None
        for x in xs:
            for y in ys:
                key = x * n + y
                if first is None:
                    first = find(key)
                else:
                    parent[find(key)] = first
    roots = np.fromiter((find(a) for a in range(n * n)), dtype=np.int64)
    return roots


def random_kernel(grid: Grid, radius: int, seed) -> PerfectDyadicKernel:
    """Random valid kernel: one uniform value per constancy class, scaled to
    the tightest size bound inside the class; diagonal zero."""
    rng = np.random.default_rng(seed)
    n = grid.num_leaves
    roots = _constancy_classes(grid, radius)
    dist = _leaf_distances(grid)
    with np.errstate(divide="ignore"):
        bound = np.where(dist > 0, 1.0 / dist, 0.0).ravel()
    values = np.zeros(n * n)
    for root in np.unique(roots):
        members = np.nonzero(roots == root)[0]
        b = np.min(bound[members])
        if b == 0.0:  # class touching the diagonal: keep zero
            continue
        values[members] = rng.uniform(-1.0, 1.0) * b
    k = values.reshape(n, n)
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
