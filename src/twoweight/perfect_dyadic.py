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

Separation is heap arithmetic: I and J are separated exactly when their
ancestors at depth min(depth(I), depth(J)) - r differ (boxes meet exactly
when one holds the other).  So a leaf pair whose smallest common box has
depth L lies in a separated block at cube depths (mi, mj) exactly when
min(mi, mj) > L + r, and these all lie in the one at (c, c), c the least
cube depth above L + r, whose pairs all share L: the largest blocks are the
constancy classes.  A block is broken when its spread exceeds
CONSTANCY_ATOL (1 + its largest |K|); values raising that largest |K| by t
widen the spread by t or more, so a block holding a broken one is broken,
and it comes first in (I, J) order.  Validation reads only depths (c, c),
from a dyadic pyramid: each heap level halves the rows and columns of the
block max and min tables of the level below, O(N^2) in all, one at a time.
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
    """Axis by axis, with no (N, N, n) temporary."""
    return np.sqrt(sum((x[:, None] - x) ** 2 for x in grid.leaf_centers.T))


def _separated(grid: Grid, i, j, radius: int):
    """Cubes i and j (heap, broadcast) separated at radius r: their ancestors
    at depth min(depth(i), depth(j)) - r differ (module docstring)."""
    di, dj = grid.box_depth[i], grid.box_depth[j]
    k = np.maximum(np.minimum(di, dj) - radius, 0)
    return grid.ancestor(i, di - k) != grid.ancestor(j, dj - k)


def separated_cube_pairs(grid: Grid, radius: int):
    """Ordered cube pairs (I, J) with disjoint r-ancestor overlaps."""
    cubes = grid.cubes()
    a, b = np.nonzero(_separated(grid, cubes[:, None], cubes, radius))
    return list(zip(cubes[a].tolist(), cubes[b].tolist()))


def _block_extrema(grid: Grid, table: np.ndarray, radius: int):
    """Yield (c, hi, lo) for the cube depths radius < c < tree_depth, fine to
    coarse: hi[bi, bj] and lo[bi, bj] are the max and min of table over
    box(2^c + bi) x box(2^c + bj), the dyadic pyramid of the module
    docstring."""
    hi = lo = table
    for c in range(grid.tree_depth - 1, radius, -1):
        h, l = np.maximum(hi[0::2], hi[1::2]), np.minimum(lo[0::2], lo[1::2])
        hi, lo = np.maximum(h[:, 0::2], h[:, 1::2]), np.minimum(l[:, 0::2], l[:, 1::2])
        if c % grid.dimension == 0:
            yield c, hi, lo


def validate_kernel(kernel: PerfectDyadicKernel):
    """Raise KernelValidationError at the first violated condition: a
    non-finite entry, the size bound, then the first separated cube pair
    (I, J) whose block is not constant, the coarsest and then row-major first
    broken block at equal depths (module docstring)."""
    grid = kernel.grid
    k = kernel.values
    if not np.isfinite(k).all():
        x, y = np.argwhere(~np.isfinite(k))[0]
        raise KernelValidationError(
            f"kernel entry at leaf pair ({x}, {y}) is not finite: {k[x, y]}",
            cube_pair=(int(grid.leaf_heap(x)), int(grid.leaf_heap(y))),
        )
    dist = _leaf_distances(grid)
    bad = np.abs(k) * dist > SIZE_SLACK  # 0 on the diagonal, where dist is 0
    if np.any(bad):
        x, y = np.argwhere(bad)[0]
        raise KernelValidationError(
            f"size condition fails at leaf pair ({x}, {y}): "
            f"|K|={abs(k[x, y]):.6g} > 1/dist={1 / dist[x, y]:.6g}",
            cube_pair=(int(grid.leaf_heap(x)), int(grid.leaf_heap(y))),
        )
    first = None
    for c, hi, lo in _block_extrema(grid, k, kernel.radius):
        cubes = np.arange(1 << c, 2 << c)
        broken = hi - lo > CONSTANCY_ATOL * (1.0 + np.maximum(hi, -lo))
        broken &= _separated(grid, cubes[:, None], cubes, kernel.radius)
        if broken.any():
            first = cubes[np.argwhere(broken)[0]].tolist()
    if first:
        ci, cj = first
        raise KernelValidationError(
            f"kernel not constant on separated cube pair (heap {ci}, heap {cj})",
            cube_pair=(ci, cj),
        )


def _constancy_classes(grid: Grid, radius: int) -> np.ndarray:
    """Class label of each ordered leaf pair (key x * num_leaves + y).

    The pairs of one block I x J of a separated cube pair must share a value;
    a class is a set of pairs joined through such blocks, labelled by its
    smallest key.  The classes are the largest separated blocks (module
    docstring), at depths (c, c) for c the least cube depth above L + r, so
    a label is the block's corner: x and y with their last tree_depth - c
    bits cleared; L depends on x ^ y alone.
    """
    n, depth = grid.dimension, grid.tree_depth
    leaves = np.arange(grid.num_leaves)
    common = grid.lca_depth(grid.num_leaves, grid.num_leaves + leaves)  # L, by x ^ y
    c = -(-(common + radius + 1) // n) * n
    keep = ~((1 << np.where(c <= depth, depth - c, 0)) - 1)[leaves[:, None] ^ leaves]
    return ((leaves[:, None] & keep) * grid.num_leaves + (leaves & keep)).ravel()


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
