"""Finite dyadic grid on a root cube and its binary split-rectangle system.

The grid of dimension n and depth d has 2^(n*d) leaf cubes of side
side(Q0) / 2^d.  Between consecutive cube scales the cubes are refined by
round-robin halvings, axis 0 first: the box at heap depth m is split along
axis m mod n.  This produces a single full binary tree over the leaves whose
nodes are exactly the 2^n - 1 split rectangles of every dyadic cube:

* heap index H = 1 is the root cube Q0; the halves of H are 2H (lower
  coordinate, the "first" half E^1) and 2H+1 (upper, E^2);
* a box at depth m has volume 2^-m |Q0| and is a contiguous run of leaves in
  Morton order, so masses and integrals over boxes are prefix sums;
* the cube at scale k is the box at depth n*k; the rectangle E_{F,i} of a
  cube F at scale k is the box at depth n*k + level(i) - 1 with local heap
  index i inside F's subtree.

Geometry is exact: cube addresses are integers and coordinates are binary
rationals (Fraction).  Only masses/coefficients use floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exceptions import GridSizeError, ScaleError

DEFAULT_LEAF_CAP = 1 << 20


@dataclass(frozen=True)
class GridSpec:
    """Dimension, root cube and refinement depth of a finite dyadic grid."""

    dimension: int
    depth: int
    origin: tuple = None
    side: Fraction = Fraction(1)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        origin = self.origin
        if origin is None:
            origin = tuple(Fraction(0) for _ in range(self.dimension))
        else:
            origin = tuple(Fraction(c) for c in origin)
        if len(origin) != self.dimension:
            raise ValueError("origin length must equal dimension")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "side", Fraction(self.side))
        if self.side <= 0:
            raise ValueError("side must be positive")


def _morton_from_axes(axes, n, d):
    """Interleave per-axis indices (MSB first, axis 0 first) into Morton codes."""
    morton = np.zeros_like(axes[0], dtype=np.int64)
    for k in range(d):
        for a in range(n):
            bit = (axes[a] >> (d - 1 - k)) & 1
            morton |= bit << (n * d - 1 - (n * k + a))
    return morton


class Grid:
    """Precomputed address tables for one root cube.

    Leaf arrays everywhere in the package are in Morton order; lexicographic
    order (sorted per-axis index tuples) is only used at the serialization
    boundary via ``lex_to_morton``/``morton_to_lex``.
    """

    def __init__(self, spec: GridSpec, leaf_cap: int = DEFAULT_LEAF_CAP):
        n, d = spec.dimension, spec.depth
        if n * d >= 63:
            raise GridSizeError(f"2^{n * d} leaves overflows the address space")
        num_leaves = 1 << (n * d)
        if num_leaves > leaf_cap:
            raise GridSizeError(
                f"grid needs {num_leaves} leaves, above the cap {leaf_cap}"
            )
        self.spec = spec
        self.dimension = n
        self.depth = d
        self.tree_depth = n * d
        self.num_leaves = num_leaves
        self.num_boxes = 2 * num_leaves  # heap slots, index 0 unused

        lex = np.arange(num_leaves, dtype=np.int64)
        axes = [(lex >> (d * (n - 1 - a))) & ((1 << d) - 1) for a in range(n)]
        self.lex_to_morton = _morton_from_axes(axes, n, d)
        self.morton_to_lex = np.empty(num_leaves, dtype=np.int64)
        self.morton_to_lex[self.lex_to_morton] = lex

        # per-heap-box depth and Morton leaf range [lo, hi)
        self.box_depth = np.zeros(self.num_boxes, dtype=np.int64)
        self.box_lo = np.zeros(self.num_boxes, dtype=np.int64)
        self.box_hi = np.zeros(self.num_boxes, dtype=np.int64)
        for m in range(n * d + 1):
            first, last = 1 << m, 1 << (m + 1)
            shift = n * d - m
            idx = np.arange(first, last)
            self.box_depth[idx] = m
            self.box_lo[idx] = (idx - first) << shift
            self.box_hi[idx] = self.box_lo[idx] + (1 << shift)

        # leaf centers in Morton order (floats; exact geometry via box())
        centers = np.empty((num_leaves, n), dtype=np.float64)
        side = float(spec.side)
        for a in range(n):
            coord = float(spec.origin[a]) + side * (axes[a].astype(np.float64) + 0.5) / (1 << d)
            centers[self.lex_to_morton, a] = coord
        self.leaf_centers = centers

        self.leaf_volume = float(spec.side) ** n / num_leaves

    # -- heap arithmetic ----------------------------------------------------

    def ancestor(self, h: int, r: int) -> int:
        """The box of volume 2^r |box(h)| containing box(h), clipped at Q0."""
        a = h >> r
        return a if a >= 1 else 1

    def contains(self, outer: int, inner: int) -> bool:
        gap = self.box_depth[inner] - self.box_depth[outer]
        return gap >= 0 and (inner >> gap) == outer

    def is_cube(self, h: int) -> bool:
        return self.box_depth[h] % self.dimension == 0

    def box_volume(self, h: int) -> float:
        return float(self.spec.side) ** self.dimension / (1 << int(self.box_depth[h]))

    def all_boxes(self) -> np.ndarray:
        """All boxes, root through leaf scale (heap order)."""
        return np.arange(1, self.num_boxes, dtype=np.int64)

    def rectangles(self) -> np.ndarray:
        """Haar-carrying boxes: every depth above leaf scale."""
        return np.arange(1, self.num_leaves, dtype=np.int64)

    def cubes(self) -> np.ndarray:
        boxes = self.all_boxes()
        return boxes[self.box_depth[boxes] % self.dimension == 0]

    def box(self, h: int):
        """Exact per-axis intervals [(lo, hi), ...] of a heap box."""
        m = int(self.box_depth[h])
        n, d = self.dimension, self.depth
        bits = [(h >> (m - 1 - j)) & 1 for j in range(m)]
        out = []
        for a in range(n):
            abits = bits[a::n]
            x = 0
            for b in abits:
                x = (x << 1) | b
            k = len(abits)
            lo = self.spec.origin[a] + self.spec.side * Fraction(x, 1 << k)
            hi = self.spec.origin[a] + self.spec.side * Fraction(x + 1, 1 << k)
            out.append((lo, hi))
        return out

    def leaf_heap(self, morton_index: int) -> int:
        return self.num_leaves + morton_index

    def cube_heap(self, scale: int, index: tuple) -> int:
        """Heap index of the cube at a given scale and per-axis index tuple."""
        n = self.dimension
        if not 0 <= scale <= self.depth:
            raise ValueError("scale outside grid")
        prefix = 0
        for k in range(scale):
            for a in range(n):
                prefix = (prefix << 1) | ((index[a] >> (scale - 1 - k)) & 1)
        return (1 << (n * scale)) + prefix

    def __eq__(self, other):
        return isinstance(other, Grid) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Grid(n={self.dimension}, d={self.depth}, leaves={self.num_leaves})"


def build_grid(spec: GridSpec, leaf_cap: int = DEFAULT_LEAF_CAP) -> Grid:
    return Grid(spec, leaf_cap=leaf_cap)


@dataclass(frozen=True)
class DyadicCube:
    """Cube of side 2^-k side(Q0), addressed by scale and per-axis indices."""

    grid: Grid = field(repr=False)
    scale: int
    index: tuple

    def __post_init__(self):
        if not 0 <= self.scale <= self.grid.depth:
            raise ValueError("scale outside grid")
        if len(self.index) != self.grid.dimension:
            raise ValueError("index length must equal dimension")
        if any(not 0 <= x < (1 << self.scale) for x in self.index):
            raise ValueError("cube index outside root cube")

    @property
    def heap(self) -> int:
        return self.grid.cube_heap(self.scale, self.index)

    @property
    def side(self) -> Fraction:
        return self.grid.spec.side / (1 << self.scale)

    def as_rectangle(self) -> "HaarRectangle":
        return HaarRectangle(self.grid, self.heap)


@dataclass(frozen=True)
class HaarRectangle:
    """A node of the global binary box tree: carrier of one Haar function.

    The rectangle with base cube F and local index i (1 <= i <= 2^n - 1) is
    the heap box at depth n*scale(F) + floor(log2 i); boxes at leaf depth are
    the leaf cubes themselves (no Haar function, halves unresolved).
    """

    grid: Grid = field(repr=False)
    heap: int

    def __post_init__(self):
        if not 1 <= self.heap < self.grid.num_boxes:
            raise ValueError("heap index outside tree")

    @property
    def tree_depth(self) -> int:
        return int(self.grid.box_depth[self.heap])

    @property
    def level(self) -> int:
        """Split level within the base cube, 1..n (1 = the cube itself)."""
        return self.tree_depth % self.grid.dimension + 1

    @property
    def local_index(self) -> int:
        """Heap index i of E_{F,i} within the base cube's subtree."""
        a = self.tree_depth % self.grid.dimension
        prefix = self.heap - (1 << self.tree_depth)
        return (1 << a) + (prefix & ((1 << a) - 1))

    @property
    def base(self) -> DyadicCube:
        n = self.grid.dimension
        k = self.tree_depth // n
        cube_heap = self.heap >> (self.tree_depth - n * k)
        prefix = cube_heap - (1 << (n * k))
        index = [0] * n
        for j in range(n * k):
            bit = (prefix >> (n * k - 1 - j)) & 1
            index[j % n] = (index[j % n] << 1) | bit
        return DyadicCube(self.grid, k, tuple(index))

    @property
    def volume(self) -> float:
        return self.grid.box_volume(self.heap)

    @property
    def is_leaf(self) -> bool:
        return self.tree_depth == self.grid.tree_depth

    def halves(self):
        """(E^1, E^2): lower/upper halves along axis tree_depth mod n."""
        if self.is_leaf:
            raise ScaleError("leaf-scale box has no resolvable halves")
        return (
            HaarRectangle(self.grid, 2 * self.heap),
            HaarRectangle(self.grid, 2 * self.heap + 1),
        )

    def leaf_slice(self) -> slice:
        return slice(int(self.grid.box_lo[self.heap]), int(self.grid.box_hi[self.heap]))

    def box(self):
        return self.grid.box(self.heap)


def split_rectangles(cube: DyadicCube):
    """The 2^n - 1 rectangles refining a cube into its 2^n children.

    Heap-ordered: E_1 is the cube split along axis 0; the halves of E_i are
    E_{2i}, E_{2i+1} while those stay above cube scale, and two dyadic
    children of the cube at the last level.
    """
    grid = cube.grid
    if cube.scale > grid.depth - 1:
        raise ScaleError("cube at leaf scale cannot be split")
    root = cube.heap
    out = []
    for a in range(grid.dimension):
        base = root << a
        out.extend(HaarRectangle(grid, base + j) for j in range(1 << a))
    return out


def ancestor_rectangle(rect: HaarRectangle, r: int) -> HaarRectangle:
    """The rectangle of volume 2^r |E| containing E; clips at the root cube."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return HaarRectangle(rect.grid, rect.grid.ancestor(rect.heap, r))
