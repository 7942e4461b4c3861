"""Operator families on a weighted dyadic grid and their adjoints.

A ``DyadicOperator`` realizes f -> T(sigma f) as a matrix W in the whitened
Haar coordinates of the two measures: slot 0 is the normalized constant,
slot H the rectangle with heap index H, and

    W[G, E] = < T(sigma e^sigma_E), e^omega_G >_omega

with orthonormal bases on both sides.  Consequences used throughout:

* the two-weight operator norm is the largest singular value of W;
* the adjoint with respect to the (sigma, omega) pairing is W^T with the
  measures swapped;
* the bilinear form <T(sigma f), g>_omega is ghat . W fhat, so the pair sums
  of the certificate engine read matrix entries directly.

Rows/columns at uncharged slots are identically zero (those directions carry
no basis function and the conventions drop them).
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .exceptions import DimensionError, GridSizeError
from .grid import Grid
from .haar import WeightedBasis, analyze, basis, synthesize
from .measures import LeafMeasure

MAX_OPERATOR_LEAVES = 4096


class CoefficientSequence:
    """Finitely supported coefficients b indexed by rectangle heap index."""

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.num_leaves,):
            raise ValueError("coefficient array must have one slot per rectangle")
        self.grid = grid
        self.values = values

    @classmethod
    def from_dict(cls, grid: Grid, entries: dict) -> "CoefficientSequence":
        values = np.zeros(grid.num_leaves)
        for heap, b in entries.items():
            if not 1 <= int(heap) < grid.num_leaves:
                raise ValueError(f"heap index {heap} is not a rectangle")
            values[int(heap)] = b
        return cls(grid, values)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "CoefficientSequence":
        values = np.full(grid.num_leaves, float(value))
        values[0] = 0.0
        return cls(grid, values)

    @classmethod
    def random(cls, grid: Grid, rng) -> "CoefficientSequence":
        values = rng.uniform(-1.0, 1.0, grid.num_leaves)
        values[0] = 0.0
        return cls(grid, values)


class DyadicOperator:
    """Linear map f -> T(sigma f) from L^2(sigma) to L^2(omega)."""

    def __init__(self, grid: Grid, sigma: LeafMeasure, omega: LeafMeasure,
                 w: np.ndarray, family: str = "custom", claimed_radius=None,
                 meta: dict = None):
        n = grid.num_leaves
        if n > MAX_OPERATOR_LEAVES:
            raise GridSizeError(
                f"dense operator needs {n}x{n} coefficients; cap is {MAX_OPERATOR_LEAVES}"
            )
        if w.shape != (n, n):
            raise ValueError("whitened matrix must be (num_leaves, num_leaves)")
        self.grid = grid
        self.sigma = sigma
        self.omega = omega
        self.w = w
        self.family = family
        self.claimed_radius = claimed_radius
        self.meta = meta or {}
        self._nz = _mask_uncharged(w, basis(sigma), basis(omega))
        w.flags.writeable = False  # operators are immutable once built
        self._fro = self._radii = None  # read once (W is read-only)

    # -- action --------------------------------------------------------------

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Leaf values of T(sigma f); batched over leading axes."""
        coef = analyze(self.sigma, values)
        return synthesize(self.omega, coef @ self.w.T)

    def pairing(self, f_values: np.ndarray, g_values: np.ndarray) -> float:
        """<T(sigma f), g>_omega."""
        fhat = analyze(self.sigma, f_values)
        ghat = analyze(self.omega, g_values)
        return float(ghat @ (self.w @ fhat))

    def adjoint(self) -> "DyadicOperator":
        """The map g -> T*(omega g) from L^2(omega) to L^2(sigma)."""
        meta = dict(self.meta)
        meta["adjoint"] = not self.meta.get("adjoint", False)
        return DyadicOperator(self.grid, self.omega, self.sigma,
                              self.w.T.copy(), family=self.family,
                              claimed_radius=self.claimed_radius, meta=meta)

    def frobenius(self) -> float:
        if self._fro is None:
            self._fro = float(np.linalg.norm(self.w))
        return self._fro

    def nonzeros(self, transpose: bool = False):
        """(rows, cols, values) of W's nonzero entries, -0.0 included, in
        row-major order (_kernels.nonzeros), or with transpose those of W.T:
        the input stages synthesize from them.  W is scanned once, as the
        operator is built (_mask_uncharged)."""
        return _kernels.transpose_nonzeros(self._nz) if transpose else self._nz

    def leaf_matrix(self) -> np.ndarray:
        """Dense leaf matrix A with (A f)(x) = T(sigma f)(x); small grids only."""
        n = self.grid.num_leaves
        if n > 1024:
            raise GridSizeError("leaf matrix materialization capped at 1024 leaves")
        return self.apply(np.eye(n)).T

    def __repr__(self):
        return f"DyadicOperator(family={self.family!r}, leaves={self.grid.num_leaves})"


def _mask_uncharged(w: np.ndarray, bs: WeightedBasis, bo: WeightedBasis):
    """Zero W's rows at uncharged output slots and its columns at uncharged
    input slots, in place, and return the nonzeros of the result.  The rows
    are zeroed whole; the columns only at their entries in the one scan of
    W, which then drops them: a strided write of whole columns costs about
    2 ms at 1024 leaves."""
    w[~bo.charged_slots(), :] = 0.0
    rows, cols, vals = _kernels.nonzeros(w)
    keep = bs.charged_slots()[cols]
    if not keep.all():
        w[rows[~keep], cols[~keep]] = 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return rows, cols, vals


def from_leaf_matrix(grid: Grid, sigma: LeafMeasure, omega: LeafMeasure,
                     a: np.ndarray, family: str = "custom",
                     claimed_radius=None, meta=None) -> DyadicOperator:
    """Wrap a dense leaf matrix (Morton order) as a DyadicOperator."""
    n = grid.num_leaves
    if a.shape != (n, n):
        raise ValueError("leaf matrix must be (num_leaves, num_leaves)")
    synth_basis = synthesize(sigma, np.eye(n))  # row b = values of basis b
    images = synth_basis @ a.T  # row b = A @ basis_b
    w = analyze(omega, images).T
    return DyadicOperator(grid, sigma, omega, w, family=family,
                          claimed_radius=claimed_radius, meta=meta)


def zero_operator(grid: Grid, sigma: LeafMeasure, omega: LeafMeasure) -> DyadicOperator:
    return DyadicOperator(grid, sigma, omega, np.zeros((grid.num_leaves,) * 2),
                          family="custom", claimed_radius=0)


def martingale_transform(b: CoefficientSequence, sigma: LeafMeasure,
                         omega: LeafMeasure) -> DyadicOperator:
    """T_b f = sum_E b_E <f, h^sigma_E>_sigma h^omega_E, so T_b h^sigma_E = b_E h^omega_E."""
    grid = b.grid
    w = np.zeros((grid.num_leaves,) * 2)
    idx = np.arange(1, grid.num_leaves)
    w[idx, idx] = b.values[1:]
    return DyadicOperator(grid, sigma, omega, w, family="martingale_transform",
                          claimed_radius=0, meta={"coefficients": b.values})


def paraproduct(b: CoefficientSequence, sigma: LeafMeasure,
                omega: LeafMeasure) -> DyadicOperator:
    """P_b f = sum_E b_E <f>^sigma_E h^omega_E.

    The sigma-average over E is the martingale value at E, a combination of
    the Haar coefficients along E's ancestor chain plus the mean; terms with
    sigma(E) = 0 are dropped.
    """
    grid = b.grid
    n = grid.num_leaves
    w = np.zeros((n, n))
    rows = np.flatnonzero((b.values[1:] != 0.0) & (sigma.box_mass[1:n] != 0.0)) + 1
    i, slot, c = basis(sigma).average_coefficients(rows)
    w[rows[i], slot] += b.values[rows[i]] * c
    return DyadicOperator(grid, sigma, omega, w, family="paraproduct",
                          claimed_radius=0, meta={"coefficients": b.values})


def haar_shift(b: CoefficientSequence, sigma: LeafMeasure,
               omega: LeafMeasure) -> DyadicOperator:
    """S h^sigma_I = b_I (h^omega_{I_R} - h^omega_{I_L}) on one-dimensional grids.

    Intervals whose children sit at leaf scale contribute nothing (their
    child Haar functions do not resolve).
    """
    grid = b.grid
    if grid.dimension != 1:
        raise DimensionError("haar_shift is defined for dimension 1 only")
    n = grid.num_leaves
    w = np.zeros((n, n))
    for h in range(1, n // 2):  # children 2h, 2h+1 stay above leaf scale
        w[2 * h, h] = -b.values[h]
        w[2 * h + 1, h] = b.values[h]
    return DyadicOperator(grid, sigma, omega, w, family="haar_shift",
                          claimed_radius=1, meta={"coefficients": b.values})


def _slot_boxes(grid: Grid) -> np.ndarray:
    """Heap box per whitened slot; the constant slot acts like the root."""
    boxes = np.arange(grid.num_leaves, dtype=np.int64)
    boxes[0] = 1
    return boxes


# The families built from a coefficient sequence b, by name: the sweep draws
# b and serialize stores it in place of the matrix.  It stays a module-level
# dict: perfbench's tracer times the builders by rewriting its entries.
COEFFICIENT_BUILDERS = {
    "martingale_transform": martingale_transform,
    "paraproduct": paraproduct,
    "haar_shift": haar_shift,
}


def random_ewl(r: int, sigma: LeafMeasure, omega: LeafMeasure, rng_seed) -> DyadicOperator:
    """Random operator that is essentially well localized with radius <= r.

    Three ingredient draws, all iid uniform on [-1, 1]:

    * window entries W[G, E] wherever box(G) sits inside the r-ancestor of
      box(E) and box(E) inside the r-ancestor of box(G) (this covers the
      image of 1_{Q0} through the constant slot);
    * per column E a mean component: the image of h^sigma_E gains
      mu_E 1_{E^(r)} / omega(E^(r))^{1/2}, whose whitened expansion runs up
      E^(r)'s ancestor chain -- these entries feed the B class and never
      violate the adjoint support (the chain boxes contain box(E));
    * symmetrically per row G a sigma-mean component for T*(omega h^omega_G),
      feeding the C class.

    Both support conditions hold by construction, so the measured radius is
    at most r.  From r = tree_depth on every r-ancestor is the root and every
    window the whole tree, so W is built at min(r, tree_depth): a radius
    read from a file or a config forms no shift wider than the grid.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    grid = sigma.grid
    n = grid.num_leaves
    claimed, r = r, min(r, grid.tree_depth)
    boxes = _slot_boxes(grid)
    anc = grid.ancestor(boxes, r)

    rng = np.random.default_rng(rng_seed)
    w = np.zeros((n, n))
    out_charged = basis(omega).charged_slots()
    in_charged = basis(sigma).charged_slots()
    # Column e's window, drawn column by column: the boxes g of anc(e)'s subtree
    # above leaf scale and down to r levels below box(e), breadth first (rows
    # ascending), with box(e) in anc(g).  Box 1 stands for slots 0 and 1: the
    # first `top` columns, those with anc(e) at the root, take one box more.
    top = min(n, 2 << r)
    levels = np.minimum(grid.box_depth[boxes] + r, grid.tree_depth - 1) - grid.box_depth[anc] + 1
    counts = (np.int64(1) << levels) - 1
    counts[:top] += 1
    offsets, g = grid.subtree_boxes(anc, counts)
    g[: offsets[top]] -= 1
    e = np.repeat(np.arange(n), counts)
    keep = grid.contains(anc[g], boxes[e]) & in_charged[e] & out_charged[g]
    w[g[keep], e[keep]] = rng.uniform(-1.0, 1.0, np.count_nonzero(keep))
    _add_mean_components(w, omega, anc, in_charged, rng)
    _add_mean_components(w.T, sigma, anc, out_charged, rng)
    return DyadicOperator(grid, sigma, omega, w, family="random_ewl",
                          claimed_radius=claimed, meta={"seed": rng_seed})


def _add_mean_components(w: np.ndarray, mu: LeafMeasure, anc: np.ndarray,
                         charged: np.ndarray, rng):
    """Add u_e 1_{anc(e)} / mu(anc(e))^{1/2}, in mu's whitened coordinates, to
    every column e >= 1 that is charged and has mu(anc(e)) > 0.

    One uniform draw u_e per such column, columns ascending.  The entries are
    those of ``haar.indicator_coefficients(mu, anc(e))``, from the root paths
    of all the columns at once.
    """
    cols = np.flatnonzero(charged[1:] & (mu.box_mass[anc[1:]] > 0)) + 1
    mass = mu.box_mass[anc[cols]]
    u = rng.uniform(-1.0, 1.0, cols.size)
    root = np.sqrt(mass)
    i, slot, c = basis(mu).average_coefficients(anc[cols])
    v = c * mass[i]
    nz = v != 0.0
    i, slot, v = i[nz], slot[nz], v[nz]
    w[slot, cols[i]] += u[i] * v / root[i]
