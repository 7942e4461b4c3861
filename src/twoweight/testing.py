"""Exact two-weight operator norms and the Sawyer-type testing constants.

The operator norm of f -> T(sigma f) from L^2(sigma) to L^2(omega) is the
largest singular value of the whitened matrix W: one dense SVD below
LANCZOS_MIN_LEAVES leaves, and from there up a Lanczos iteration on the
nonzero entries of W, which an essentially well localized operator keeps to
a few percent of the matrix (lanczos_norm states its stopping rule).  The
testing constants are suprema over boxes of the truncated grid, leaf scale
included (a leaf cube is the level-1 split rectangle of its own base, so it
belongs to the rectangle system as a set):

    c1  = max_E ||1_E T(sigma 1_E)||_omega / sigma(E)^{1/2}
    c2  =  the same for T* with the measures swapped
    c3  = max |<T(sigma 1_E), 1_G>_omega| / (sigma(E) omega(G))^{1/2}
          over pairs with 2^-r |E| <= |G| <= 2^r |E| and G meeting E^(r)

plus the global (unrestricted) and cube-indexed variants.  Zero-mass boxes
are skipped.  testing_report computes all of them in one image pass per
side and returns them as the fields of one TestingReport; its radius
defaults to ewl_radius(T), at most tree_depth - 1.  Every constant is
bounded by the operator norm, exactly; that necessity chain is asserted by
the sweep harness and the acceptance suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .exceptions import NormError
from .grid import Grid
from .haar import basis
from .localization import ewl_radius
from .operators import DyadicOperator


# Grids with at least this many leaves take the Lanczos path of operator_norm.
# The dense SVD costs O(N^3): with one BLAS thread it takes 4-6 ms per
# operator at 256 leaves, where Lanczos ties or loses on every family, and
# 38-46 ms at 512, where Lanczos takes 5-10 ms on paraproducts and random
# EWL operators, 39 ms on a Haar shift and 124 ms on a martingale transform.
LANCZOS_MIN_LEAVES = 512


def operator_norm(t: DyadicOperator) -> float:
    """||T(sigma .)||_{L^2(sigma) -> L^2(omega)}, exact on charged leaves.

    The largest singular value of W: one dense SVD below LANCZOS_MIN_LEAVES
    leaves, lanczos_norm(W) from there up.
    """
    if t.sigma.total == 0.0 or t.omega.total == 0.0:
        raise NormError("operator norm undefined: a side carries no mass")
    if t.grid.num_leaves < LANCZOS_MIN_LEAVES:
        return float(np.linalg.svd(t.w, compute_uv=False)[0])
    return lanczos_norm(t.w)


def lanczos_norm(w: np.ndarray) -> float:
    """Largest singular value of w by Lanczos on its smaller Gram matrix.

    W and W^T are applied from the nonzero entries of w with np.bincount, in
    the coordinates of the nonzero rows and columns.  The Gram matrix A is
    W^T W when w has no more nonzero columns than nonzero rows and W W^T
    otherwise, so A is k x k with k = min(#nonzero rows, #nonzero columns).
    The iteration starts from one seeded vector, so repeated calls agree bit
    for bit, and orthogonalizes each new vector twice against the whole basis.
    It stops at the first step j where, with theta and s the top eigenpair
    of the tridiagonal T_j and beta the norm of the next vector,

    * the Ritz residual beta |s_j| is at most eps * theta (converged), or
    * beta is at most sqrt(k) * eps * |A v_j|, below the rounding left by the
      orthogonalization: the basis spans an invariant subspace (breakdown), or
    * j = k: the basis spans the whole space (Krylov exhaustion).

    In the last two cases theta is an eigenvalue of A to rounding.  The
    result is sqrt(theta).
    """
    rows, cols = np.nonzero(w)
    if rows.size == 0:
        return 0.0
    vals = w[rows, cols]
    used_rows = np.zeros(w.shape[0], dtype=bool)
    used_rows[rows] = True
    used_cols = np.zeros(w.shape[1], dtype=bool)
    used_cols[cols] = True
    rows = np.cumsum(used_rows)[rows] - 1  # compressed row and column numbers
    cols = np.cumsum(used_cols)[cols] - 1
    num_rows, num_cols = int(used_rows.sum()), int(used_cols.sum())
    if num_cols <= num_rows:  # A = W^T W on the columns
        inner, outer, k, num_outer = cols, rows, num_cols, num_rows
    else:  # A = W W^T on the rows
        inner, outer, k, num_outer = rows, cols, num_rows, num_cols

    eps = np.finfo(np.float64).eps
    basis = np.empty((k, k))  # row j is the Lanczos vector v_j
    alpha = np.empty(k)
    beta = np.empty(k)
    start = np.random.default_rng(0).standard_normal(k)
    basis[0] = start / np.linalg.norm(start)
    for j in range(k):
        image = np.bincount(outer, vals * basis[j][inner], minlength=num_outer)
        y = np.bincount(inner, vals * image[outer], minlength=k)
        floor = np.sqrt(k) * eps * np.linalg.norm(y)
        done = basis[: j + 1]
        alpha[j] = 0.0
        for _ in range(2):
            h = done @ y
            y -= h @ done
            alpha[j] += h[j]
        beta[j] = np.linalg.norm(y)
        tri = np.diag(alpha[: j + 1])
        tri += np.diag(beta[:j], 1)
        tri += np.diag(beta[:j], -1)
        theta, s = np.linalg.eigh(tri)
        if (beta[j] * abs(s[-1, -1]) <= eps * theta[-1] or beta[j] <= floor
                or j + 1 == k):
            return float(np.sqrt(max(theta[-1], 0.0)))
        basis[j + 1] = y / beta[j]


def admissible_pairs(grid: Grid, r: int):
    """CSR pair list: for every box E the partners G with volume within
    2^{+-r} of E and G meeting the clipped r-ancestor of E.

    The clipped ancestor A = max(E >> r, 1) sits at depth max(depth(E) - r, 0),
    so no strict ancestor of A is close enough in volume: the partners are the
    descendants of A (A included) down to depth min(tree_depth, depth(E) + r),
    listed level by level in heap order.  That is the breadth-first order of
    A's subtree, whose k-th node (from 1) at level L = floor(log2 k) is
    (A << L) + k - 2^L.
    """
    depth = grid.box_depth
    boxes = np.arange(grid.num_boxes, dtype=np.int64)
    anc = np.maximum(boxes >> r, 1)
    levels = np.minimum(grid.tree_depth, depth + r) - depth[anc] + 1
    counts = (np.int64(1) << levels) - 1
    counts[0] = 0  # heap slot 0 is not a box
    offsets = np.zeros(grid.num_boxes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    k = np.arange(1, offsets[-1] + 1, dtype=np.int64)
    k -= np.repeat(offsets[:-1], counts)
    level = (np.frexp(k)[1] - 1).astype(np.int64)
    partners = np.repeat(anc, counts) << level
    partners += k
    partners -= np.int64(1) << level
    return offsets, partners


def _indicator_pass(wt, in_measure, out_measure, pair_offsets, pair_partner):
    """Restricted/global image norms and pairings for all boxes at once.

    wt is the transposed whitened matrix of the map being probed (input
    slot, output slot); a transposed view is fine.
    """
    grid = in_measure.grid
    ib = basis(in_measure)
    ob = basis(out_measure)
    return _kernels.testing_images(
        wt, (ib.alpha, ib.beta, ib.inv_sqrt_total), in_measure.masses,
        ob.alpha, ob.beta, ob.inv_sqrt_total, out_measure.masses,
        grid.box_lo, grid.box_hi, pair_offsets, pair_partner,
    )


def _pair_mask(grid: Grid, boxes_e: np.ndarray, partners: np.ndarray, r: int):
    """Admissibility at radius r of pairs drawn from a wider enumeration."""
    depth = grid.box_depth
    de, dg = depth[boxes_e], depth[partners]
    window = np.abs(de - dg) <= r
    anc = np.maximum(boxes_e >> r, 1)
    gap = dg - depth[anc]
    meets = np.where(
        gap >= 0,
        (partners >> np.maximum(gap, 0)) == anc,
        (anc >> np.maximum(-gap, 0)) == partners,
    )
    return window & meets


@dataclass
class TestingReport:
    """All testing constants of one operator, with witnesses and ratios."""

    norm: float
    c1: float
    c2: float
    c3: float
    c1_global: float
    c2_global: float
    c1_cube: float
    c2_cube: float
    c3_cube: float
    r_used: int
    ratio_sum: float
    ratio_max: float
    witnesses: dict = field(default_factory=dict)
    wall_ms: float = 0.0
    c3_extra: dict = field(default_factory=dict)  # radius -> c3 at that radius

    def as_dict(self) -> dict:
        return {
            "norm": self.norm,
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "c1_global": self.c1_global,
            "c2_global": self.c2_global,
            "c1_cube": self.c1_cube,
            "c2_cube": self.c2_cube,
            "c3_cube": self.c3_cube,
            "r_used": self.r_used,
            "ratio_sum": self.ratio_sum,
            "ratio_max": self.ratio_max,
            "witnesses": {k: list(map(int, v)) if isinstance(v, tuple) else int(v)
                          for k, v in self.witnesses.items()},
            "wall_ms": self.wall_ms,
        }


def _ratio_max(num: np.ndarray, den: np.ndarray, subset=None):
    """(max of sqrt(num)/sqrt(den) over den > 0, witness index)."""
    ratios = np.zeros_like(num)
    mask = den > 0
    if subset is not None:
        mask = mask & subset
    ratios[mask] = np.sqrt(num[mask]) / np.sqrt(den[mask])
    if not np.any(mask):
        return 0.0, 0
    arg = int(np.argmax(ratios))
    return float(ratios[arg]), arg


def _pair_sup(pair_vals, den_e, den_g, boxes_e, partners, subset=None):
    den = den_e * den_g
    ok = den > 0
    if subset is not None:
        ok = ok & subset
    if not np.any(ok):
        return 0.0, (0, 0)
    ratios = np.zeros_like(pair_vals)
    ratios[ok] = np.abs(pair_vals[ok]) / np.sqrt(den[ok])
    arg = int(np.argmax(ratios))
    return float(ratios[arg]), (int(boxes_e[arg]), int(partners[arg]))


def testing_report(t: DyadicOperator, r: int = None, norm: bool = True,
                   extra_c3_radii=()) -> TestingReport:
    """Full testing profile; r defaults to the operator's measured radius.

    With norm=False the (possibly expensive) operator norm and ratio fields
    are skipped.  extra_c3_radii requests c3 at further enumeration radii
    from the same image pass (report.c3_extra).
    """
    start = time.perf_counter()
    if r is None:
        r = ewl_radius(t)
    grid = t.grid
    sig_mass = t.sigma.box_mass
    om_mass = t.omega.box_mass

    enum_r = max([r, *extra_c3_radii])
    offsets, partners = admissible_pairs(grid, enum_r)
    restricted, glob, pair_vals = _indicator_pass(t.w.T, t.sigma, t.omega, offsets, partners)
    empty = (np.zeros(grid.num_boxes + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    restricted2, glob2, _ = _indicator_pass(t.w, t.omega, t.sigma, *empty)

    c1, w1 = _ratio_max(restricted, sig_mass)
    c1g, w1g = _ratio_max(glob, sig_mass)
    c2, w2 = _ratio_max(restricted2, om_mass)
    c2g, w2g = _ratio_max(glob2, om_mass)

    cube_mask = grid.box_depth % grid.dimension == 0
    c1c, w1c = _ratio_max(restricted, sig_mass, cube_mask)
    c2c, w2c = _ratio_max(restricted2, om_mass, cube_mask)

    # pair constants: normalize |<T(sigma 1_E), 1_G>| by sqrt(sigma(E) omega(G))
    boxes_e = np.repeat(np.arange(grid.num_boxes), np.diff(offsets))
    den_e, den_g = sig_mass[boxes_e], om_mass[partners]
    at_r = _pair_mask(grid, boxes_e, partners, r) if enum_r > r else None
    c3, w3 = _pair_sup(pair_vals, den_e, den_g, boxes_e, partners, at_r)
    c3_extra = {}
    for rr in extra_c3_radii:
        sub = _pair_mask(grid, boxes_e, partners, rr) if rr < enum_r else None
        c3_extra[int(rr)], _ = _pair_sup(pair_vals, den_e, den_g, boxes_e, partners, sub)
    cubes = cube_mask[boxes_e] & cube_mask[partners]
    if at_r is not None:
        cubes = cubes & at_r
    c3c, w3c = _pair_sup(pair_vals, den_e, den_g, boxes_e, partners, cubes)

    nrm = operator_norm(t) if norm else 0.0
    csum = c1 + c2 + c3
    report = TestingReport(
        norm=nrm, c1=c1, c2=c2, c3=c3, c1_global=c1g, c2_global=c2g,
        c1_cube=c1c, c2_cube=c2c, c3_cube=c3c, r_used=int(r),
        ratio_sum=(nrm / csum if csum > 0 else 0.0),
        ratio_max=(max(c1, c2, c3) / nrm if nrm > 0 else 0.0),
        witnesses={
            "c1": w1, "c2": w2, "c3": w3, "c1_global": w1g, "c2_global": w2g,
            "c1_cube": w1c, "c2_cube": w2c, "c3_cube": w3c,
        },
        c3_extra=c3_extra,
    )
    report.wall_ms = (time.perf_counter() - start) * 1e3
    return report
