"""Exact two-weight operator norms and the Sawyer-type testing constants.

The operator norm of f -> T(sigma f) from L^2(sigma) to L^2(omega) is the
largest singular value of the whitened matrix W: one dense SVD below
LANCZOS_MIN_LEAVES leaves, and from there up a Lanczos iteration on the
nonzero entries of W, which an essentially well localized operator keeps to
a few percent of the matrix (lanczos_norm states its stopping rule).
Where W^T W or W W^T is diagonal, as for martingale transforms, Haar shifts
and their adjoints, lanczos_norm reads the norm off that diagonal without
iterating.  The testing constants are suprema over boxes of the truncated
grid, leaf scale included (a leaf cube is the level-1 split rectangle of its
own base, so it belongs to the rectangle system as a set):

    c1  = max_E ||1_E T(sigma 1_E)||_omega / sigma(E)^{1/2}
    c2  =  the same for T* with the measures swapped
    c3  = max |<T(sigma 1_E), 1_G>_omega| / (sigma(E) omega(G))^{1/2}
          over pairs with 2^-r |E| <= |G| <= 2^r |E| and G meeting E^(r)

plus the global (unrestricted) and cube-indexed variants.  Zero-mass boxes
are skipped.  testing_report computes all of them in one image pass per
side and returns them as the fields of one TestingReport.  Each pass starts
from one input stage (localization.input_stage), the value of every internal
input box's synthesis, built from W's nonzeros (read once per operator, as
the Lanczos norm reads them) and held in one buffer; the leaf level is read
one step off the last internal level (_kernels.leaf_steps), and no leaf row
is built.  The pass stays in coefficient space: the output
coefficients of T(sigma 1_E) are sigma(E) times box E's row, and the
whitened output basis is orthonormal in L^2(omega), so every norm above is
a Parseval sum of them and every pairing omega(G) times their root-path sum
at G, each partner's one step off its parent partner's
(_kernels.testing_images); nothing is synthesized on the output side, and
nothing is summed over leaves.  Its radius defaults to ewl_radius(T), at
most tree_depth - 1, read from the support gaps of those input stages as
their leaf steps stream past.  Every constant is bounded by the operator
norm, exactly; that necessity chain is asserted by the sweep harness and
the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .exceptions import NormError
from .grid import Grid
from .haar import basis
from .localization import SupportGap, input_stage
from .operators import DyadicOperator


# Grids with at least this many leaves take the Lanczos path of operator_norm.
# The dense SVD costs O(N^3).  With one BLAS thread (n = 1, best of 7, three
# draws per family) it takes 5-9 ms at 256 leaves, where lanczos_norm takes
# 3-4 ms on paraproducts and 5-13 ms on random EWL operators of radius 0-3,
# and 39-52 ms at 512, where lanczos_norm takes 7-8 ms and 10-20 ms.  On
# martingale transforms and Haar shifts, whose Gram matrix is diagonal, it
# takes under 1 ms at 256 leaves and about 2 ms at 512.
LANCZOS_MIN_LEAVES = 512


def operator_norm(t: DyadicOperator) -> float:
    """||T(sigma .)||_{L^2(sigma) -> L^2(omega)}, exact on charged leaves.

    The largest singular value of W: one dense SVD below LANCZOS_MIN_LEAVES
    leaves, lanczos_norm(W) from there up.  lanczos_norm reads a martingale
    transform, a Haar shift or an adjoint of one off its diagonal Gram
    matrix, without iterating.
    """
    if t.sigma.total == 0.0 or t.omega.total == 0.0:
        raise NormError("operator norm undefined: a side carries no mass")
    if t.grid.num_leaves < LANCZOS_MIN_LEAVES:
        return float(np.linalg.svd(t.w, compute_uv=False)[0])
    return lanczos_norm(t)


def lanczos_norm(t: DyadicOperator) -> float:
    """Largest singular value of W by Lanczos on its smaller Gram matrix.

    W and W^T are applied from the nonzero entries of W (t.nonzeros(), read
    once for the input stages too, less any -0.0) with np.bincount, in
    the coordinates of the nonzero rows and columns.  The Gram matrix A is
    W^T W when W has no more nonzero columns than nonzero rows and W W^T
    otherwise, so A is k x k with k = min(#nonzero rows, #nonzero columns).
    When no two nonzeros share a slot of the larger side, A is diagonal (if
    either Gram matrix is, this one is) and the result is the square root of
    its largest entry, a sum of squares of the nonzeros, with no iteration.
    Otherwise the iteration starts from one seeded vector, so repeated calls
    agree bit for bit, and orthogonalizes each new vector twice against the
    whole basis.  It stops at the first step j where, with theta and s the
    top eigenpair of the tridiagonal T_j and beta the norm of the next vector,

    * the Ritz residual beta |s_j| is at most eps * theta (converged), or
    * beta is at most sqrt(k) * eps * |A v_j|, below the rounding left by the
      orthogonalization: the basis spans an invariant subspace (breakdown), or
    * j = k: the basis spans the whole space (Krylov exhaustion).

    In the last two cases theta is an eigenvalue of A to rounding.  The
    result is sqrt(theta).
    """
    rows, cols, vals = t.nonzeros()
    live = vals != 0
    rows, cols, vals = rows[live], cols[live], vals[live]
    if rows.size == 0:
        return 0.0
    used_rows = np.zeros(t.w.shape[0], dtype=bool)
    used_rows[rows] = True
    used_cols = np.zeros(t.w.shape[1], dtype=bool)
    used_cols[cols] = True
    rows = np.cumsum(used_rows)[rows] - 1  # compressed row and column numbers
    cols = np.cumsum(used_cols)[cols] - 1
    num_rows, num_cols = int(used_rows.sum()), int(used_cols.sum())
    if num_cols <= num_rows:  # A = W^T W on the columns
        inner, outer, k, num_outer = cols, rows, num_cols, num_rows
    else:  # A = W W^T on the rows
        inner, outer, k, num_outer = rows, cols, num_rows, num_cols
    if np.bincount(outer).max() == 1:  # A is diagonal
        return float(np.sqrt(np.bincount(inner, vals * vals, minlength=k).max()))

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

    The clipped ancestor A = grid.ancestor(E, r) sits at depth max(depth(E) - r, 0),
    so no strict ancestor of A is close enough in volume: the partners are the
    descendants of A (A included) down to depth min(tree_depth, depth(E) + r),
    listed level by level in heap order: the breadth-first order of A's
    subtree (Grid.subtree_boxes).
    """
    depth = grid.box_depth
    boxes = np.arange(grid.num_boxes, dtype=np.int64)
    anc = grid.ancestor(boxes, r)
    levels = np.minimum(grid.tree_depth, depth + r) - depth[anc] + 1
    counts = (np.int64(1) << levels) - 1
    counts[0] = 0  # heap slot 0 is not a box
    return grid.subtree_boxes(anc, counts)


def _held_stage(t: DyadicOperator, transpose: bool, gap):
    """One input stage of t (localization.input_stage) as a HeldStage:
    every internal box's row is held, and its leaf steps stream through
    gap, each leaf's squared row norm read off its step."""
    nz, held, factor, _, _ = input_stage(t, transpose)
    n = t.grid.num_leaves
    leaf_sq = np.empty(2 * n)  # heap-indexed; slot 0 is written at N = 1 and dropped
    for step in gap.scan(_kernels.leaf_steps(factor, nz, held)):
        k = len(step.mag)
        pairs = leaf_sq[2 * step.p0 : 2 * (step.p0 + k)].reshape(k, 2)  # by parent
        pairs[:] = np.einsum("ij,ij->i", step.mag, step.mag)[:, None]
        # a parent's listed entries lie together: one pairwise sum each (a
        # dense row summed in order drifts past 1e-15 at 256 leaves)
        at = step.at
        before = np.empty_like(at)
        before[:1] = -1
        before[1:] = at[:-1]
        first = np.flatnonzero(at != before)
        pairs[at[first]] += np.add.reduceat(step.children ** 2, first)
    return _kernels.HeldStage(held, t.w.T if transpose else t.w, factor, leaf_sq[n:])


def _output_stage(stage, in_measure, out_measure, pair_offsets, pair_partner):
    """Restricted/global image norms and pairings for all boxes at once, from
    the held input stage of the map being probed (_kernels.testing_images)."""
    grid = in_measure.grid
    ob = basis(out_measure)
    return _kernels.testing_images(
        stage, in_measure.box_mass, ob.alpha, ob.beta, ob.inv_sqrt_total,
        out_measure.box_mass, grid.box_depth, grid.box_lo, grid.box_hi,
        pair_offsets, pair_partner,
    )


def _pair_mask(grid: Grid, boxes_e: np.ndarray, partners: np.ndarray, r: int):
    """Admissibility at radius r of pairs drawn from a wider enumeration."""
    depth = grid.box_depth
    window = np.abs(depth[boxes_e] - depth[partners]) <= r
    return window & grid.meets(partners, grid.ancestor(boxes_e, r))


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
    wall_ms: float = 0.0  # the sweep's timing of the trial
    c3_next: float = None  # c3 at radius r_used + 1, when asked for

    def as_dict(self) -> dict:
        return {**vars(self),
                "witnesses": {k: list(map(int, v)) if isinstance(v, tuple) else int(v)
                              for k, v in self.witnesses.items()}}


def _ratios(num: np.ndarray, den: np.ndarray, scale):
    """scale(num) / sqrt(den) where den > 0, else 0, with the mask den > 0."""
    ok = den > 0
    ratios = np.zeros_like(num)
    ratios[ok] = scale(num[ok]) / np.sqrt(den[ok])
    return ratios, ok


def _pair_sup(ratios, ok, boxes_e, partners, subset=None):
    """(max of the pair ratios over ok and subset, witness pair); (0, 0)
    when no pair qualifies."""
    if subset is not None:
        ok = ok & subset
        ratios = np.where(subset, ratios, 0.0)
    if not np.any(ok):
        return 0.0, (0, 0)
    arg = int(np.argmax(ratios))
    return float(ratios[arg]), (int(boxes_e[arg]), int(partners[arg]))


def testing_report(t: DyadicOperator, r: int = None, norm: bool = True,
                   c3_next: bool = False) -> TestingReport:
    """Full testing profile; r defaults to the operator's EWL radius.

    The adjoint side runs first, then the forward side.  Each side's input
    stage is built from W's nonzeros, holding every internal box's row in
    one N x N buffer, and its leaf steps stream through its support gap.  The
    forward side's pairs wait for r and are read from its buffer, so
    testing_report holds at most one N x N array besides W.  Each side is
    synthesized once.  With norm=False the (possibly expensive) operator
    norm and ratio fields are skipped.  c3_next also computes c3 at
    radius r + 1 from the same image pass (report.c3_next).
    """
    grid = t.grid
    fro = t.frobenius()
    sig_mass = t.sigma.box_mass
    om_mass = t.omega.box_mass

    # adjoint: column E of W over omega is T(sigma h_E) on the omega boxes
    gap = SupportGap(t.omega, fro)
    stage = _held_stage(t, False, gap)
    empty = (np.zeros(grid.num_boxes + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    restricted2, glob2, _ = _output_stage(stage, t.omega, t.sigma, *empty)
    del stage
    # forward: row R of W over sigma is T*(omega h_R) on the sigma boxes
    forward_gap = SupportGap(t.sigma, fro)
    stage = _held_stage(t, True, forward_gap)
    if r is None:
        r = max(gap.value, forward_gap.value)
    offsets, partners = admissible_pairs(grid, r + 1 if c3_next else r)
    restricted, glob, pair_vals = _output_stage(stage, t.sigma, t.omega, offsets, partners)
    del stage

    # box constants, one row each: c1, c1_global, c2, c2_global, then c1 and
    # c2 over the cubes; an all-zero row has its maximum 0 at index 0
    ratios, _ = _ratios(np.stack((restricted, glob, restricted2, glob2)),
                        np.stack((sig_mass, sig_mass, om_mass, om_mass)), np.sqrt)
    cube_mask = grid.box_depth % grid.dimension == 0
    ratios = np.concatenate((ratios, np.where(cube_mask, ratios[0::2], 0.0)))
    wit = ratios.argmax(axis=1)
    c1, c1g, c2, c2g, c1c, c2c = ratios[np.arange(len(wit)), wit].tolist()
    w1, w1g, w2, w2g, w1c, w2c = wit.tolist()

    # pair constants: normalize |<T(sigma 1_E), 1_G>| by sqrt(sigma(E) omega(G))
    boxes_e = np.repeat(np.arange(grid.num_boxes), np.diff(offsets))
    pair_ratios, ok = _ratios(pair_vals, sig_mass[boxes_e] * om_mass[partners], np.abs)
    at_r = _pair_mask(grid, boxes_e, partners, r) if c3_next else None
    c3, w3 = _pair_sup(pair_ratios, ok, boxes_e, partners, at_r)
    c3n = _pair_sup(pair_ratios, ok, boxes_e, partners)[0] if c3_next else None
    cubes = cube_mask[boxes_e] & cube_mask[partners]
    if at_r is not None:
        cubes = cubes & at_r
    c3c, w3c = _pair_sup(pair_ratios, ok, boxes_e, partners, cubes)

    nrm = operator_norm(t) if norm else 0.0
    csum = c1 + c2 + c3
    return TestingReport(
        norm=nrm, c1=c1, c2=c2, c3=c3, c1_global=c1g, c2_global=c2g,
        c1_cube=c1c, c2_cube=c2c, c3_cube=c3c, r_used=int(r),
        ratio_sum=(nrm / csum if csum > 0 else 0.0),
        ratio_max=(max(c1, c2, c3) / nrm if nrm > 0 else 0.0),
        witnesses={
            "c1": w1, "c2": w2, "c3": w3, "c1_global": w1g, "c2_global": w2g,
            "c1_cube": w1c, "c2_cube": w2c, "c3_cube": w3c,
        },
        c3_next=c3n,
    )
