r"""Classifiers for the essentially-well-localized and well-localized properties.

ewl_radius finds the smallest uniform r with

    supp(T(sigma h^sigma_E)) and supp(T*(omega h^omega_E))  inside  E^(r) /\ Q0

over every charged rectangle E, where E^(r) is the heap ancestor of volume
2^r |E| clipped at the root.  Support is measured on leaves of positive mass
on the respective output side, above an absolute value threshold.  Every
support lies in Q0 = E^(depth(E)), so the radius of any operator on the grid
is at most tree_depth - 1, the depth of the smallest rectangles; a dense
generic W attains that bound.

wl_check tests the vanishing conditions of the well-localized property: for
boxes Q and charged rectangles R with |R| <= 2|Q|,

    <T(sigma 1_Q), h^omega_R>_omega = 0   if R is not inside Q^(r), or if
                                          |R| <= 2^-r |Q| and R is not inside Q,

and the same for T* with the measures swapped.  Q ranges over all boxes
(leaf boxes included: the bridge between the two properties applies the
condition to halves, which may sit at leaf scale).

The set of pairs that must vanish only shrinks as r grows: a pair (Q, R)
must vanish exactly when r < max(d(Q) - d(lca(Q, R)), d(R) - d(Q) + 1 if R
is not inside Q), with d the heap depth.  So the radii that pass are all
r >= wl_radius(T), the maximum of that bound over the pairs whose pairing
exceeds the tolerance, and at least 1; wl_check(T, r) is r >= wl_radius(T).
"""

from __future__ import annotations

import numpy as np

from ._kernels import CHUNK_FLOATS, synthesize_boxes
from .haar import basis, synthesize
from .operators import DyadicOperator

SUPPORT_TOL = 1e-12


def _side_radius(grid, w, in_measure, out_measure, tol):
    """Max over charged rectangles of the minimal containing-ancestor gap.

    The columns of w are synthesized a block at a time; per column the
    support bounds and the climb to the first ancestor box holding both are
    vectorized over the block.
    """
    n = grid.num_leaves
    rects = np.nonzero(basis(in_measure).charged)[0]
    out_charged = out_measure.charged_leaves()
    lo_all, hi_all = grid.box_lo, grid.box_hi
    rows = max(1, CHUNK_FLOATS // n)
    worst = 0
    for c in range(0, rects.size, rows):
        hs = rects[c : c + rows]
        supp = out_charged & (np.abs(synthesize(out_measure, w[:, hs].T)) > tol)
        hit = supp.any(axis=1)
        hs, supp = hs[hit], supp[hit]
        lo = np.argmax(supp, axis=1)
        hi = n - 1 - np.argmax(supp[:, ::-1], axis=1)
        anc, r = hs.copy(), 0
        outside = ~((lo_all[anc] <= lo) & (hi < hi_all[anc]))
        while np.any(outside):
            anc[outside] >>= 1
            r += 1
            outside = ~((lo_all[anc] <= lo) & (hi < hi_all[anc]))
        worst = max(worst, r)
    return worst


def ewl_radius(t: DyadicOperator, support_tol: float = SUPPORT_TOL) -> int:
    """Smallest uniform localization radius, at most tree_depth - 1.

    Each rectangle's climb ends at the root at the latest, so it adds at most
    the rectangle's depth, and rectangles sit above leaf scale.
    """
    return max(
        _side_radius(t.grid, t.w, t.sigma, t.omega, support_tol),
        _side_radius(t.grid, t.w.T, t.omega, t.sigma, support_tol),
    )


def _side_wl_radius(grid, w, in_measure, out_measure, rtol, fro):
    """Smallest r >= 0 at which one side's vanishing conditions hold.

    Row R of w synthesized over the input basis with every level kept gives
    S[R, Q] on every box Q, and <T(mu 1_Q), h_R> = mu(Q) S[R, Q] (mu the
    input measure).  Rows are taken a block at a time; every pair with
    |R| <= 2|Q| whose pairing exceeds the tolerance raises the radius to the
    pair's bound from the module docstring.
    """
    n = grid.num_leaves
    depth = grid.box_depth
    b = basis(in_measure)
    rect = np.nonzero(basis(out_measure).charged)[0]
    in_mass = in_measure.box_mass[1:]
    out_mass = out_measure.box_mass
    box_depth = depth[1:]
    rows = max(1, CHUNK_FLOATS // (2 * n))
    worst = 0
    for c in range(0, rect.size, rows):
        rs = rect[c : c + rows]
        s = synthesize_boxes(b.alpha, b.beta, w[rs], b.inv_sqrt_total)[:, 1:]
        tol = rtol * fro * np.sqrt(in_mass * out_mass[rs, None])
        fail = (np.abs(in_mass * s) > tol) & (box_depth <= depth[rs, None] + 1)
        ri, qi = np.nonzero(fail)
        if ri.size == 0:
            continue
        r_box, q_box = rs[ri], qi + 1
        dr, dq = depth[r_box], depth[q_box]
        k = np.minimum(dr, dq)
        split = (r_box >> (dr - k)) ^ (q_box >> (dq - k))
        below_lca = np.frexp(split)[1]  # bit length: levels under the common ancestor
        # R is inside Q iff split == 0 with d(R) >= d(Q); for d(R) < d(Q)
        # the second term is <= 0 either way
        need = np.maximum(dq - k + below_lca, np.where(split != 0, dr - dq + 1, 0))
        worst = max(worst, int(need.max()))
    return worst


def wl_radius(t: DyadicOperator, rtol: float = 1e-10) -> int:
    """Smallest r >= 1 with wl_check(t, r); wl_check holds exactly from it on."""
    fro = t.frobenius()
    grid = t.grid
    return max(1, _side_wl_radius(grid, t.w, t.sigma, t.omega, rtol, fro),
               _side_wl_radius(grid, t.w.T, t.omega, t.sigma, rtol, fro))


def wl_check(t: DyadicOperator, r: int, rtol: float = 1e-10) -> bool:
    """True iff T and T* both satisfy the vanishing conditions at radius r."""
    if r < 1:
        raise ValueError("the well-localized property needs r >= 1")
    return r >= wl_radius(t, rtol)
