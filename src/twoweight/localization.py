r"""Classifiers for the essentially-well-localized and well-localized properties.

ewl_radius finds the smallest uniform r with

    supp(T(sigma h^sigma_E)) and supp(T*(omega h^omega_E))  inside  E^(r) /\ Q0

over every charged rectangle E, where E^(r) is the heap ancestor of volume
2^r |E| clipped at the root.  Support is measured on leaves of positive mass
on the respective output side, above an absolute value threshold.

wl_check tests the vanishing conditions of the well-localized property: for
boxes Q and charged rectangles R with |R| <= 2|Q|,

    <T(sigma 1_Q), h^omega_R>_omega = 0   if R is not inside Q^(r), or if
                                          |R| <= 2^-r |Q| and R is not inside Q,

and the same for T* with the measures swapped.  Q ranges over all boxes
(leaf boxes included: the bridge between the two properties applies the
condition to halves, which may sit at leaf scale).
"""

from __future__ import annotations

import numpy as np

from ._kernels import CHUNK_FLOATS
from .haar import basis, indicator_coefficients, synthesize
from .operators import DyadicOperator

SUPPORT_TOL = 1e-12
NOT_LOCALIZED = None  # sentinel: no radius up to n*d satisfies the condition


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


def ewl_radius(t: DyadicOperator, support_tol: float = SUPPORT_TOL):
    """Smallest uniform localization radius, or NOT_LOCALIZED past n*d."""
    grid = t.grid
    r = max(
        _side_radius(grid, t.w, t.sigma, t.omega, support_tol),
        _side_radius(grid, t.w.T, t.omega, t.sigma, support_tol),
    )
    return r if r <= grid.tree_depth else NOT_LOCALIZED


def _lower_triangular_ok(grid, w, in_measure, out_measure, r, rtol, fro):
    """Vanishing over all (Q, R) pairs for one side of the property."""
    n = grid.num_leaves
    depth = grid.box_depth
    out_b = basis(out_measure)
    rect = np.nonzero(out_b.charged)[0]
    rect_depth = depth[rect]
    in_mass = in_measure.box_mass
    out_mass = out_measure.box_mass
    for q in range(1, grid.num_boxes):
        dq = depth[q]
        gate = rect_depth >= dq - 1  # |R| <= 2 |Q|
        if not np.any(gate):
            continue
        anc = max(q >> r, 1)
        gap_anc = rect_depth - depth[anc]
        in_q_r = (gap_anc >= 0) & ((rect >> np.maximum(gap_anc, 0)) == anc)
        gap_q = rect_depth - dq
        in_q = (gap_q >= 0) & ((rect >> np.maximum(gap_q, 0)) == q)
        must_vanish = gate & (~in_q_r | ((rect_depth >= dq + r) & ~in_q))
        if not np.any(must_vanish):
            continue
        idx, val = indicator_coefficients(in_measure, q)
        pairings = w[:, idx] @ val
        checked = rect[must_vanish]
        tol = rtol * fro * np.sqrt(in_mass[q] * out_mass[checked])
        if np.any(np.abs(pairings[checked]) > tol):
            return False
    return True


def wl_check(t: DyadicOperator, r: int, rtol: float = 1e-10) -> bool:
    """True iff T and T* both satisfy the vanishing conditions at radius r."""
    if r < 1:
        raise ValueError("the well-localized property needs r >= 1")
    fro = t.frobenius()
    grid = t.grid
    return _lower_triangular_ok(grid, t.w, t.sigma, t.omega, r, rtol, fro) and \
        _lower_triangular_ok(grid, t.w.T, t.omega, t.sigma, r, rtol, fro)
