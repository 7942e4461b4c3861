r"""Classifiers for the essentially-well-localized and well-localized properties.

ewl_radius finds the smallest uniform r with

    supp(T(sigma h^sigma_E)) and supp(T*(omega h^omega_E))  inside  E^(r) /\ Q0

over every charged rectangle E, where E^(r) is the heap ancestor of volume
2^r |E| clipped at the root.  Support is measured on leaves of positive mass
on the respective output side, above an absolute value threshold.  Every
support lies in Q0 = E^(depth(E)), so the radius of any operator on the grid
is at most tree_depth - 1, the depth of the smallest rectangles; a dense
generic W attains that bound.  The images are the input stages of the
testing pass, haar.synthesize_leaf_blocks of the rows and of the columns of
W.  SupportGap keeps each rectangle's first and last support leaf as the
blocks stream past and reads the radius from those alone, so the radius does
not depend on the block size, and testing_report reads it from its own
stages, as ewl_radius does.

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
exceeds WL_RTOL ||W||_F sqrt(mu(Q) nu(R)) (mu the input measure, nu the
output one), and at least 1; wl_check(T, r) is r >= wl_radius(T).
"""

from __future__ import annotations

import numpy as np

from ._kernels import block_rows, synthesize_boxes
from .haar import basis, synthesize_leaf_blocks
from .operators import DyadicOperator

SUPPORT_TOL = 1e-12
WL_RTOL = 1e-10


class SupportGap:
    """Max over charged rectangles E of depth(E) less the depth of the
    smallest box holding E and its support leaves.

    scan reads one unscaled input stage in leaf-major blocks (leaf of
    leaf_measure, slot E of rect_measure), as synthesize_leaf_blocks yields
    them, and passes each block on once it is read, so one stream can feed
    the gap and the output stage.  Support is taken on the charged leaves
    above SUPPORT_TOL; first and last keep each rectangle's outermost
    support leaves so far (N and -1 before any).  The leaves lie in Morton
    order, so the smallest box holding E and its support is the larger of
    the smallest boxes holding E and first, and E and last.  value reads the
    gap of the leaves scanned so far.
    """

    def __init__(self, rect_measure, leaf_measure):
        self.grid = leaf_measure.grid
        n = self.grid.num_leaves
        self.rects = basis(rect_measure).charged
        self.charged = leaf_measure.charged_leaves()
        self.first = np.full(n, n)
        self.last = np.full(n, -1)

    def scan(self, blocks):
        for a, block in blocks:
            rows = block.shape[0]
            supp = np.abs(block) > SUPPORT_TOL
            supp &= self.charged[a : a + rows, None]
            hs = np.flatnonzero(supp.any(axis=0) & self.rects)
            sub = supp[:, hs]
            self.first[hs] = np.minimum(self.first[hs], a + np.argmax(sub, axis=0))
            self.last[hs] = np.maximum(self.last[hs], a + rows - 1 - np.argmax(sub[::-1], axis=0))
            yield a, block

    @property
    def value(self) -> int:
        grid = self.grid
        n = grid.num_leaves
        e = np.flatnonzero(self.last >= 0)
        top = np.minimum(grid.lca_depth(e, n + self.first[e]), grid.lca_depth(e, n + self.last[e]))
        return int((grid.box_depth[e] - top).max(initial=0))


def support_gap(blocks, rect_measure, leaf_measure) -> int:
    """SupportGap of one input stage, read to the end."""
    gap = SupportGap(rect_measure, leaf_measure)
    for _ in gap.scan(blocks):
        pass
    return gap.value


def ewl_radius(t: DyadicOperator) -> int:
    """Smallest uniform localization radius, at most tree_depth - 1.

    The columns of W over omega are T(sigma h_E), its rows over sigma
    T*(omega h_R); each side is streamed block by block into its gap, with
    no N x N array held.  The smallest box holding a rectangle and its
    support is the root at the largest, a gap of at most the rectangle's
    depth, and rectangles sit above leaf scale.
    """
    return max(support_gap(synthesize_leaf_blocks(t.omega, t.w), t.sigma, t.omega),
               support_gap(synthesize_leaf_blocks(t.sigma, t.w.T), t.omega, t.sigma))


def _side_wl_radius(grid, w, in_measure, out_measure, fro):
    """Smallest r >= 0 at which one side's vanishing conditions hold.

    Row R of w synthesized over the input basis with every level kept gives
    S[R, Q] on every box Q, and <T(mu 1_Q), h_R> = mu(Q) S[R, Q] (mu the
    input measure).  Rows are taken block_rows(2N) at a time; every pair with
    |R| <= 2|Q| whose pairing exceeds the tolerance raises the radius to the
    pair's bound from the module docstring.
    """
    depth = grid.box_depth
    b = basis(in_measure)
    rect = np.nonzero(basis(out_measure).charged)[0]
    in_mass = in_measure.box_mass[1:]
    out_mass = out_measure.box_mass
    box_depth = depth[1:]
    rows = block_rows(2 * grid.num_leaves)
    worst = 0
    for c in range(0, rect.size, rows):
        rs = rect[c : c + rows]
        s = synthesize_boxes(b.alpha, b.beta, w[rs], b.inv_sqrt_total)[:, 1:]
        tol = WL_RTOL * fro * np.sqrt(in_mass * out_mass[rs, None])
        fail = (np.abs(in_mass * s) > tol) & (box_depth <= depth[rs, None] + 1)
        ri, qi = np.nonzero(fail)
        if ri.size == 0:
            continue
        r_box, q_box = rs[ri], qi + 1
        dr, dq = depth[r_box], depth[q_box]
        need = np.maximum(dq - grid.lca_depth(r_box, q_box),
                          np.where(grid.contains(q_box, r_box), 0, dr - dq + 1))
        worst = max(worst, int(need.max()))
    return worst


def wl_radius(t: DyadicOperator) -> int:
    """Smallest r >= 1 with wl_check(t, r); wl_check holds exactly from it on.
    The tolerance scales with ||W||_F (module docstring), so scaling W keeps r."""
    fro = t.frobenius()
    return max(1, _side_wl_radius(t.grid, t.w, t.sigma, t.omega, fro),
               _side_wl_radius(t.grid, t.w.T, t.omega, t.sigma, fro))


def wl_check(t: DyadicOperator, r: int) -> bool:
    """True iff T and T* both satisfy the vanishing conditions at radius r,
    each pairing taken as zero up to the tolerance of wl_radius."""
    if r < 1:
        raise ValueError("the well-localized property needs r >= 1")
    return r >= wl_radius(t)
