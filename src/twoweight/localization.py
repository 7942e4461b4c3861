r"""Classifiers for the essentially-well-localized and well-localized properties.

ewl_radius finds the smallest uniform r with

    supp(T(sigma h^sigma_E)) and supp(T*(omega h^omega_E))  inside  E^(r) /\ Q0

over every charged rectangle E, where E^(r) is the heap ancestor of volume
2^r |E| clipped at the root.  Support is measured on leaves of positive mass
on the respective output side, above an absolute value threshold.  Every
support lies in Q0 = E^(depth(E)), so the radius of any operator on the grid
is at most tree_depth - 1, the depth of the smallest rectangles; a dense
generic W attains that bound.  The images are the input stages of the
testing pass (which reads the radius from them too), synthesize_leaf_blocks
of the rows and of the columns of W.  SupportGap keeps each rectangle's
first and last support leaf as the blocks stream past and reads the radius
from those alone, so the radius does not depend on the block size.

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
output one), and at least 1; wl_check(T, r) is r >= wl_radius(T).  The
pairing is <1_Q, T*(nu h_R)>_mu, the same input stage summed over Q, so
radii(T) reads both radii from one synthesis per side.  An operator keeps
both radii once read (W is read-only), as it keeps ||W||_F.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
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


def _stages(t: DyadicOperator):
    """(input stage, input measure, output measure) of T and of T*: the rows
    of W over sigma give T*(omega h_R), its columns over omega T(sigma h_E)."""
    return ((synthesize_leaf_blocks(t.sigma, t.w.T), t.sigma, t.omega),
            (synthesize_leaf_blocks(t.omega, t.w), t.omega, t.sigma))


def ewl_radius(t: DyadicOperator) -> int:
    """Smallest uniform localization radius, at most tree_depth - 1.

    Each side's input stage is streamed block by block into its gap, with
    no N x N array held.  The smallest box holding a rectangle and its
    support is the root at the largest, a gap of at most the rectangle's
    depth, and rectangles sit above leaf scale.
    """
    if t._ewl is None:
        t._ewl = max(support_gap(blocks, out_m, in_m) for blocks, in_m, out_m in _stages(t))
    return t._ewl


def _vanishing_radius(blocks, in_measure, out_measure, fro):
    """Smallest r >= 0 at which one side's vanishing conditions hold.

    blocks is the side's input stage, block[x, R] = T*(nu h_R)(x): scaled by
    mu(x) and summed over Q by level_sums it is <T(mu 1_Q), h_R> (mu, nu the
    input and output measures).  A pair of a charged R with |R| <= 2|Q| whose
    pairing exceeds the tolerance raises r to its bound (module docstring).
    """
    grid = in_measure.grid
    depth = grid.box_depth
    rect = np.flatnonzero(basis(out_measure).charged)
    first = np.searchsorted(depth[rect], np.arange(grid.tree_depth + 1) - 1)  # |R| <= 2|Q|
    sqrt_in = np.sqrt(in_measure.box_mass)
    out_tol = WL_RTOL * fro * np.sqrt(out_measure.box_mass[rect])
    stage = ((a, b[:, rect] * in_measure.masses[a : a + len(b), None]) for a, b in blocks)
    worst, pairs = 0, []
    for heap0, rows in _kernels.level_sums(stage, grid.num_leaves):
        k = first[depth[heap0]]
        tol = sqrt_in[heap0 : heap0 + len(rows), None] * out_tol[k:]
        qi, ri = np.nonzero(np.abs(rows[:, k:]) > tol)
        pairs.append((heap0 + qi, rect[k + ri]))
        if heap0 == 1 or sum(len(q) for q, _ in pairs) > _kernels.CHUNK_FLOATS:  # bounded batches
            (q, r), pairs = np.concatenate(pairs, axis=1), []
            need = np.maximum(depth[q] - grid.lca_depth(r, q),
                              np.where(grid.contains(q, r), 0, depth[r] - depth[q] + 1))
            worst = max(worst, int(need.max(initial=0)))
    return worst


def wl_radius(t: DyadicOperator) -> int:
    """Smallest r >= 1 with wl_check(t, r); wl_check holds exactly from it on.
    The tolerance scales with ||W||_F (module docstring), so scaling W keeps r."""
    if t._wl is None:
        t._wl = max(1, *(_vanishing_radius(*stage, t.frobenius()) for stage in _stages(t)))
    return t._wl


def radii(t: DyadicOperator) -> tuple:
    """(ewl_radius(t), wl_radius(t)) from one synthesis per side: each input
    stage streams through its support gap into its vanishing test."""
    if t._ewl is None or t._wl is None:
        fro, ewl, wl = t.frobenius(), 0, 1
        for blocks, in_m, out_m in _stages(t):
            gap = SupportGap(out_m, in_m)
            wl = max(wl, _vanishing_radius(gap.scan(blocks), in_m, out_m, fro))
            ewl = max(ewl, gap.value)
        t._ewl, t._wl = ewl, wl
    return t._ewl, t._wl


def wl_check(t: DyadicOperator, r: int) -> bool:
    """True iff T and T* both satisfy the vanishing conditions at radius r,
    each pairing taken as zero up to the tolerance of wl_radius."""
    if r < 1:
        raise ValueError("the well-localized property needs r >= 1")
    return r >= wl_radius(t)
