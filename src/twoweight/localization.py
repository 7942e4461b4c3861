r"""Classifiers for the essentially-well-localized and well-localized properties.

ewl_radius finds the smallest uniform r with

    supp(T(sigma h^sigma_E)) and supp(T*(omega h^omega_E))  inside  E^(r) /\ Q0

over every charged rectangle E, where E^(r) is the heap ancestor of volume
2^r |E| clipped at the root.  Support is measured on leaves of positive mass
on the respective output side mu, above SUPPORT_TOL ||W||_F / sqrt(mu(Q0)),
the value of a constant of L^2(mu) norm ||W||_F, so that scaling W or
either measure keeps the radius.  Every support lies in Q0 = E^(depth(E)),
so the radius of any operator on the grid is at most tree_depth - 1, the
depth of the smallest rectangles; a dense generic W attains that bound.
The images are the leaf levels of the input stages of the testing pass
(which reads the radius from them too), synthesize_levels of the rows and
of the columns of W, built from W's nonzeros (DyadicOperator.nonzeros),
each leaf read one step off its parent's row (leaf_steps): the parent's
magnitude, or a listed child's value.  SupportGap keeps each rectangle's
first and last support leaf as the leaf steps stream past and reads the
radius from those alone, so the radius does not depend on the block size.

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
pairing is <1_Q, T*(nu h_R)>_mu, mu(Q) times the same input stage's value on
box Q (at leaf scale, where R lies on the last internal level, read off
the leaf steps), so radii(T) reads both radii from one synthesis per side.  An
operator keeps both radii once read (W is read-only), as it keeps ||W||_F.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .haar import basis, leaf_steps, synthesize_levels
from .operators import DyadicOperator

SUPPORT_TOL = 1e-12
WL_RTOL = 1e-10


class SupportGap:
    """Max over charged rectangles E of depth(E) less the depth of the
    smallest box holding E and its support leaves.

    scan reads one input stage's leaf steps (box of leaf_measure, slot E of
    rect_measure), as leaf_steps yields them, and passes each step on once
    it is read, so one stream can feed the gap and the testing pass or the
    vanishing test.  Support is taken on the charged leaves above
    SUPPORT_TOL fro / sqrt(leaf_measure(Q0)), fro = ||W||_F (module
    docstring); first and last keep each rectangle's outermost support
    leaves so far (N and -1 before any).  A step reads a parent as
    supported where a charged child is, and takes its first (last) charged
    child; that child has the parent's magnitude unless the entry is
    listed, and a listed child unsupported beside a supported sibling is
    then swapped for it.  The leaves lie in Morton order, so the smallest
    box holding E and its support is the one holding the leaves from
    min(first, E's first leaf) to max(last, E's last leaf).  value reads
    the gap of the leaves scanned so far.
    """

    def __init__(self, rect_measure, leaf_measure, fro):
        self.grid = leaf_measure.grid
        n = self.grid.num_leaves
        self.rects = basis(rect_measure).charged
        total = leaf_measure.total
        self.tol = SUPPORT_TOL * fro / np.sqrt(total) if total > 0 else 0.0
        # by parent slot p (slot 0 is the root's parent at N = 1): each
        # child's threshold, infinite where uncharged, whether it has a
        # charged child, and the leaf numbers of its first and last one
        charged = np.zeros(2 * n, dtype=bool)
        charged[n:] = leaf_measure.charged_leaves()
        self.child_tol = np.where(charged, self.tol, np.inf).reshape(n, 2)
        self.some = charged[0::2] | charged[1::2]
        self.lead = np.arange(1 - n, n, 2) - charged[0::2]
        self.tail = np.arange(-n, n, 2) + charged[1::2]
        self.first = np.full(n, n)
        self.last = np.full(n, -1)

    def scan(self, steps):
        n = len(self.first)
        for step in steps:
            p0, k = step.p0, len(step.mag)
            p, cols = p0 + step.at, step.cols
            supp = step.mag > self.tol
            child = np.abs(step.children) > self.child_tol[p]  # listed: each child
            low, up = child[:, 0], child[:, 1]
            supp[step.at, cols] = low | up
            supp &= self.some[p0 : p0 + k, None]
            hs = np.flatnonzero(np.logical_or.reduce(supp, axis=0) & self.rects)
            sub = supp[:, hs]
            self.first[hs] = np.minimum(self.first[hs], self.lead[p0 + sub.argmax(axis=0)])
            j = p0 + k - 1 - sub[::-1].argmax(axis=0)
            self.last[hs] = np.maximum(self.last[hs], self.tail[j])
            # a listed lower (upper) leaf 2p - N (2p + 1 - N) taken as the
            # first (last) while only its sibling is supported: move one over
            odd = np.flatnonzero(low != up)
            if len(odd):
                for side, i, leaf, fix in ((self.first, odd[up[odd]], 0, 1),
                                           (self.last, odd[low[odd]], 1, -1)):
                    i = i[side[cols[i]] == 2 * p[i] + leaf - n]
                    side[cols[i]] += fix
            yield step

    @property
    def value(self) -> int:
        grid = self.grid
        e = np.flatnonzero(self.last >= 0)
        lo = np.minimum(grid.box_lo[e], self.first[e])
        hi = np.maximum(grid.box_hi[e] - 1, self.last[e])
        top = grid.tree_depth - np.frexp(lo ^ hi)[1]  # the depth of the box holding lo..hi
        return int((grid.box_depth[e] - top).max(initial=0))


def _stages(t: DyadicOperator):
    """(internal levels, leaf steps, input measure, output measure) of the
    input stage of T and of T*, one after the other: the rows of W over
    sigma give T*(omega h_R), its columns over omega T(sigma h_E).  Each
    stage holds its internal rows in an N x N buffer of its own, which its
    leaf steps read once the levels have streamed past."""
    n = t.grid.num_leaves
    for transpose, in_m, out_m in ((True, t.sigma, t.omega), (False, t.omega, t.sigma)):
        nz, held = t.nonzeros(transpose), np.empty((n, n))
        yield synthesize_levels(in_m, nz, held), leaf_steps(in_m, nz, held), in_m, out_m


def ewl_radius(t: DyadicOperator) -> int:
    """Smallest uniform localization radius, at most tree_depth - 1.

    Each side's leaf steps are streamed into its gap once its internal
    levels are built.  The smallest box holding a rectangle and its support
    is the root at the largest, a gap of at most the rectangle's depth, and
    rectangles sit above leaf scale.
    """
    if t._ewl is None:
        ewl, fro = 0, t.frobenius()
        for levels, steps, in_m, out_m in _stages(t):
            for _ in levels:
                pass
            gap = SupportGap(out_m, in_m, fro)
            for _ in gap.scan(steps):
                pass
            ewl = max(ewl, gap.value)
        t._ewl = ewl
    return t._ewl


def _vanishing_radius(levels, steps, in_measure, out_measure, fro):
    """Smallest r >= 0 at which one side's vanishing conditions hold.

    levels and steps are the side's input stage, rows[Q, R] = v, the value
    on box Q of T*(nu h_R): mu(Q) v is <T(mu 1_Q), h_R> (mu, nu the input
    and output measures), since each component of a rectangle inside Q has
    mu-mean zero on Q.  A pair of a charged R with |R| <= 2|Q| whose pairing
    exceeds the tolerance raises r to its bound (module docstring).  At leaf
    scale that is R of the last internal level, read off the leaf steps:
    |v| is the step's magnitude, or a listed child's value.
    """
    grid = in_measure.grid
    depth = grid.box_depth

    def bound(batch):  # the largest radius bound of the pairs (Q, R) in batch
        q, r = np.concatenate(batch, axis=1) if batch else np.zeros((2, 0), dtype=np.intp)
        need = np.maximum(depth[q] - grid.lca_depth(r, q),
                          np.where(grid.contains(q, r), 0, depth[r] - depth[q] + 1))
        return int(need.max(initial=0))

    worst, batch, count = 0, [], 0
    for pair in _exceeding(levels, steps, in_measure, out_measure, fro):
        batch.append(pair)
        count += len(pair[0])
        if count > _kernels.CHUNK_FLOATS:  # in bounded batches
            worst, batch, count = max(worst, bound(batch)), [], 0
    return max(worst, bound(batch))


def _exceeding(levels, steps, in_measure, out_measure, fro):
    """(boxes Q, rectangles R) of the pairs of _vanishing_radius above the
    tolerance, a level of internal boxes or a leaf step at a time."""
    grid = in_measure.grid
    depth = grid.box_depth
    rect = np.flatnonzero(basis(out_measure).charged)
    first = np.searchsorted(depth[rect], np.arange(grid.tree_depth + 1) - 1)  # |R| <= 2|Q|
    mass = in_measure.box_mass
    sqrt_in = np.sqrt(mass)
    out_tol = WL_RTOL * fro * np.sqrt(out_measure.box_mass[rect])
    for heap0, rows in levels:
        k = first[depth[heap0]]
        at = slice(heap0, heap0 + len(rows))
        pairing = rows[:, rect[k:]] * mass[at, None]
        qi, ri = np.nonzero(np.abs(pairing) > sqrt_in[at, None] * out_tol[k:])
        yield heap0 + qi, rect[k + ri]
    k = first[grid.tree_depth]
    leaf_rect, leaf_tol = rect[k:], out_tol[k:]
    is_leaf_rect = np.zeros(grid.num_leaves, dtype=bool)
    is_leaf_rect[leaf_rect] = True
    col_tol = np.zeros(grid.num_leaves)  # the listed entries' tolerance by column
    col_tol[leaf_rect] = leaf_tol
    for step in steps:
        sub = step.mag[:, leaf_rect]
        listed = np.flatnonzero(is_leaf_rect[step.cols])
        at, cols = step.at[listed], step.cols[listed]
        for half in (0, 1):
            q = 2 * np.arange(step.p0, step.p0 + len(sub)) + half
            qi, ri = np.nonzero(sub * mass[q, None] > sqrt_in[q, None] * leaf_tol)
            yield q[qi], leaf_rect[ri]
            q = 2 * (step.p0 + at) + half
            value = np.abs(step.children[listed, half])
            hit = np.flatnonzero(value * mass[q] > sqrt_in[q] * col_tol[cols])
            yield q[hit], cols[hit]


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
        for levels, steps, in_m, out_m in _stages(t):
            gap = SupportGap(out_m, in_m, fro)
            wl = max(wl, _vanishing_radius(levels, gap.scan(steps), in_m, out_m, fro))
            ewl = max(ewl, gap.value)
        t._ewl, t._wl = ewl, wl
    return t._ewl, t._wl


def wl_check(t: DyadicOperator, r: int) -> bool:
    """True iff T and T* both satisfy the vanishing conditions at radius r,
    each pairing taken as zero up to the tolerance of wl_radius."""
    if r < 1:
        raise ValueError("the well-localized property needs r >= 1")
    return r >= wl_radius(t)
