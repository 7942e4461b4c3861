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
(which reads the radius from them too): input_stage holds every internal
box's row of the synthesis of the rows and of the columns of W, built from
W's nonzeros (DyadicOperator.nonzeros), and each leaf is read one step off
its parent's row (leaf_steps): the parent's magnitude, or a listed child's
value.  SupportGap keeps each rectangle's first and last support leaf as
the leaf steps stream past and reads the radius from those alone, so the
radius does not depend on the block size.

wl_check tests the vanishing conditions of the well-localized property: for
boxes Q and charged rectangles R with |R| <= 2|Q|,

    <T(sigma 1_Q), h^omega_R>_omega = 0   if R is not inside Q^(r), or if
                                          |R| <= 2^-r |Q| and R is not inside Q,

and the same for T* with the measures swapped.  Q ranges over all boxes
(leaf boxes included: the bridge between the two properties applies the
condition to halves, which may sit at leaf scale).

The set of pairs that must vanish only shrinks as r grows: a pair (Q, R)
must vanish exactly when r < need(Q, R) = max(d(Q) - d(lca(Q, R)),
d(R) - d(Q) + 1 if R is not inside Q), d the heap depth (_need_table).  So
the radii that pass are all r >= wl_radius(T), the largest need of the pairs
whose pairing exceeds WL_RTOL ||W||_F sqrt(mu(Q) nu(R)) (mu, nu the input
and output measures), and at least 1; wl_check(T, r) is r >= wl_radius(T).
The pairing is <1_Q, T*(nu h_R)>_mu, mu(Q) times the same input stage's
value on box Q (at leaf scale, where R lies on the last internal level,
read off the leaf steps), so radii(T) reads both radii from one input
stage per side, and ewl_radius and wl_radius are its two fields.  An
operator keeps both radii once read (W is read-only), as it keeps ||W||_F.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _kernels
from .haar import basis
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


def input_stage(t: DyadicOperator, transpose: bool):
    """(nz, held, factor, input measure, output measure) of one input stage
    of t: with transpose, the rows of W (the columns of W.T) synthesized
    over sigma, whose row R on the sigma boxes is T*(omega h_R); without,
    the columns of W over omega, whose column E is T(sigma h_E) on the omega
    boxes.  nz is the side's nonzero list, held an N x N buffer of its own
    holding every internal box's row (_kernels.synthesize_levels), and
    factor the input basis' WeightedBasis.factor; the leaves are read off
    held by _kernels.leaf_steps(factor, nz, held)."""
    in_m, out_m = (t.sigma, t.omega) if transpose else (t.omega, t.sigma)
    n = t.grid.num_leaves
    nz, held, factor = t.nonzeros(transpose), np.empty((n, n)), basis(in_m).factor
    _kernels.synthesize_levels(factor, nz, held)
    return nz, held, factor, in_m, out_m


def ewl_radius(t: DyadicOperator) -> int:
    """Smallest uniform localization radius, at most tree_depth - 1 (radii).

    The smallest box holding a rectangle and its support is the root at the
    largest, a gap of at most the rectangle's depth, and rectangles sit
    above leaf scale.
    """
    return radii(t)[0]


@functools.cache
def _need_table(tree_depth):
    """(levels, leaf), read-only int8, built on first use and kept: levels[d][i, j]
    is need(Q, R) at Q = 2^d + i, R = 2^(d-1) + j (R = j at the root), and
    leaf[i, j] = 1 + bit_length(i ^ j) that of N/2 + i's halves and R = N/2 + j.
    0.83 N^2 + N^2 / 4 bytes: 70 KB at 256 leaves, 1.1 MB at 1024, 18 MB at 4096."""
    n, half = 1 << tree_depth, max(1, 1 << tree_depth >> 1)
    bits = np.zeros((half, half), dtype=np.int8)  # bit_length(i ^ j), by doubling
    for h in (1 << np.arange(tree_depth - 1)).tolist():
        bits[:h, h : 2 * h] = bits[h : 2 * h, :h] = h.bit_length()
        bits[h : 2 * h, h : 2 * h] = bits[:h, :h]
    levels = []
    for d in range(tree_depth):
        h, lo = 1 << d, (1 << d) >> 1
        need = np.zeros((h, n - lo), dtype=np.int8)
        if d:  # R one level up meets Q's parent at d - 1 - bit_length((Q >> 1) ^ R)
            need[:, :lo] = 1 + np.repeat(bits[:lo, :lo], 2, axis=0)
        own = bits[:h, :h]  # Q ^ (R >> (e - d)): 0 when R lies in Q
        for e in range(d, tree_depth):
            need[:, (1 << e) - lo : (2 << e) - lo] = np.repeat(
                np.maximum(own, e - d + 1) * (own > 0), 1 << e - d, axis=1)
        need.flags.writeable = False
        levels.append(need)
    bits += 1
    bits.flags.writeable = False
    return tuple(levels), bits


def _vanishing_radius(held, steps, in_measure, out_measure, fro):
    """Smallest r >= 0 at which one side's vanishing conditions hold.

    held and steps are the side's input stage (input_stage, leaf_steps):
    (Q, R) exceeds when |held[Q, R]| mu(Q) > sqrt(mu(Q)) WL_RTOL ||W||_F
    sqrt(nu(R)) (module docstring).  Each level is compared whole,
    block_rows(N) rows at a time, over the columns R >= 2^(d-1) (at leaf
    scale a leaf step's magnitudes and listed children), uncharged columns
    masked after; one masked maximum of _need_table takes the largest need."""
    n, half = len(held), len(held) >> 1
    levels, leaf = _need_table(in_measure.grid.tree_depth)
    charged = basis(out_measure).charged
    mass, sqrt_in = in_measure.box_mass, np.sqrt(in_measure.box_mass)
    tol = WL_RTOL * fro * np.sqrt(out_measure.box_mass[:n])
    size, worst = _kernels.block_rows(n), 0
    for d, need in enumerate(levels):
        h, lo = 1 << d, (1 << d) >> 1
        for a in range(0, h, size):
            rows = slice(h + a, h + min(a + size, h))
            value = np.abs(held[rows, lo:]) * mass[rows, None]
            exceeds = (value > sqrt_in[rows, None] * tol[lo:]) & charged[lo:]
            worst = max(worst, int(np.max(need[a : a + size], where=exceeds, initial=0)))
    for step in steps:  # both halves of a parent share its bound
        k, p0 = len(step.mag), step.p0
        listed = np.flatnonzero(step.cols >= half)
        at, cols = step.at[listed], step.cols[listed] - half
        exceeds = np.zeros((k, n - half), dtype=bool)
        for child in (0, 1):
            q = 2 * np.arange(p0, p0 + k) + child
            value = step.mag[:, half:] * mass[q, None]
            value[at, cols] = np.abs(step.children[listed, child]) * mass[q[at]]
            exceeds |= value > sqrt_in[q, None] * tol[half:]
        exceeds &= charged[half:]
        worst = max(worst, int(np.max(leaf[p0 - half : p0 - half + k], where=exceeds, initial=0)))
    return worst


def wl_radius(t: DyadicOperator) -> int:
    """Smallest r >= 1 with wl_check(t, r); wl_check holds exactly from it on.
    The tolerance scales with ||W||_F (module docstring), so scaling W keeps
    r (radii)."""
    return radii(t)[1]


def radii(t: DyadicOperator) -> tuple:
    """(ewl_radius(t), wl_radius(t)) from one input stage per side, each
    side's leaf steps streamed through its support gap into its vanishing
    test; read once per operator."""
    if t._radii is None:
        fro, ewl, wl = t.frobenius(), 0, 1
        for transpose in (True, False):
            nz, held, factor, in_m, out_m = input_stage(t, transpose)
            gap = SupportGap(out_m, in_m, fro)
            steps = gap.scan(_kernels.leaf_steps(factor, nz, held))
            wl = max(wl, _vanishing_radius(held, steps, in_m, out_m, fro))
            ewl = max(ewl, gap.value)
            del nz, held, steps  # one stage's N x N buffer at a time
        t._radii = ewl, wl
    return t._radii


def wl_check(t: DyadicOperator, r: int) -> bool:
    """True iff T and T* both satisfy the vanishing conditions at radius r,
    each pairing taken as zero up to the tolerance of wl_radius."""
    if r < 1:
        raise ValueError("the well-localized property needs r >= 1")
    return r >= wl_radius(t)
