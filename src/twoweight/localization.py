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
The images are the leaf levels of the testing pass's input stages: each
internal box's row of the synthesis of W's rows or columns (input_stage),
and each leaf read one step off its parent's row (leaf_steps).  Rectangles
sit above leaf scale, so both halves of a parent p lie depth(E) -
lca_depth(E, p) levels below a rectangle E's smallest box holding them, a
table by heap position (_gap_table); SupportGap takes its largest value
over each rectangle's support, independent of the block size.

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
    """gaps[E]: depth(E) less that of the smallest box holding the charged
    rectangle E and its support leaves; value is their maximum.  scan reads
    one input stage's leaf steps (box of leaf_measure, slot E of the output
    measure) and passes each on.  Support: charged leaves above
    SUPPORT_TOL fro / sqrt(leaf_measure(Q0)), fro = ||W||_F, a parent's
    magnitude or, at a listed entry, the larger of its children's values;
    one masked maximum of _gap_table per step folds it into gaps.  W is
    +0.0 at uncharged slots (DyadicOperator), so an uncharged column E has
    no support, and a listed parent's slot is charged: both its halves are
    charged leaves.  The table is 0 at the constant slot."""

    def __init__(self, leaf_measure, fro):
        n = leaf_measure.grid.num_leaves
        total = leaf_measure.total
        self.tol = SUPPORT_TOL * fro / np.sqrt(total) if total > 0 else 0.0
        # by parent slot p (slot 0 is the root's parent at N = 1): whether it
        # has a charged child
        charged = np.zeros(2 * n, dtype=bool)
        charged[n:] = leaf_measure.charged_leaves()
        self.some = charged[0::2] | charged[1::2]
        self.table = _gap_table(leaf_measure.grid.tree_depth)
        self.gaps = np.zeros(n, dtype=np.int8)

    def scan(self, steps):
        half = len(self.gaps) >> 1
        for step in steps:
            p0, k = step.p0, len(step.mag)
            supp = step.mag > self.tol
            supp[step.at, step.cols] = np.abs(step.children).max(axis=1) > self.tol
            supp &= self.some[p0 : p0 + k, None]
            gap = np.max(self.table[p0 - half : p0 - half + k], axis=0, where=supp, initial=0)
            np.maximum(self.gaps, gap, out=self.gaps)
            yield step

    @property
    def value(self) -> int:
        return int(self.gaps.max())


def input_stage(t: DyadicOperator, transpose: bool):
    """(nz, held, factor, input measure, output measure) of one input stage of
    t: the rows of W over sigma (transpose; row R is T*(omega h_R)) or its
    columns over omega (column E is T(sigma h_E)), from the side's nonzeros
    nz.  held, N x N, holds every internal box's row (synthesize_levels),
    factor is the input basis'; _kernels.leaf_steps(factor, nz, held) reads
    the leaves."""
    in_m, out_m = (t.sigma, t.omega) if transpose else (t.omega, t.sigma)
    n = t.grid.num_leaves
    nz, held, factor = t.nonzeros(transpose), np.empty((n, n)), basis(in_m).factor
    _kernels.synthesize_levels(factor, nz, held)
    return nz, held, factor, in_m, out_m


def ewl_radius(t: DyadicOperator) -> int:
    """Smallest uniform localization radius, at most tree_depth - 1 (radii)."""
    return radii(t)[0]


@functools.cache
def _bits(tree_depth):
    """bit_length(i ^ j), i, j < max(1, N/2), the levels from two boxes of one
    level up to their lca: read-only int8, by doubling, kept per tree depth."""
    half = max(1, 1 << tree_depth >> 1)
    bits = np.zeros((half, half), dtype=np.int8)
    for h in (1 << np.arange(tree_depth - 1)).tolist():
        bits[:h, h : 2 * h] = bits[h : 2 * h, :h] = h.bit_length()
        bits[h : 2 * h, h : 2 * h] = bits[:h, :h]
    bits.flags.writeable = False
    return bits


@functools.cache
def _gap_table(tree_depth):
    """gap[i, E] = depth(E) - lca_depth(E, p = N/2 + i) (0 at slot 0), read-only
    int8 (max(1, N/2), N) kept per tree depth: E's depth-e block is
    bit_length(anc_e(p) ^ E), _bits' rows repeated N/2 >> e times (0.5 MB at
    1024 leaves, 8 MB at 4096)."""
    bits, half = _bits(tree_depth), max(1, 1 << tree_depth >> 1)
    blocks = [np.repeat(bits[:h, :h], half // h, axis=0)
              for h in (1 << np.arange(tree_depth)).tolist()]
    gap = np.concatenate([np.zeros((half, 1), dtype=np.int8), *blocks], axis=1)
    gap.flags.writeable = False
    return gap


@functools.cache
def _need_table(tree_depth):
    """levels, read-only int8, built on first use and kept: levels[d][i, j] is
    need(Q, R) at Q = 2^d + i, R = 2^(d-1) + j (R = j at the root), in 0.83 N^2
    bytes: 55 KB at 256 leaves, 0.9 MB at 1024, 14 MB at 4096."""
    n, bits = 1 << tree_depth, _bits(tree_depth)
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
    return tuple(levels)


def _vanishing_radius(held, steps, in_measure, out_measure, fro):
    """Smallest r >= 0 at which one side's vanishing conditions hold.

    held and steps are the side's input stage (input_stage, leaf_steps):
    (Q, R) exceeds when |held[Q, R]| mu(Q) > sqrt(mu(Q)) WL_RTOL ||W||_F
    sqrt(nu(R)) (module docstring).  Each level is compared whole,
    block_rows(N) rows at a time, over the columns R >= 2^(d-1) (at leaf
    scale a leaf step's magnitudes and listed children); one masked maximum
    of _need_table takes the largest need (at leaf scale 1 + _bits, shared
    by both halves of a parent and R = N/2 + j).  No column is masked: W is
    +0.0 at an uncharged R (DyadicOperator), and need is 0 at the constant
    slot."""
    n, half = len(held), len(held) >> 1
    levels, bits = _need_table(in_measure.grid.tree_depth), _bits(in_measure.grid.tree_depth)
    mass, sqrt_in = in_measure.box_mass, np.sqrt(in_measure.box_mass)
    tol = WL_RTOL * fro * np.sqrt(out_measure.box_mass[:n])
    size, worst = _kernels.block_rows(n), 0
    for d, need in enumerate(levels):
        h, lo = 1 << d, (1 << d) >> 1
        for a in range(0, h, size):
            rows = slice(h + a, h + min(a + size, h))
            value = np.abs(held[rows, lo:]) * mass[rows, None]
            exceeds = value > sqrt_in[rows, None] * tol[lo:]
            worst = max(worst, int(np.max(need[a : a + size], where=exceeds, initial=0)))
    for step in steps:  # both halves of a parent share its bound
        k, p0, i = len(step.mag), step.p0, step.p0 - half
        listed = np.flatnonzero(step.cols >= half)
        at, cols = step.at[listed], step.cols[listed] - half
        exceeds = np.zeros((k, n - half), dtype=bool)
        for child in (0, 1):
            q = 2 * np.arange(p0, p0 + k) + child
            value = step.mag[:, half:] * mass[q, None]
            value[at, cols] = np.abs(step.children[listed, child]) * mass[q[at]]
            exceeds |= value > sqrt_in[q, None] * tol[half:]
        worst = max(worst, 1 + int(np.max(bits[i : i + k], where=exceeds, initial=-1)))
    return worst


def wl_radius(t: DyadicOperator) -> int:
    """Smallest r >= 1 with wl_check(t, r); wl_check holds exactly from it on.
    The tolerance scales with ||W||_F, so scaling W keeps r (radii)."""
    return radii(t)[1]


def radii(t: DyadicOperator) -> tuple:
    """(ewl_radius(t), wl_radius(t)) from one input stage per side, each
    side's leaf steps streamed through its support gap into its vanishing
    test; read once per operator."""
    if t._radii is None:
        fro, ewl, wl = t.frobenius(), 0, 1
        for transpose in (True, False):
            nz, held, factor, in_m, out_m = input_stage(t, transpose)
            gap = SupportGap(in_m, fro)
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
