"""Stopping-rectangle families, Carleson packing and the embedding ratio.

The family is grown from the root: the stopping children of S are the
maximal boxes S' strictly inside S whose omega-average of |g| strictly
exceeds twice that of S.  Because the selected children are disjoint and
each carries more than twice the parent's average, their masses sum to at
most omega(S)/2, which packs geometrically:

    sum over stopping S inside Q of omega(S)  <=  2 omega(Q)  for every box Q.

The packing constant 2 in turn bounds the embedding ratio
sum_S omega(S) <|g|>_S^2 / ||g||^2 by 8 (dyadic Carleson embedding with
constant 4 x packing 2); the acceptance suite pre-validates that threshold
by exhaustive search at small depth before any sweep relies on it.

The family is built by one top-down sweep over the heap levels.  With
P = stop_parent[b >> 1] the minimal member containing b's parent, a box b
is a member iff omega(b) > 0 and <|g|>_b > 2 <|g|>_P, and
stop_parent[b] is b if it is a member and P otherwise.  Maximality is
built in: below a member S' the threshold is taken from S', never from S.
Massless boxes carry average 0 and never pass the strict inequality.
Heap slot 0 is not a box and is never a member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .grid import Grid
from .measures import LeafMeasure

PACKING_RTOL = 1e-12
EMBEDDING_LIMIT = 8.0


@dataclass
class StoppingFamily:
    """Members, stopping parents and the omega-averages of |g| and of g."""

    grid: Grid
    members: np.ndarray  # heap indices, sorted; members[0] is the root
    stop_parent: np.ndarray  # (2N,) minimal member containing each box
    abs_average: np.ndarray  # (2N,) <|g|>^omega_B for every box B, 0 if omega(B) = 0
    average: np.ndarray  # (2N,) signed <g>^omega_B, read by split_B and embedding_ratios
    omega: LeafMeasure = field(repr=False)

    def parent_of(self, heap: int) -> int:
        """pi E: the minimal stopping rectangle containing box E."""
        return int(self.stop_parent[heap])

    @property
    def children(self) -> dict:
        """Member -> its stopping children, sorted; built on each access."""
        out = {s: [] for s in self.members.tolist()}
        kids = self.members[1:]
        for kid, parent in zip(kids.tolist(), self.stop_parent[kids >> 1].tolist()):
            out[parent].append(kid)
        return out

    def packing_slack(self):
        """(child-mass slack, worst global packing ratio).

        child slack: max over S of sum(children mass) - omega(S)/2 (should
        be <= 0 up to rounding); packing ratio: max over boxes Q with mass
        of sum of member masses inside Q over omega(Q) (should be <= 2).
        Computed once per family.
        """
        return self._packing

    @cached_property
    def _packing(self):
        bm = self.omega.box_mass
        kids = self.members[1:]
        child_slack = 0.0
        if kids.size:
            kid_mass = np.bincount(self.stop_parent[kids >> 1], weights=bm[kids],
                                   minlength=bm.size)
            # every child has positive mass: the members with children are
            # exactly those with positive child mass
            has_kids = kid_mass > 0
            child_slack = float((kid_mass[has_kids] - 0.5 * bm[has_kids]).max())
        stop_mass = np.zeros(bm.size)
        stop_mass[self.members] = bm[self.members]
        total = _kernels.subtree_sums(stop_mass)
        ratios = np.divide(total, bm, out=np.zeros(bm.size), where=bm > 0)
        return child_slack, float(ratios.max())

    def packing_ok(self) -> bool:
        child_slack, ratio = self.packing_slack()
        scale = self.omega.total
        return child_slack <= PACKING_RTOL * scale and ratio <= 2.0 + PACKING_RTOL


def build_stopping_family(g_values: np.ndarray, omega: LeafMeasure) -> StoppingFamily:
    """Iterated stopping construction for <|g|> with doubling threshold.

    Zero-mass boxes are never selected; the inequality is strict, so ties at
    exactly twice the average do not stop.
    """
    grid = omega.grid
    bm = omega.box_mass
    avg = omega.averages(np.abs(g_values))
    threshold = 2.0 * avg
    boxes = np.arange(bm.size)
    stop_parent = np.zeros(bm.size, dtype=np.int64)
    stop_parent[1] = 1
    lo = 2
    while lo < bm.size:
        above = stop_parent[lo >> 1 : lo].repeat(2)
        stop_parent[lo : 2 * lo] = np.where(avg[lo : 2 * lo] > threshold[above],
                                            boxes[lo : 2 * lo], above)
        lo <<= 1
    members = (stop_parent[1:] == boxes[1:]).nonzero()[0] + 1
    return StoppingFamily(grid, members, stop_parent, avg, omega.averages(g_values), omega)


def embedding_ratios(family: StoppingFamily, g_values: np.ndarray,
                     omega: LeafMeasure) -> dict:
    """sum_S omega(S) <.>_S^2 / ||g||^2 with the absolute and the signed averages.

    family is the stopping family of this g on omega and carries both
    averages.  Both ratios are zero when g vanishes in L^2(omega); the
    absolute averages dominate the signed ones.  The sums run left to right
    over the sorted members (cumsum), as a plain accumulation loop would.
    """
    g_values = np.asarray(g_values, dtype=np.float64)
    norm_sq = float((omega.masses * g_values**2).sum())
    if norm_sq == 0.0:
        return {"absolute": 0.0, "signed": 0.0}
    # g != 0 in L^2(omega) puts mass on the root, and every other member
    # has mass by construction: no member divides by zero
    members = family.members
    m = omega.box_mass[members]
    signed = family.average[members]
    abs_sum = (m * family.abs_average[members] ** 2).cumsum()[-1]
    signed_sum = (m * signed**2).cumsum()[-1]
    return {"absolute": float(abs_sum) / norm_sq, "signed": float(signed_sum) / norm_sq}
