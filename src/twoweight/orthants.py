"""Multi-root grids (one root cube per orthant) and block operators on them.

The single-root reduction of the pairing rests on cross-orthant terms
vanishing: with root-clipped ancestors, the image of anything supported in
one root cube stays inside that cube, so <T(sigma f 1_{Q_i}), g 1_{Q_j}>
must be zero for i != j.  A MultiRootOperator stores one whitened block per
(output root, input root) pair; well-localized constructions only populate
the diagonal, and the checker measures every off-diagonal pairing honestly,
so planted violations are detected.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from .grid import Grid, GridSpec, build_grid
from .haar import analyze
from .measures import LeafMeasure
from .operators import random_ewl


class MultiRootGrid:
    """Disjoint congruent root cubes, each carrying its own dyadic tree."""

    def __init__(self, dimension: int, depth: int, origins=None, side=Fraction(1)):
        side = Fraction(side)
        if origins is None:
            # one root per orthant: corners of [-side, side)^n
            origins = [tuple(Fraction(0) if up else -side for up in corner)
                       for corner in product((False, True), repeat=dimension)]
        self.grids = [build_grid(GridSpec(dimension, depth, origin=o, side=side))
                      for o in origins]
        self.dimension = dimension
        self.depth = depth
        self.num_roots = len(self.grids)
        self.leaves_per_root = self.grids[0].num_leaves
        self.num_leaves = self.num_roots * self.leaves_per_root

    def split(self, values: np.ndarray):
        """Per-root views of a concatenated leaf array."""
        n = self.leaves_per_root
        return [values[i * n : (i + 1) * n] for i in range(self.num_roots)]


class MultiRootMeasure:
    def __init__(self, mgrid: MultiRootGrid, masses: np.ndarray):
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != (mgrid.num_leaves,):
            raise ValueError("mass array must cover all roots")
        self.mgrid = mgrid
        self.masses = masses
        self.parts = [LeafMeasure(g, m) for g, m in zip(mgrid.grids, mgrid.split(masses))]


class MultiRootOperator:
    """Blockwise map f -> T(sigma f) across root cubes.

    blocks[(i, j)] is the whitened matrix from root j's sigma coordinates to
    root i's omega coordinates.  Missing blocks are zero.
    """

    def __init__(self, mgrid: MultiRootGrid, sigma: MultiRootMeasure,
                 omega: MultiRootMeasure, blocks: dict):
        self.mgrid = mgrid
        self.sigma = sigma
        self.omega = omega
        self.blocks = blocks

    @classmethod
    def block_diagonal(cls, mgrid: MultiRootGrid, sigma: MultiRootMeasure,
                       omega: MultiRootMeasure, operators) -> "MultiRootOperator":
        blocks = {(i, i): op.w for i, op in enumerate(operators)}
        return cls(mgrid, sigma, omega, blocks)

    def with_block(self, i: int, j: int, w: np.ndarray) -> "MultiRootOperator":
        blocks = dict(self.blocks)
        blocks[(i, j)] = w
        return MultiRootOperator(self.mgrid, self.sigma, self.omega, blocks)

    def frobenius(self) -> float:
        return float(np.sqrt(sum(np.sum(b * b) for b in self.blocks.values())))

    def orthant_pairings(self, f_values, g_values) -> np.ndarray:
        """Matrix P[i, j] = <T(sigma f 1_{Q_j}), g 1_{Q_i}>_omega."""
        f_parts = self.mgrid.split(np.asarray(f_values, float))
        g_parts = self.mgrid.split(np.asarray(g_values, float))
        k = self.mgrid.num_roots
        fhat = [analyze(self.sigma.parts[j], f_parts[j]) for j in range(k)]
        ghat = [analyze(self.omega.parts[i], g_parts[i]) for i in range(k)]
        out = np.zeros((k, k))
        for (i, j), w in self.blocks.items():
            out[i, j] = float(ghat[i] @ (w @ fhat[j]))
        return out

    def cross_pairings_vanish(self, f_values, g_values, tol: float = 1e-12) -> bool:
        p = self.orthant_pairings(f_values, g_values)
        f_parts = self.mgrid.split(np.asarray(f_values, float))
        g_parts = self.mgrid.split(np.asarray(g_values, float))
        fro = max(self.frobenius(), 1.0)
        for i in range(self.mgrid.num_roots):
            for j in range(self.mgrid.num_roots):
                if i == j:
                    continue
                fn = self.sigma.parts[j].norm(f_parts[j])
                gn = self.omega.parts[i].norm(g_parts[i])
                if abs(p[i, j]) > tol * fro * (1.0 + fn * gn):
                    return False
        return True


def random_multiroot_ewl(mgrid: MultiRootGrid, sigma: MultiRootMeasure,
                         omega: MultiRootMeasure, r: int, seed) -> MultiRootOperator:
    """Independent random EWL block per root; off-diagonal blocks zero."""
    ops = [random_ewl(r, s, o, (seed, i))
           for i, (s, o) in enumerate(zip(sigma.parts, omega.parts))]
    return MultiRootOperator.block_diagonal(mgrid, sigma, omega, ops)
