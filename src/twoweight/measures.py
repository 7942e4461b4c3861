"""Leaf-supported measures and functions on a finite dyadic grid.

A measure is a nonnegative mass per finest-level cell; a function is a real
value per cell.  Everything the testing/certificate machinery needs from a
measure is the mass of heap boxes, which is a prefix/pairwise sum over the
Morton-ordered leaves and is cached on first use.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .exceptions import DomainError
from .grid import Grid


class LeafMeasure:
    """Nonnegative leaf masses (Morton order) plus cached box aggregates."""

    def __init__(self, grid: Grid, masses):
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != (grid.num_leaves,):
            raise ValueError("mass array must have one entry per leaf")
        if np.any(masses < 0) or not np.all(np.isfinite(masses)):
            raise DomainError("masses must be finite and nonnegative")
        self.grid = grid
        self.masses = masses
        self.masses.flags.writeable = False
        self._box_mass = None
        self._basis = None

    @property
    def box_mass(self) -> np.ndarray:
        """Heap array (2N,): mass of every box."""
        if self._box_mass is None:
            self._box_mass = _kernels.box_sums(self.masses)
            self._box_mass.flags.writeable = False
        return self._box_mass

    def averages(self, values) -> np.ndarray:
        """Heap array (..., 2N): mu-average of leaf values over every box, 0 on
        massless boxes; batched over leading axes."""
        sums = _kernels.box_sums(np.asarray(values, dtype=np.float64) * self.masses)
        bm = self.box_mass
        return np.divide(sums, bm, out=np.zeros_like(sums), where=bm > 0)

    def norm(self, values) -> float:
        """L^2(mu) norm of leaf values."""
        return float(np.sqrt(np.sum(self.masses * np.asarray(values, dtype=np.float64) ** 2)))

    @property
    def total(self) -> float:
        return float(self.box_mass[1])

    def charged_leaves(self) -> np.ndarray:
        return self.masses > 0

    def __repr__(self):
        return f"LeafMeasure(total={self.total:.6g}, leaves={self.grid.num_leaves})"


class LeafFunction:
    """Real value per leaf (Morton order); elements of L^2(mu)."""

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.num_leaves,):
            raise ValueError("value array must have one entry per leaf")
        self.grid = grid
        self.values = values

    def norm(self, mu: LeafMeasure) -> float:
        return mu.norm(self.values)

    def __repr__(self):
        return f"LeafFunction(leaves={self.grid.num_leaves})"


def indicator(grid: Grid, heap: int) -> LeafFunction:
    values = np.zeros(grid.num_leaves)
    values[grid.box_lo[heap] : grid.box_hi[heap]] = 1.0
    return LeafFunction(grid, values)


def inner(f: LeafFunction, g: LeafFunction, mu: LeafMeasure) -> float:
    """<f, g>_mu = sum over leaves of f * g * mass."""
    if f.grid is not g.grid or f.grid is not mu.grid:
        if not (f.grid == g.grid == mu.grid):
            raise ValueError("f, g, mu must share a grid")
    return float(np.sum(f.values * g.values * mu.masses))


def lebesgue(grid: Grid) -> LeafMeasure:
    """Lebesgue measure: every leaf carries its geometric volume."""
    return LeafMeasure(grid, np.full(grid.num_leaves, grid.leaf_volume))


def from_pointwise_weights(u: LeafFunction, v: LeafFunction):
    """Measures (sigma, omega) from pointwise weights: d sigma = dx / u, d omega = v dx.

    u must be strictly positive; v nonnegative.
    """
    grid = u.grid
    if np.any(u.values <= 0):
        raise DomainError("weight u must be positive on every leaf")
    if np.any(v.values < 0):
        raise DomainError("weight v must be nonnegative")
    vol = grid.leaf_volume
    sigma = LeafMeasure(grid, vol / u.values)
    omega = LeafMeasure(grid, vol * v.values)
    return sigma, omega
