"""Weight-adapted Haar bases and the martingale calculus built on them.

For a rectangle E with halves E1, E2 and a measure mu charging both halves,

    h^mu_E = sqrt(mu(E1) / (mu(E) mu(E2))) 1_{E2}
           - sqrt(mu(E2) / (mu(E) mu(E1))) 1_{E1},

and h^mu_E = 0 when either half is massless.  Together with the normalized
constant these form an orthonormal basis of L^2(mu) restricted to charged
leaves, so analysis/synthesis are exact inverses there and Parseval holds.

The whitened coefficient layout used package-wide: an array of length N whose
slot 0 is <f, 1/sqrt(mu(Q0))>_mu and slot H (1 <= H < N) is <f, h^mu_H>_mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import Grid, HaarRectangle
from .measures import LeafFunction, LeafMeasure


class WeightedBasis:
    """Per-measure Haar coefficients: alpha/beta split values and charge flags.

    alpha[H] multiplies 1_{E2}, beta[H] multiplies 1_{E1}; both are zero at
    uncharged rectangles, which silently drops those basis directions.
    """

    def __init__(self, mu: LeafMeasure):
        grid = mu.grid
        n = grid.num_leaves
        bm = mu.box_mass
        m_h = bm[1:n]
        m_l = bm[2 : 2 * n : 2]
        m_r = bm[3 : 2 * n : 2]
        charged = (m_l > 0) & (m_r > 0)
        alpha = np.zeros(n)
        beta = np.zeros(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha[1:] = np.where(charged, np.sqrt(np.where(charged, m_l, 1.0) /
                                                  np.where(charged, m_h * m_r, 1.0)), 0.0)
            beta[1:] = np.where(charged, np.sqrt(np.where(charged, m_r, 1.0) /
                                                 np.where(charged, m_h * m_l, 1.0)), 0.0)
        self.grid = grid
        self.alpha = alpha
        self.beta = beta
        self.charged = np.zeros(n, dtype=bool)
        self.charged[1:] = charged
        total = float(bm[1])
        self.sqrt_total = np.sqrt(total)
        self.inv_sqrt_total = 1.0 / self.sqrt_total if total > 0 else 0.0
        # factor of the parent's component on each child box along a root
        # path: -beta on the lower half, +alpha on the upper; at the root,
        # the weight of the constant slot
        self.factor = np.zeros(2 * n)
        self.factor[1] = self.inv_sqrt_total
        self.factor[2::2] = -beta[1:]
        self.factor[3::2] = alpha[1:]

    def charged_slots(self) -> np.ndarray:
        """Whitened slots carrying a basis function (constant if mu != 0)."""
        slots = self.charged.copy()
        slots[0] = self.sqrt_total > 0
        return slots

    def average_coefficients(self, boxes):
        """Flat arrays (i, A, c): <f>^mu_Q = sum of c fhat(A) for Q = boxes[i],
        over the constant slot A = 0 (c = 1/sqrt(mu(Q0))) and Q's strict
        ancestors A (c = factor of A's child on Q's root path).  Times mu(Q),
        the entries of indicator_coefficients(mu, Q), zeros included.  Each
        root path is listed from the root down, one level of every path at a
        time, so np.bincount(i, c * fhat[A]) adds Q's terms in the order of
        _kernels.synthesize_boxes and gives its value on Q bit for bit (x -
        b*c and x + (-b)*c round alike), but for the sign of a zero sum."""
        boxes = np.asarray(boxes, dtype=np.int64)
        depth = self.grid.box_depth[boxes]
        parts = [(np.arange(boxes.size), np.zeros_like(boxes),
                  np.full(boxes.size, self.inv_sqrt_total))]
        for k in range(int(depth.max(initial=0))):
            live = np.flatnonzero(depth > k)
            node = boxes[live] >> (depth[live] - k - 1)  # the path's box at depth k + 1
            parts.append((live, node >> 1, self.factor[node]))
        return tuple(np.concatenate(p) for p in zip(*parts))


def basis(mu: LeafMeasure) -> WeightedBasis:
    if mu._basis is None:
        mu._basis = WeightedBasis(mu)
    return mu._basis


def analyze(mu: LeafMeasure, values: np.ndarray) -> np.ndarray:
    """Whitened coefficients of leaf values; batched over leading axes."""
    b = basis(mu)
    wsums = _kernels.box_sums(np.asarray(values, dtype=np.float64) * mu.masses)
    return _kernels.analyze(b.alpha, b.beta, wsums, b.inv_sqrt_total)


def synthesize(mu: LeafMeasure, coef: np.ndarray) -> np.ndarray:
    """Leaf values from whitened coefficients (mu-a.e. inverse of analyze);
    batched over leading axes, block_rows(N) rows at a time."""
    b = basis(mu)
    coef = np.asarray(coef, dtype=np.float64)
    rows = coef.reshape(-1, coef.shape[-1])
    block = _kernels.block_rows(rows.shape[1])
    out = np.empty(rows.shape)
    for a in range(0, rows.shape[0], block):
        out[a : a + block] = _kernels.synthesize_boxes(b.alpha, b.beta, rows[a : a + block],
                                                       b.inv_sqrt_total)[:, rows.shape[1]:]
    return out.reshape(coef.shape)


def indicator_coefficients(mu: LeafMeasure, heap: int):
    """Sparse whitened analysis of the indicator of a box.

    <1_Q, h_A>_mu vanishes unless A is a strict ancestor of Q, so the result
    has at most tree_depth + 1 entries: (slot indices, values).
    """
    b = basis(mu)
    mass_q = mu.box_mass[heap]
    idx = [0]
    val = [mass_q * b.inv_sqrt_total]
    h = heap
    while h > 1:
        parent = h >> 1
        if h & 1:  # Q inside the upper half E2
            v = b.alpha[parent] * mass_q
        else:
            v = -b.beta[parent] * mass_q
        if v != 0.0:
            idx.append(parent)
            val.append(v)
        h = parent
    return np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=np.float64)


def haar0(rect: HaarRectangle) -> LeafFunction:
    """Lebesgue Haar function: (1_{E2} - 1_{E1}) / sqrt(|E|)."""
    e1, e2 = rect.halves()
    values = np.zeros(rect.grid.num_leaves)
    scale = 1.0 / np.sqrt(rect.volume)
    values[e1.leaf_slice()] = -scale
    values[e2.leaf_slice()] = scale
    return LeafFunction(rect.grid, values)


def haar_avg(rect: HaarRectangle) -> LeafFunction:
    """Averaging function: 1_E / |E|; integrates to one over E."""
    values = np.zeros(rect.grid.num_leaves)
    values[rect.leaf_slice()] = 1.0 / rect.volume
    return LeafFunction(rect.grid, values)


def weighted_haar(rect: HaarRectangle, mu: LeafMeasure) -> LeafFunction:
    """h^mu_E; identically zero when either half carries no mass."""
    b = basis(mu)
    h = rect.heap
    values = np.zeros(rect.grid.num_leaves)
    if h < rect.grid.num_leaves and b.charged[h]:
        e1, e2 = rect.halves()
        values[e1.leaf_slice()] = -b.beta[h]
        values[e2.leaf_slice()] = b.alpha[h]
    return LeafFunction(rect.grid, values)


@dataclass
class HaarCoefficients:
    """Martingale expansion of f in the mu-adapted basis."""

    grid: Grid
    mu: LeafMeasure
    whitened: np.ndarray  # layout: slot 0 constant, slot H rectangle H
    mean: float  # <f>^mu_{Q0}

    def coefficient(self, rect: HaarRectangle) -> float:
        return float(self.whitened[rect.heap])

    def rectangle_coefficients(self) -> np.ndarray:
        return self.whitened[1:]

    def norm_squared(self) -> float:
        """Parseval sum: sum of coefficients^2 + mean^2 mu(Q0)."""
        return float(np.sum(self.whitened[1:] ** 2) + self.mean**2 * self.mu.total)

    def reconstruct(self) -> LeafFunction:
        return LeafFunction(self.grid, synthesize(self.mu, self.whitened))


def martingale_decompose(f: LeafFunction, mu: LeafMeasure) -> HaarCoefficients:
    """Expand f over all charged rectangles plus the constant component.

    Reconstruction agrees with f on every leaf of positive mass and the
    Parseval identity is exact up to float rounding.
    """
    coef = analyze(mu, f.values)
    total = mu.total
    mean = float(coef[0]) / np.sqrt(total) if total > 0 else 0.0
    return HaarCoefficients(f.grid, mu, coef, mean)
