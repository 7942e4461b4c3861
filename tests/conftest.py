import numpy as np
import pytest

from twoweight import GridSpec, LeafMeasure, build_grid
from twoweight.haar import basis, indicator_coefficients


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_measure(grid, rng, zero_fraction=0.0, low=0.0, high=1.0):
    masses = rng.uniform(low, high, grid.num_leaves)
    if zero_fraction > 0:
        masses[rng.random(grid.num_leaves) < zero_fraction] = 0.0
    return LeafMeasure(grid, masses)


def grid_1d(depth):
    return build_grid(GridSpec(1, depth))


def wl_check_loop(t, r, rtol=1e-10):
    """Reference: the per-box loop, one indicator analysis per box Q."""
    fro = t.frobenius()

    def side_ok(w, in_measure, out_measure):
        grid = t.grid
        depth = grid.box_depth
        rect = np.nonzero(basis(out_measure).charged)[0]
        rect_depth = depth[rect]
        for q in range(1, grid.num_boxes):
            dq = depth[q]
            anc = max(q >> r, 1)
            gap_anc = rect_depth - depth[anc]
            in_q_r = (gap_anc >= 0) & ((rect >> np.maximum(gap_anc, 0)) == anc)
            gap_q = rect_depth - dq
            in_q = (gap_q >= 0) & ((rect >> np.maximum(gap_q, 0)) == q)
            must_vanish = (rect_depth >= dq - 1) & (
                ~in_q_r | ((rect_depth >= dq + r) & ~in_q))
            if not np.any(must_vanish):
                continue
            idx, val = indicator_coefficients(in_measure, q)
            pairings = w[:, idx] @ val
            checked = rect[must_vanish]
            tol = rtol * fro * np.sqrt(in_measure.box_mass[q] * out_measure.box_mass[checked])
            if np.any(np.abs(pairings[checked]) > tol):
                return False
        return True

    return side_ok(t.w, t.sigma, t.omega) and side_ok(t.w.T, t.omega, t.sigma)
