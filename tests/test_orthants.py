"""Cross-orthant vanishing on multi-root grids."""

import numpy as np

from twoweight.orthants import (
    MultiRootGrid,
    MultiRootMeasure,
    random_multiroot_ewl,
)


def test_orthant_grid_layout():
    mg = MultiRootGrid(2, 2)
    assert mg.num_roots == 4
    assert mg.num_leaves == 4 * 16
    origins = {tuple(float(c) for c in g.spec.origin) for g in mg.grids}
    assert origins == {(-1.0, -1.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 0.0)}


def test_cross_orthant_pairings_vanish(rng):
    for n, r in [(1, 0), (1, 1), (2, 1)]:
        mg = MultiRootGrid(n, 3 if n == 1 else 2)
        sigma = MultiRootMeasure(mg, rng.uniform(0.1, 1, mg.num_leaves))
        omega = MultiRootMeasure(mg, rng.uniform(0.1, 1, mg.num_leaves))
        op = random_multiroot_ewl(mg, sigma, omega, r, seed=5)
        f = rng.standard_normal(mg.num_leaves)
        g = rng.standard_normal(mg.num_leaves)
        assert op.cross_pairings_vanish(f, g)
        p = op.orthant_pairings(f, g)
        off_diag = p[~np.eye(mg.num_roots, dtype=bool)]
        assert np.all(off_diag == 0.0)
        assert np.any(np.diag(p) != 0.0)


def test_planted_cross_block_detected(rng):
    mg = MultiRootGrid(1, 3)
    sigma = MultiRootMeasure(mg, rng.uniform(0.1, 1, mg.num_leaves))
    omega = MultiRootMeasure(mg, rng.uniform(0.1, 1, mg.num_leaves))
    op = random_multiroot_ewl(mg, sigma, omega, 1, seed=5)
    n = mg.leaves_per_root
    bad = op.with_block(0, 1, 0.5 * np.eye(n))
    f = rng.standard_normal(mg.num_leaves)
    g = rng.standard_normal(mg.num_leaves)
    assert not bad.cross_pairings_vanish(f, g)
