"""The batched testing pass and ewl_radius against direct references."""

import sys

import numpy as np
import pytest

import twoweight.certificates as certificates
import twoweight.sweep as sweep
from twoweight import GridSpec, _kernels, build_grid, haar, localization, testing
from twoweight.haar import basis, synthesize
from twoweight.localization import SUPPORT_TOL, ewl_radius
from twoweight.operators import DyadicOperator, random_ewl
from twoweight.testing import _output_stage, admissible_pairs

from conftest import random_measure


def _reference_pass(a, grid, out_masses, offsets, partners):
    """Box by box from the dense leaf matrix a (column y = image of 1_y)."""
    n2 = grid.num_boxes
    restricted, glob = np.zeros(n2), np.zeros(n2)
    pair_vals = np.zeros(partners.size)
    lo, hi = grid.box_lo, grid.box_hi
    for box in range(1, n2):
        img = a[:, lo[box] : hi[box]].sum(axis=1)
        wv = out_masses * img
        glob[box] = wv @ img
        restricted[box] = wv[lo[box] : hi[box]] @ img[lo[box] : hi[box]]
        for p in range(offsets[box], offsets[box + 1]):
            g = partners[p]
            pair_vals[p] = wv[lo[g] : hi[g]].sum()
    return restricted, glob, pair_vals


def _assert_close(got, want, rtol=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(got - want)) <= rtol * scale


@pytest.mark.parametrize("dimension,depth", [(1, 4), (2, 3)])
def test_testing_images_match_leaf_matrix_reference(rng, dimension, depth):
    grid = build_grid(GridSpec(dimension, depth))
    sigma = random_measure(grid, rng, zero_fraction=0.25)
    omega = random_measure(grid, rng, zero_fraction=0.25)
    assert np.any(sigma.masses == 0) and np.any(omega.masses == 0)
    t = random_ewl(1, sigma, omega, 5)
    offsets, partners = admissible_pairs(grid, 2)
    got = _output_stage(synthesize(sigma, t.w), sigma, omega, offsets, partners)
    want = _reference_pass(t.leaf_matrix(), grid, omega.masses, offsets, partners)
    for g, w in zip(got, want):
        _assert_close(g, w)

    # adjoint pass: the transposed matrix, measures swapped, no pairs
    none = (np.zeros(grid.num_boxes + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    got = _output_stage(synthesize(omega, t.w.T), omega, sigma, *none)
    want = _reference_pass(t.adjoint().leaf_matrix(), grid, sigma.masses, *none)
    for g, w in zip(got[:2], want[:2]):
        _assert_close(g, w)


@pytest.mark.parametrize("dimension,depth", [(1, 0), (1, 5), (2, 3)])
def test_synthesize_at_equals_synthesize_boxes(rng, dimension, depth):
    grid = build_grid(GridSpec(dimension, depth))
    b = basis(random_measure(grid, rng, zero_fraction=0.25))
    n = grid.num_leaves
    coef = rng.standard_normal((n, 3))
    want = _kernels.synthesize_boxes(b.alpha, b.beta, coef.T, b.inv_sqrt_total)
    boxes = np.tile(np.arange(1, 2 * n), 3)
    cols = np.repeat(np.arange(3), 2 * n - 1)
    got = _kernels.synthesize_at(b.factor, coef, boxes, cols, grid.box_depth[boxes],
                                 b.inv_sqrt_total)
    assert np.array_equal(got, want[cols, boxes])


@pytest.mark.parametrize("num_leaves", [1, 2, 8, 32])
def test_subtree_sums_match_loop(rng, num_leaves):
    heap = rng.standard_normal((2, 2 * num_leaves))
    heap[:, 2:5] = -0.0
    want = heap.copy()
    for row in want:
        for h in range(num_leaves - 1, 0, -1):  # children before parents
            row[h] += row[2 * h] + row[2 * h + 1]
    got = _kernels.subtree_sums(heap.copy())
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # box_sums is subtree_sums over the leaves alone, bit for bit and sign of zero
    leaf = heap[:, num_leaves:]
    sums = _kernels.box_sums(leaf)
    want = np.zeros_like(heap)
    want[:, num_leaves:] = leaf
    for row in want:
        for h in range(num_leaves - 1, 0, -1):
            row[h] = row[2 * h] + row[2 * h + 1]
    assert np.array_equal(np.signbit(sums), np.signbit(want)) and np.array_equal(sums, want)


def _per_column_side_radius(grid, w, in_measure, out_measure, tol):
    worst = 0
    in_charged = basis(in_measure).charged
    out_charged = out_measure.charged_leaves()
    for h in range(1, grid.num_leaves):
        if not in_charged[h]:
            continue
        supp = np.nonzero(out_charged & (np.abs(synthesize(out_measure, w[:, h])) > tol))[0]
        if supp.size == 0:
            continue
        anc, r = h, 0
        while not (grid.box_lo[anc] <= supp[0] and supp[-1] < grid.box_hi[anc]):
            anc >>= 1
            r += 1
        worst = max(worst, r)
    return worst


@pytest.mark.parametrize("dimension,depth", [(1, 5), (2, 3)])
def test_ewl_radius_matches_per_column_reference(rng, dimension, depth):
    grid = build_grid(GridSpec(dimension, depth))
    n = grid.num_leaves
    operators = []
    for radius in range(grid.tree_depth + 1):
        sigma = random_measure(grid, rng, zero_fraction=0.3)
        omega = random_measure(grid, rng, zero_fraction=0.3)
        assert not basis(sigma).charged[1:].all() and not basis(omega).charged[1:].all()
        operators.append((random_ewl(radius, sigma, omega, radius), radius))
        # a few random entries: the radius then rests on one or two columns
        w = np.zeros((n, n))
        w[rng.integers(0, n, 3), rng.integers(0, n, 3)] = rng.uniform(-1.0, 1.0, 3)
        operators.append((DyadicOperator(grid, sigma, omega, w), grid.tree_depth))
    for t, bound in operators:
        want = max(
            _per_column_side_radius(grid, t.w, t.sigma, t.omega, SUPPORT_TOL),
            _per_column_side_radius(grid, t.w.T, t.omega, t.sigma, SUPPORT_TOL),
        )
        assert ewl_radius(t) == want <= bound
        # the testing pass reads the same radius from its own input stages
        assert testing.testing_report(t, norm=False).r_used == want
        measured = vars(testing.testing_report(t))
        given = vars(testing.testing_report(t, r=ewl_radius(t)))
        measured.pop("wall_ms"), given.pop("wall_ms")
        assert measured == given


@pytest.mark.parametrize("certify", [True, False])
def test_run_trial_synthesizes_each_side_once(monkeypatch, certify):
    """One testing pass per trial, two input stages (one per side), no
    ewl_radius and no other synthesis outside the certificate."""
    calls = {"testing_report": [], "synthesize": 0, "ewl_radius": 0}
    in_certificate = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name == "testing_report":
                calls[name].append(kwargs.get("c3_next"))
            elif not (name == "synthesize" and in_certificate):
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def certificate(*args, **kwargs):
        in_certificate.append(True)
        try:
            return original_certificate(*args, **kwargs)
        finally:
            in_certificate.pop()

    original_certificate = certificates.full_certificate
    monkeypatch.setattr(sweep, "full_certificate", certificate)
    for module, name in [(testing, "testing_report"), (haar, "synthesize"),
                         (localization, "ewl_radius")]:
        original = getattr(module, name)
        for held in list(sys.modules.values()):
            if (held is not None and held.__name__.startswith("twoweight")
                    and getattr(held, name, None) is original):
                monkeypatch.setattr(held, name, counted(name, original))
    config = sweep.SweepConfig.from_dict({
        "dimension": 1, "depths": [4], "radii": [1], "trials": 2,
        "families": ["random_ewl", "haar_shift"], "measures": ["iid_uniform"], "seed": 3,
        "certificates": certify,
    })
    for index, d, r, fam, kind in config.trial_params():
        for key in calls:
            calls[key] = [] if key == "testing_report" else 0
        row, failures, cert = sweep.run_trial(config, index, d, r, fam, kind)
        assert not failures and (cert is not None) == certify
        assert calls == {"testing_report": [certify], "synthesize": 2, "ewl_radius": 0}
