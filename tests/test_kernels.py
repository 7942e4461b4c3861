"""The batched testing pass and ewl_radius against direct references."""

import hashlib
import json
import sys

import numpy as np
import pytest

import twoweight.certificates as certificates
import twoweight.sweep as sweep
from twoweight import GridSpec, LeafMeasure, _kernels, build_grid, cli, haar, localization, serialize, testing
from twoweight.haar import basis, synthesize, synthesize_leaf_blocks
from twoweight.localization import SUPPORT_TOL, ewl_radius, wl_radius
from twoweight.operators import (
    CoefficientSequence,
    DyadicOperator,
    from_leaf_matrix,
    haar_shift,
    martingale_transform,
    paraproduct,
    random_ewl,
)
from twoweight.testing import _output_stage, admissible_pairs

from conftest import random_measure, wl_check_loop


def _reference_pass(a, grid, out_masses):
    """Every box at once from the dense leaf matrix a (column y = image of 1_y):
    restricted and global norms per box, and every pairing <T 1_E, 1_G> as a
    (box E, box G) matrix."""
    leaves = np.arange(grid.num_leaves)
    ind = (grid.box_lo[:, None] <= leaves) & (leaves < grid.box_hi[:, None])
    ind[0] = False  # heap slot 0 is not a box
    img = ind @ a.T  # img[B] = T applied to the indicator of box B, on the leaves
    wv = img * out_masses
    return (wv * img * ind).sum(axis=1), (wv * img).sum(axis=1), wv @ ind.T


def _assert_close(got, want, rtol=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(got - want)) <= rtol * scale


@pytest.mark.parametrize("dimension,depth", [(1, 4), (2, 3), (1, 8), (1, 9)])
def test_testing_images_match_leaf_matrix_reference(monkeypatch, rng, dimension, depth):
    """Both sides at r = 0..3, on one leaf block, on two (n=1 d=8) and on
    eight of 64 leaves (n=1 d=9); then again with a forward output measure
    that charges a single leaf: the constant is its only charged slot, and no
    rectangle is charged.  Last, with blocks of 4 leaves, so the block roots'
    levels are read in several pieces."""
    grid = build_grid(GridSpec(dimension, depth))
    blocks = grid.num_leaves // _kernels.block_rows(grid.num_leaves)
    assert blocks == {8: 2, 9: 8}.get(depth, 1)
    sigma = random_measure(grid, rng, zero_fraction=0.25)
    omega = random_measure(grid, rng, zero_fraction=0.25)
    assert np.any(sigma.masses == 0) and np.any(omega.masses == 0)
    point = np.zeros(grid.num_leaves)
    point[rng.integers(grid.num_leaves)] = 1.5
    point = LeafMeasure(grid, point)
    assert not basis(point).charged.any()
    for out in (omega, point):
        _check_both_sides(random_ewl(1, sigma, out, 5))
    monkeypatch.setattr(_kernels, "CHUNK_FLOATS", 4 * grid.num_leaves)
    _check_both_sides(random_ewl(1, sigma, omega, 5))


def _check_both_sides(t):
    grid = t.grid
    sides = [(t.w.T, t.sigma, t.omega, t.leaf_matrix()),  # forward
             (t.w, t.omega, t.sigma, t.adjoint().leaf_matrix())]  # adjoint: measures swapped
    for w, in_measure, out_measure, a in sides:
        restricted, glob, pairings = _reference_pass(a, grid, out_measure.masses)
        for r in range(4):
            offsets, partners = admissible_pairs(grid, r)
            boxes_e = np.repeat(np.arange(grid.num_boxes), np.diff(offsets))
            got = _output_stage(synthesize_leaf_blocks(in_measure, w), in_measure, out_measure,
                                offsets, partners)
            for g, want in zip(got, (restricted, glob, pairings[boxes_e, partners])):
                _assert_close(g, want)


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


@pytest.mark.parametrize("dimension,depth", [(1, 6), (2, 3), (3, 2), (2, 4)])
def test_ewl_radius_independent_of_block_size(monkeypatch, rng, dimension, depth):
    """ewl_radius and the testing pass's radius at 1 to 4 leaves per block and
    at the default block size, against the per-column reference; wl_radius
    at each block size as at the default one, and at 64 leaves (one default
    block) against the per-box reference."""
    grid = build_grid(GridSpec(dimension, depth))
    n = grid.num_leaves
    cases = []
    for radius in range(grid.tree_depth + 1):
        sigma = random_measure(grid, rng, zero_fraction=0.3)
        omega = random_measure(grid, rng, zero_fraction=0.3)
        w = np.zeros((n, n))
        w[rng.integers(0, n, 3), rng.integers(0, n, 3)] = rng.uniform(-1.0, 1.0, 3)
        for t in (random_ewl(radius, sigma, omega, radius), DyadicOperator(grid, sigma, omega, w)):
            cases.append((t, max(
                _per_column_side_radius(grid, t.w, t.sigma, t.omega, SUPPORT_TOL),
                _per_column_side_radius(grid, t.w.T, t.omega, t.sigma, SUPPORT_TOL))))
    wl_default = [wl_radius(t) for t, _ in cases]
    if n == 64:
        for (t, _), wl in zip(cases, wl_default):
            assert wl == min(r for r in range(1, grid.tree_depth + 2) if wl_check_loop(t, r))
    for chunk_floats in (n, 2 * n, 4 * n, _kernels.CHUNK_FLOATS):
        monkeypatch.setattr(_kernels, "CHUNK_FLOATS", chunk_floats)
        for (t, want), wl in zip(cases, wl_default):
            # each radius on a fresh copy: an operator reads its radii once
            assert ewl_radius(_fresh(t)) == want, (chunk_floats, t.family)
            assert testing.testing_report(t, norm=False).r_used == want, (chunk_floats, t.family)
            assert wl_radius(_fresh(t)) == wl, (chunk_floats, t.family)
            assert localization.radii(_fresh(t)) == (want, wl), (chunk_floats, t.family)


def _fresh(t):
    return DyadicOperator(t.grid, t.sigma, t.omega, t.w.copy(), family=t.family)


def _patch_everywhere(monkeypatch, module, name, wrap):
    """Replace module.name by wrap(name, original) in every twoweight module
    that holds it, the defining one and each that imported it by name."""
    original = getattr(module, name)
    for held in list(sys.modules.values()):
        if (held is not None and held.__name__.startswith("twoweight")
                and getattr(held, name, None) is original):
            monkeypatch.setattr(held, name, wrap(name, original))


@pytest.mark.parametrize("certify", [True, False])
def test_run_trial_synthesizes_each_side_once(monkeypatch, certify):
    """One testing pass per trial, two leaf-major input stages (one over the
    rows of W, one over its columns), no ewl_radius and no other synthesis
    outside the certificate."""
    calls = {"testing_report": [], "synthesize_leaf_blocks": [], "synthesize": 0,
             "ewl_radius": 0}
    in_certificate = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name == "testing_report":
                calls[name].append(kwargs.get("c3_next"))
            elif name == "synthesize_leaf_blocks":
                calls[name].append("rows" if args[1].flags.c_contiguous else "columns")
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
    for module, name in [(testing, "testing_report"), (haar, "synthesize_leaf_blocks"),
                         (haar, "synthesize"), (localization, "ewl_radius")]:
        _patch_everywhere(monkeypatch, module, name, counted)
    config = sweep.SweepConfig.from_dict({
        "dimension": 1, "depths": [4], "radii": [1], "trials": 2,
        "families": ["random_ewl", "haar_shift"], "measures": ["iid_uniform"], "seed": 3,
        "certificates": certify,
    })
    for index, d, r, fam, kind in config.trial_params():
        for key in calls:
            calls[key] = [] if isinstance(calls[key], list) else 0
        row, failures, cert = sweep.run_trial(config, index, d, r, fam, kind)
        assert not failures and (cert is not None) == certify
        assert calls == {"testing_report": [certify],
                         "synthesize_leaf_blocks": ["rows", "columns"],
                         "synthesize": 0, "ewl_radius": 0}


def test_classify_synthesizes_each_side_once(monkeypatch, tmp_path, capsys):
    """twoweight classify reads both radii from two leaf-major input stages,
    one over the rows of W and one over its columns, with no every-level
    synthesis besides."""
    grid = build_grid(GridSpec(1, 8))  # 256 leaves, several leaf blocks
    rng = np.random.default_rng(1708)
    t = random_ewl(2, random_measure(grid, rng, zero_fraction=0.2), random_measure(grid, rng), 9)
    path = tmp_path / "op.json"
    serialize.dump_json(path, serialize.operator_to_dict(t))
    calls = {"synthesize_leaf_blocks": [], "synthesize_boxes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name == "synthesize_leaf_blocks":
                calls[name].append("rows" if args[1].flags.c_contiguous else "columns")
            else:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    _patch_everywhere(monkeypatch, haar, "synthesize_leaf_blocks", counted)
    _patch_everywhere(monkeypatch, _kernels, "synthesize_boxes", counted)
    assert cli.main(["classify", "--operator", str(path)]) == 0
    assert sorted(calls["synthesize_leaf_blocks"]) == ["columns", "rows"]
    assert calls["synthesize_boxes"] == 0
    monkeypatch.undo()
    radii = list(range(wl_radius(t), grid.tree_depth + 1))
    assert capsys.readouterr().out.splitlines()[2:] == [
        f"ewl_radius: {ewl_radius(t)}", f"well-localized radii: {radii}"]


def _multi_block_operators():
    """Operators on grids of 256 to 1024 leaves, several leaf blocks each."""
    rng = np.random.default_rng(1409)
    for n, d in [(1, 8), (1, 9), (1, 10), (2, 4), (2, 5)]:
        grid = build_grid(GridSpec(n, d))
        sigma = random_measure(grid, rng, zero_fraction=0.2 if d == 9 else 0.0)
        omega = random_measure(grid, rng)
        for r in range(3):
            yield random_ewl(r, sigma, omega, int(rng.integers(1 << 30)))
        b = CoefficientSequence.random(grid, rng)
        yield paraproduct(b, sigma, omega)
        yield martingale_transform(b, sigma, omega)
        if n == 1:
            yield haar_shift(b, sigma, omega)
        if grid.num_leaves == 256:
            a = rng.standard_normal((grid.num_leaves, grid.num_leaves))
            yield from_leaf_matrix(grid, sigma, omega, a)


# sha256 of every report (c3_next on) and EWL radius of _multi_block_operators,
# recorded from the coefficient-space testing pass: Parseval sums of the
# output coefficients and root-path box values, with no output-side synthesis.
MULTI_BLOCK_SHA256 = "22f3bf7b00d378e09cf815084fb86318156d76cae9b58eb3dbb4eef139feb7aa"


def test_testing_pass_multi_block_output_unchanged():
    digest = hashlib.sha256()
    for t in _multi_block_operators():
        assert _kernels.block_rows(t.grid.num_leaves) < t.grid.num_leaves  # several blocks
        doc = {"report": testing.testing_report(t, c3_next=True).as_dict(),
               "ewl_radius": ewl_radius(t)}
        digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == MULTI_BLOCK_SHA256


@pytest.mark.parametrize("dimension,depth,columns", [(1, 0, 3), (1, 5, 32), (1, 8, 256),
                                                     (2, 5, 1024), (1, 9, 40)])
def test_synthesize_leaf_blocks_bit_equal_to_synthesize(rng, dimension, depth, columns):
    grid = build_grid(GridSpec(dimension, depth))
    mu = random_measure(grid, rng, zero_fraction=0.25)
    n = grid.num_leaves
    coef = rng.standard_normal((columns, n))
    coef[:, rng.random(n) < 0.2] = 0.0
    want = synthesize(mu, coef).T
    for x in (np.ascontiguousarray(coef.T), coef.T):  # rows read in place or strided
        streamed = [(a, block.copy()) for a, block in synthesize_leaf_blocks(mu, x)]
        out = np.full((n, columns), np.nan)
        filled = list(synthesize_leaf_blocks(mu, x, out))
        rows = _kernels.block_rows(n)
        assert [a for a, _ in streamed] == [a for a, _ in filled] == list(range(0, n, rows))
        assert all(block.base is out for _, block in filled)
        got = np.concatenate([block for _, block in streamed])
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(out, want) and np.array_equal(np.signbit(out), np.signbit(want))
