"""The batched testing pass and ewl_radius against direct references."""

import hashlib
import inspect
import json
import sys

import numpy as np
import pytest

import twoweight.certificates as certificates
import twoweight.sweep as sweep
from twoweight import GridSpec, LeafMeasure, _kernels, build_grid, cli, haar, localization, serialize, testing
from twoweight.haar import basis, synthesize
from twoweight.localization import SUPPORT_TOL, WL_RTOL, SupportGap, ewl_radius, wl_radius
from twoweight.operators import (
    CoefficientSequence,
    DyadicOperator,
    from_leaf_matrix,
    haar_shift,
    martingale_transform,
    paraproduct,
    random_ewl,
)
from twoweight.testing import _held_stage, _output_stage, admissible_pairs

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
    four of 128 leaves (n=1 d=9); then again with a forward output measure
    that charges a single leaf: the constant is its only charged slot, and no
    rectangle is charged.  Last, with blocks of 4 leaves, so the block roots'
    levels are read in several pieces."""
    grid = build_grid(GridSpec(dimension, depth))
    blocks = grid.num_leaves // _kernels.block_rows(grid.num_leaves)
    assert blocks == {8: 2, 9: 4}.get(depth, 1)
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
    sides = [(True, t.sigma, t.omega, t.leaf_matrix()),  # forward: W.T over sigma
             (False, t.omega, t.sigma, t.adjoint().leaf_matrix())]  # adjoint: measures swapped
    for transpose, in_measure, out_measure, a in sides:
        restricted, glob, pairings = _reference_pass(a, grid, out_measure.masses)
        for r in range(4):
            offsets, partners = admissible_pairs(grid, r)
            boxes_e = np.repeat(np.arange(grid.num_boxes), np.diff(offsets))
            stage = _held_stage(t, transpose, SupportGap(out_measure, in_measure, t.frobenius()))
            got = _output_stage(stage, in_measure, out_measure, offsets, partners)
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


def _per_column_side_radius(grid, w, in_measure, out_measure, fro):
    """Each charged column's support radius, support above SUPPORT_TOL times
    the value of a constant of L^2(out_measure) norm fro."""
    tol = SUPPORT_TOL * fro / np.sqrt(out_measure.total)
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
            _per_column_side_radius(grid, t.w, t.sigma, t.omega, t.frobenius()),
            _per_column_side_radius(grid, t.w.T, t.omega, t.sigma, t.frobenius()),
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
                _per_column_side_radius(grid, t.w, t.sigma, t.omega, t.frobenius()),
                _per_column_side_radius(grid, t.w.T, t.omega, t.sigma, t.frobenius()))))
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


def test_benchmark_entry_points():
    """The benchmark's per-layer counters read testing_images' argument 7
    (lo, one entry per heap slot) and argument 10 (pair_partner), its
    environment record reads HAVE_NUMBA, and its workloads and spans call
    these functions by name."""
    params = list(inspect.signature(_kernels.testing_images).parameters)
    assert params[7] == "lo" and params[10] == "pair_partner"
    assert _kernels.HAVE_NUMBA is False
    for fn in (localization.ewl_radius, localization.wl_check, haar.synthesize):
        assert callable(fn)


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


def _axis_reader(monkeypatch):
    """axis_read(args): which axis of W a synthesize_levels(factor, nz, held)
    call reads, told by the nonzero list nz, which DyadicOperator.nonzeros
    hands out: W's rows (W's own list) or its columns (W.T's)."""
    listed = {}
    nonzeros = DyadicOperator.nonzeros

    def recorded(t, transpose=False):
        nz = nonzeros(t, transpose)
        listed[id(nz)] = "columns" if transpose else "rows"
        return nz

    monkeypatch.setattr(DyadicOperator, "nonzeros", recorded)
    return lambda args: listed[id(args[1])]


@pytest.mark.parametrize("certify", [True, False])
def test_run_trial_synthesizes_each_side_once(monkeypatch, certify):
    """One testing pass per trial, two input stages (one over the rows of W,
    one over its columns), no ewl_radius and no other synthesis outside the
    certificate; one scan of W for its nonzeros, and in the certificate one
    of the adjoint's W."""
    calls = {"testing_report": [], "synthesize_levels": [], "synthesize": 0,
             "ewl_radius": 0, "nonzeros": 0}
    in_certificate = []
    axis_read = _axis_reader(monkeypatch)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name == "testing_report":
                calls[name].append(kwargs.get("c3_next"))
            elif name == "synthesize_levels":
                calls[name].append(axis_read(args))
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
    for module, name in [(testing, "testing_report"), (_kernels, "synthesize_levels"),
                         (haar, "synthesize"), (localization, "ewl_radius"),
                         (_kernels, "nonzeros")]:
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
                         "synthesize_levels": ["rows", "columns"],
                         "synthesize": 0, "ewl_radius": 0, "nonzeros": 1 + certify}


def test_classify_synthesizes_each_side_once(monkeypatch, tmp_path, capsys):
    """twoweight classify reads both radii from two input stages, one over
    the rows of W and one over its columns, with no every-level synthesis
    besides, from one scan of W for its nonzeros."""
    grid = build_grid(GridSpec(1, 8))  # 256 leaves, several leaf blocks
    rng = np.random.default_rng(1708)
    t = random_ewl(2, random_measure(grid, rng, zero_fraction=0.2), random_measure(grid, rng), 9)
    path = tmp_path / "op.json"
    serialize.dump_json(path, serialize.operator_to_dict(t))
    calls = {"synthesize_levels": [], "synthesize_boxes": 0, "nonzeros": 0}
    axis_read = _axis_reader(monkeypatch)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name == "synthesize_levels":
                calls[name].append(axis_read(args))
            else:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    _patch_everywhere(monkeypatch, _kernels, "synthesize_levels", counted)
    _patch_everywhere(monkeypatch, _kernels, "synthesize_boxes", counted)
    _patch_everywhere(monkeypatch, _kernels, "nonzeros", counted)
    assert cli.main(["classify", "--operator", str(path)]) == 0
    assert sorted(calls["synthesize_levels"]) == ["columns", "rows"]
    assert calls["synthesize_boxes"] == 0 and calls["nonzeros"] == 1
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
# recorded from the box-value testing pass: Parseval sums and root-path sums
# of sigma(B) times box B's synthesized value, with no sum over leaves, the
# leaf norms read off the leaf steps and each pairing one step off its
# partner's parent (added in order, where np.sum adds 8 or more terms
# pairwise).
MULTI_BLOCK_SHA256 = "2a60eeaa1b4813cefc364b3de05d52613c8a51d49a3905142f3b5fb681bccbc1"


def test_testing_pass_multi_block_output_unchanged(monkeypatch):
    """The digest holds, and the reports, ewl_radius, wl_radius and radii
    agree, under the default block rule, the rule of 1 << 15 floats a block
    with no row cap (64 and 32 rows at 512 and 1024 leaves) and 4-leaf
    blocks."""
    operators = list(_multi_block_operators())
    for t in operators:
        assert _kernels.block_rows(t.grid.num_leaves) < t.grid.num_leaves  # several blocks
    rules = [(_kernels.CHUNK_FLOATS, _kernels.MAX_BLOCK_ROWS), (1 << 15, 1 << 30),
             (_kernels.CHUNK_FLOATS, 4)]
    results = []
    for chunk_floats, max_rows in rules:
        monkeypatch.setattr(_kernels, "CHUNK_FLOATS", chunk_floats)
        monkeypatch.setattr(_kernels, "MAX_BLOCK_ROWS", max_rows)
        digest = hashlib.sha256()
        seen = [[_kernels.block_rows(1 << d) for d in (8, 9, 10)]]
        for t in operators:
            doc = {"report": testing.testing_report(t, c3_next=True).as_dict(),
                   "ewl_radius": ewl_radius(_fresh(t))}
            digest.update(json.dumps(doc, sort_keys=True).encode())
            seen.append((doc, wl_radius(_fresh(t)), localization.radii(_fresh(t))))
        assert digest.hexdigest() == MULTI_BLOCK_SHA256, (chunk_floats, max_rows)
        results.append(seen)
    assert [seen[0] for seen in results] == [[128, 128, 128], [128, 64, 32], [4, 4, 4]]
    assert results[1][1:] == results[0][1:] and results[2][1:] == results[0][1:]


@pytest.mark.parametrize("dimension,depth,columns", [(1, 0, 3), (1, 1, 4), (1, 5, 32),
                                                     (1, 8, 256), (2, 5, 1024), (1, 9, 40)])
def test_synthesize_levels_bit_equal_to_synthesize_boxes(monkeypatch, rng, dimension, depth,
                                                          columns):
    """synthesize_levels returns nothing and leaves every internal box's row
    in held, equal to synthesize_boxes bit for bit, sign of zero included;
    then the leaf steps cover the last internal level in order, and the leaf values formed from them (a
    parent's row, plus 0.0 on an upper half, and the listed children) equal
    synthesize_boxes' leaves, sign of zero included.  At the default block
    size, at 4 leaves a block and at one (CHUNK_FLOATS = N).  The
    coefficients: a draw with zero slots and scattered -0.0 entries, whose
    first half of columns are signed zeros only (-0.0 coefficients under -0.0
    parent rows, and +0.0 ones); all zeros; a single nonzero.  The nonzeros
    of the strided view coef.T are those of coef, transposed."""
    grid = build_grid(GridSpec(dimension, depth))
    mu = random_measure(grid, rng, zero_fraction=0.25)
    n = grid.num_leaves
    b = basis(mu)
    drawn = rng.standard_normal((columns, n))
    drawn[:, rng.random(n) < 0.2] = 0.0
    drawn[rng.random(drawn.shape) < 0.2] = -0.0
    drawn[: columns // 2] = np.where(rng.random((columns // 2, n)) < 0.5, -0.0, 0.0)
    single = np.zeros((columns, n))
    single[rng.integers(columns), rng.integers(n)] = rng.standard_normal()
    for coef in (drawn, np.zeros((columns, n)), single):
        want = _kernels.synthesize_boxes(b.alpha, b.beta, coef, b.inv_sqrt_total).T  # (2N, M)
        nz = _kernels.nonzeros(coef.T)
        for got_list, want_list in zip(_kernels.transpose_nonzeros(_kernels.nonzeros(coef)), nz):
            assert np.array_equal(got_list, want_list)
            assert np.array_equal(np.signbit(got_list), np.signbit(want_list))
        assert len(nz[0]) == np.count_nonzero(np.signbit(coef) | (coef != 0))
        for chunk_floats, max_rows in [(_kernels.CHUNK_FLOATS, _kernels.MAX_BLOCK_ROWS),
                                       (_kernels.CHUNK_FLOATS, 4), (n, _kernels.MAX_BLOCK_ROWS)]:
            with monkeypatch.context() as patched:
                patched.setattr(_kernels, "CHUNK_FLOATS", chunk_floats)
                patched.setattr(_kernels, "MAX_BLOCK_ROWS", max_rows)
                rows = _kernels.block_rows(n)
                held = np.full((n, columns), np.nan)
                got = np.full_like(want, np.nan)
                assert _kernels.synthesize_levels(b.factor, nz, held) is None
                got[1:n] = held[1:]
                parents = []
                for step in _kernels.leaf_steps(b.factor, nz, held):
                    k = len(step.mag)
                    assert k <= rows and step.at.dtype == np.intp
                    parents.extend(range(step.p0, step.p0 + k))
                    top = held[step.p0 : step.p0 + k] if n > 1 else np.full((1, columns), -0.0)
                    mag = np.abs(top)
                    mag[step.at, step.cols] = 0.0
                    assert np.array_equal(step.mag, mag)
                    leaves = np.repeat(top, 2, axis=0)
                    leaves[1::2] += 0.0
                    for half in (0, 1):
                        leaves[2 * step.at + half, step.cols] = step.children[:, half]
                    got[2 * step.p0 : 2 * (step.p0 + k)][-n:] = leaves[-n:]  # heap 0 is no box
            assert rows == 1 or chunk_floats != n
            assert parents == list(range(n // 2, n))
            assert np.array_equal(got[1:], want[1:])
            assert np.array_equal(np.signbit(got[1:]), np.signbit(want[1:]))
            assert np.array_equal(held[1:], want[1:n])
            assert np.array_equal(np.signbit(held[1:]), np.signbit(want[1:n]))


# The leaf-block walk the leaf steps replaced, kept as their reference: the
# leaf rows built whole from the last held level, block_rows(N) leaves at a
# time, and the support gap, the leaf norms and the vanishing test read from
# them.

def _leaf_blocks(factor, nz, held):
    """(heap0, rows): the leaf rows heap0 .. heap0 + len(rows) - 1 of the
    stage whose internal rows held holds, synthesize_boxes' leaves."""
    slots, cols, vals = nz
    n, m = held.shape
    top = held if n > 1 else np.full((1, m), -0.0)
    size = _kernels.block_rows(n)
    for a in range(n, 2 * n, size):
        heaps = np.arange(a, min(a + size, 2 * n))
        block = top[heaps >> 1] + np.where(heaps & 1, 0.0, -0.0)[:, None]
        for half in (0, 1):
            h = 2 * slots.astype(np.int64) + half
            at = np.flatnonzero((h >= a) & (h < a + len(block)))
            block[h[at] - a, cols[at]] = top[slots[at], cols[at]] + factor[h[at]] * vals[at]
        yield a, block


def _scan_blocks(gap, charged, blocks):
    """gap's first and last support leaves from leaf rows (the leaf-block
    scan SupportGap ran), charged the leaf measure's charged leaves."""
    n = len(gap.first)
    for heap0, block in blocks:
        a, rows = heap0 - n, block.shape[0]
        supp = (np.abs(block) > gap.tol) & charged[a : a + rows, None]
        hs = np.flatnonzero(supp.any(axis=0) & gap.rects)
        sub = supp[:, hs]
        gap.first[hs] = np.minimum(gap.first[hs], a + np.argmax(sub, axis=0))
        gap.last[hs] = np.maximum(gap.last[hs], a + rows - 1 - np.argmax(sub[::-1], axis=0))
    return gap


def _vanishing_from_rows(levels, in_measure, out_measure, fro):
    """_vanishing_radius over whole rows of every level, leaves included."""
    grid = in_measure.grid
    depth = grid.box_depth
    rect = np.flatnonzero(basis(out_measure).charged)
    first = np.searchsorted(depth[rect], np.arange(grid.tree_depth + 1) - 1)
    mass = in_measure.box_mass
    out_tol = WL_RTOL * fro * np.sqrt(out_measure.box_mass[rect])
    worst = 0
    for heap0, rows in levels:
        k = first[depth[heap0]]
        at = slice(heap0, heap0 + len(rows))
        qi, ri = np.nonzero(np.abs(rows[:, rect[k:]] * mass[at, None])
                            > np.sqrt(mass)[at, None] * out_tol[k:])
        q, r = heap0 + qi, rect[k + ri]
        need = np.maximum(depth[q] - grid.lca_depth(r, q),
                          np.where(grid.contains(q, r), 0, depth[r] - depth[q] + 1))
        worst = max(worst, int(need.max(initial=0)))
    return worst


def _block_side(t, transpose):
    """One input stage read through leaf blocks: (gap, leaf norms, vanishing radius)."""
    nz, held, factor, in_m, out_m = localization.input_stage(t, transpose)
    levels = [(h, held[h : 2 * h]) for h in 1 << np.arange(t.grid.tree_depth)]
    blocks = list(_leaf_blocks(factor, nz, held))
    gap = _scan_blocks(SupportGap(out_m, in_m, t.frobenius()), in_m.charged_leaves(), blocks)
    leaf_sq = np.concatenate([np.einsum("ij,ij->i", rows, rows) for _, rows in blocks])
    return gap, leaf_sq, _vanishing_from_rows(levels + blocks, in_m, out_m, t.frobenius())


def _crafted_gap_operators(rng):
    """On 64 leaves, fully charged: W's column 3 holds a constant and, at the
    first last-level rectangle, the entry whose lower child cancels its
    parent, so the first support leaf is 1; column 5 does it at the last
    one's upper child, so the last support leaf is 62.  Returns the operator
    and those (column, first, last)."""
    grid = build_grid(GridSpec(1, 6))
    n = grid.num_leaves
    sigma, omega = random_measure(grid, rng), random_measure(grid, rng)
    b = basis(omega)
    w = np.zeros((n, n))
    x = 0.7 * b.inv_sqrt_total  # the column's value on every box above leaf scale
    w[0, [3, 5]] = 0.7
    w[n // 2, 3] = x / b.beta[n // 2]
    w[n - 1, 5] = -x / b.alpha[n - 1]
    return DyadicOperator(grid, sigma, omega, w), [(3, 1, n - 1), (5, 0, n - 2)]


def _leaf_step_cases():
    """_multi_block_operators, then grids of 1, 2 and 4 leaves, a measure
    charging one leaf, and columns whose coefficients are -0.0 only."""
    yield from _multi_block_operators()
    rng = np.random.default_rng(2404)
    for depth in (0, 1, 2):
        grid = build_grid(GridSpec(1, depth))
        sigma, omega = random_measure(grid, rng), random_measure(grid, rng, zero_fraction=0.3)
        for r in range(2):
            yield random_ewl(r, sigma, omega, 7 + r)
        yield DyadicOperator(grid, sigma, omega, rng.standard_normal((grid.num_leaves,) * 2))
    grid = build_grid(GridSpec(1, 5))
    point = np.zeros(grid.num_leaves)
    point[rng.integers(grid.num_leaves)] = 2.0
    yield random_ewl(1, random_measure(grid, rng), LeafMeasure(grid, point), 3)
    yield random_ewl(1, LeafMeasure(grid, point), random_measure(grid, rng), 3)
    sigma, omega = random_measure(grid, rng), random_measure(grid, rng)
    w = rng.standard_normal((grid.num_leaves,) * 2)
    w[:, :8] = -0.0
    w[rng.random(w.shape) < 0.3] = -0.0
    yield DyadicOperator(grid, sigma, omega, w)


def test_leaf_steps_match_leaf_blocks(monkeypatch):
    """The leaf steps against the leaf-block walk: equal SupportGap first and
    last, ewl_radius, wl_radius and radii, and leaf norms within 1e-15, per
    side, under the three block rules of the multi-block test, on the
    operators of _leaf_step_cases; and on a crafted column whose first (last)
    support leaf is an upper (lower) child whose charged sibling cancels."""
    cases = list(_leaf_step_cases())
    crafted, expected = _crafted_gap_operators(np.random.default_rng(24))
    for chunk_floats, max_rows in [(_kernels.CHUNK_FLOATS, _kernels.MAX_BLOCK_ROWS),
                                   (1 << 15, 1 << 30), (_kernels.CHUNK_FLOATS, 4)]:
        monkeypatch.setattr(_kernels, "CHUNK_FLOATS", chunk_floats)
        monkeypatch.setattr(_kernels, "MAX_BLOCK_ROWS", max_rows)
        for t in [*cases, crafted]:
            ewl, wl = 0, 1
            for transpose in (True, False):
                want_gap, want_sq, want_wl = _block_side(t, transpose)
                in_m, out_m = (t.sigma, t.omega) if transpose else (t.omega, t.sigma)
                gap = SupportGap(out_m, in_m, t.frobenius())
                stage = _held_stage(t, transpose, gap)
                assert np.array_equal(gap.first, want_gap.first)
                assert np.array_equal(gap.last, want_gap.last)
                assert np.all(np.abs(stage.leaf_sq - want_sq) <= 1e-15 * want_sq)
                ewl, wl = max(ewl, want_gap.value), max(wl, want_wl)
            assert ewl_radius(_fresh(t)) == ewl and wl_radius(_fresh(t)) == wl
            assert localization.radii(_fresh(t)) == (ewl, wl)
        gap = SupportGap(crafted.sigma, crafted.omega, crafted.frobenius())
        _held_stage(crafted, False, gap)
        for column, first, last in expected:
            assert (gap.first[column], gap.last[column]) == (first, last)


def test_mask_uncharged_keeps_signed_zeros_at_charged_slots(rng):
    """Building an operator zeroes W at uncharged output rows and input
    columns to +0.0, and keeps every other entry bit for bit, -0.0 included;
    its nonzero list is a fresh scan of the masked W."""
    grid = build_grid(GridSpec(1, 5))
    sigma = random_measure(grid, rng, zero_fraction=0.3)
    omega = random_measure(grid, rng, zero_fraction=0.3)
    rows, cols = basis(omega).charged_slots(), basis(sigma).charged_slots()
    assert not rows.all() and not cols.all()
    w = rng.standard_normal((grid.num_leaves,) * 2)
    w[rng.random(w.shape) < 0.4] = -0.0
    t = DyadicOperator(grid, sigma, omega, w.copy())
    kept = np.ix_(rows, cols)
    assert np.array_equal(t.w[kept].view(np.int64), w[kept].view(np.int64))
    assert np.signbit(t.w[kept]).any()
    masked = ~(rows[:, None] & cols[None, :])
    assert not t.w[masked].view(np.int64).any()  # +0.0, not -0.0
    for got, want in zip(t.nonzeros(), _kernels.nonzeros(t.w)):
        assert np.array_equal(got, want) and got.dtype == want.dtype


# The leaf-sum output stage the box-value pass replaced, kept as its
# reference: synthesize the leaf values of the input stage a leaf block at a
# time, scale them by the input leaf masses and add them up, box by box, to
# the output coefficients c_B of T(sigma 1_B).

def _leaf_walk(alpha, beta, coef, inv_sqrt_total, out):
    """synthesize(alpha, beta, coef.T, inv_sqrt_total).T in out, (a, out[a :
    a + block_rows(N)]) a leaf block at a time, depth first."""
    n, m = coef.shape
    rows = _kernels.block_rows(n)
    roots = n // rows
    top = roots.bit_length() - 1
    path = np.empty((top + 1, m))
    path[0] = coef[0] * inv_sqrt_total
    for i in range(roots):
        root = roots + i
        k0 = top + 1 - (i ^ (i - 1)).bit_length() if i else 1
        for k in range(k0, top + 1):
            h = root >> (top - k)
            p = h >> 1
            if h & 1:
                path[k] = path[k - 1] + alpha[p] * coef[p]
            else:
                path[k] = path[k - 1] - beta[p] * coef[p]
        a = i * rows
        block = out[a : a + rows]
        block[0] = path[top]
        step = rows
        while step > 1:
            hs = slice(root * rows // step, (root + 1) * rows // step)
            c = np.ascontiguousarray(coef[hs])
            parent = block[0::step]
            block[step >> 1 :: step] = parent + alpha[hs, None] * c
            parent -= beta[hs, None] * c
            step >>= 1
        yield a, block


def _level_sums(blocks, n):
    """(heap0, rows), rows[j] the sum of the leaf-major rows over box heap0 + j."""
    tops = None
    for a, rows in blocks:
        if tops is None:
            tops = np.empty((n // len(rows), rows.shape[1]))
        heap0, i = n + a, a // len(rows)
        while len(rows) > 1:
            yield heap0, rows
            rows[0::2] += rows[1::2]
            rows, heap0 = rows[0::2], heap0 >> 1
        tops[i] = rows[0]
    yield from _level_sums([(0, tops)], len(tops)) if len(tops) > 1 else [(1, tops)]


def _leaf_sum_images(blocks, in_mass, ob, box_mass, grid, pair_offsets, pair_partner):
    """restricted, glob and the pairings from the level sums c_B."""
    n, n2 = grid.num_leaves, grid.num_boxes
    depth = grid.box_depth
    factor = ob.factor
    in_order = np.zeros(n, dtype=np.int64)
    in_order[(grid.box_lo[1:n] + grid.box_hi[1:n]) // 2 - 1] = np.arange(1, n)
    restricted, glob, own = np.zeros(n2), np.zeros(n2), np.zeros(n2)
    pair_vals = np.empty(pair_partner.shape[0])
    stage = ((a, b * in_mass[a : a + len(b), None]) for a, b in blocks)
    for heap0, c in _level_sums(stage, n):
        k = len(c)
        boxes = np.arange(heap0, heap0 + k)
        glob[boxes] = np.einsum("ij,ij->i", c, c)
        j0 = heap0 - (1 << depth[heap0])
        sub = np.take_along_axis(c, in_order.reshape(-1, n >> depth[heap0])[j0 : j0 + k, :-1],
                                 axis=1)
        restricted[boxes] = np.einsum("ij,ij->i", sub, sub)
        start, stop = pair_offsets[heap0], pair_offsets[heap0 + k]
        at = np.concatenate((pair_partner[start:stop], boxes))
        row = np.concatenate((np.repeat(np.arange(k), np.diff(pair_offsets[heap0 : heap0 + k + 1])),
                              np.arange(k)))
        node = at[:, None] >> np.arange(int(depth.max()) + 1)
        val = (factor[node] * c[row[:, None], node >> 1]).sum(axis=1) * box_mass[at]
        pair_vals[start:stop] = val[: stop - start]
        own[boxes] = val[stop - start :]
    charged = box_mass > 0
    restricted[charged] += own[charged] ** 2 / box_mass[charged]
    return restricted, glob, pair_vals


def _leaf_sum_report(monkeypatch, t):
    """testing_report(t, c3_next=True) with the leaf-sum output stage."""
    n = t.grid.num_leaves

    def stage(t, transpose, gap):
        source, in_measure = (t.w.T, t.sigma) if transpose else (t.w, t.omega)
        b = basis(in_measure)
        out = np.empty((n, n))
        blocks = list(_leaf_walk(b.alpha, b.beta, source, b.inv_sqrt_total, out))
        _scan_blocks(gap, in_measure.charged_leaves(), ((n + a, block) for a, block in blocks))
        return out

    def output(out, in_measure, out_measure, pair_offsets, pair_partner):
        rows = _kernels.block_rows(n)
        blocks = [(a, out[a : a + rows]) for a in range(0, n, rows)]
        return _leaf_sum_images(blocks, in_measure.masses, basis(out_measure),
                                out_measure.box_mass, t.grid, pair_offsets, pair_partner)

    with monkeypatch.context() as patched:
        patched.setattr(testing, "_held_stage", stage)
        patched.setattr(testing, "_output_stage", output)
        return testing.testing_report(t, c3_next=True)


def _leaf_witness_operator():
    """A 256-leaf random_ewl operator whose c3 witness pairs a leaf box E with
    a box G other than E, of another depth."""
    grid = build_grid(GridSpec(1, 8))
    rng = np.random.default_rng(24)
    return random_ewl(2, random_measure(grid, rng), random_measure(grid, rng), 24)


def test_box_value_pass_matches_leaf_sums(monkeypatch):
    """Every constant of the box-value pass within 1e-13 of the leaf-sum
    pass, with the same radius and witnesses, on several leaf blocks and on
    a c3 witness read one recurrence step below the held rows."""
    t = _leaf_witness_operator()
    e, g = testing.testing_report(t, norm=False).witnesses["c3"]
    assert e >= t.grid.num_leaves and t.grid.box_depth[g] < t.grid.box_depth[e]
    for t in [*_multi_block_operators(), t]:
        got, want = testing.testing_report(t, c3_next=True), _leaf_sum_report(monkeypatch, t)
        assert got.r_used == want.r_used and got.witnesses == want.witnesses
        for name in ("norm", "c1", "c2", "c3", "c1_global", "c2_global", "c1_cube", "c2_cube",
                     "c3_cube", "c3_next", "ratio_sum", "ratio_max"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-13 * abs(getattr(want, name))
