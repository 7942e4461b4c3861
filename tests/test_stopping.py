"""Stopping families, packing constants, Carleson embedding threshold."""

import numpy as np

from twoweight import GridSpec, LeafMeasure, build_grid, indicator
from twoweight.stopping import EMBEDDING_LIMIT, build_stopping_family, embedding_ratios

from conftest import random_measure


def reference_family_members(g_values, omega):
    """Slow reference construction: recursive scan with explicit averages."""
    grid = omega.grid
    bm = omega.box_mass
    ints = np.zeros(grid.num_boxes)
    absg = np.abs(g_values) * omega.masses
    n = grid.num_leaves
    ints[n:] = absg
    for h in range(n - 1, 0, -1):
        ints[h] = ints[2 * h] + ints[2 * h + 1]

    def avg(h):
        return ints[h] / bm[h] if bm[h] > 0 else 0.0

    members = {1}

    def descend(s):
        threshold = 2 * avg(s)
        frontier = []

        def scan(b):
            if b >= grid.num_boxes or bm[b] == 0:
                return
            if avg(b) > threshold:
                frontier.append(b)
                return
            scan(2 * b)
            scan(2 * b + 1)

        if grid.box_depth[s] < grid.tree_depth:
            scan(2 * s)
            scan(2 * s + 1)
        for b in frontier:
            members.add(b)
            descend(b)

    descend(1)
    return members


def test_constant_g_trivial_family(rng):
    grid = build_grid(GridSpec(1, 3))
    omega = random_measure(grid, rng, low=0.1)
    fam = build_stopping_family(np.ones(grid.num_leaves), omega)
    assert list(fam.members) == [1]
    assert embedding_ratios(fam, np.ones(grid.num_leaves), omega)["absolute"] <= 1.0 + 1e-12


def test_indicator_g_chain_hand_check():
    # g = 1_E for a deep box, uniform omega: averages double along the chain
    grid = build_grid(GridSpec(1, 3))
    omega = LeafMeasure(grid, np.full(8, 0.125))
    e = 8  # leftmost leaf box
    g = indicator(grid, e).values
    fam = build_stopping_family(g, omega)
    # avg over box of depth m containing e is 2^m/8; stopping at >2x jumps:
    # root avg 1/8 -> first stop where avg > 1/4: depth 2 box (avg 1/2),
    # then its depth-3 child (avg 1 > 2*1/2 fails: 1 > 1 is false)... check
    # against the reference implementation instead of hand numbers
    assert set(map(int, fam.members)) == reference_family_members(g, omega)
    assert fam.packing_ok()


def stack_family(g_values, omega):
    """The stack construction: per member, a depth-first walk for its
    maximal stopping children.  Returns (members, children, stop_parent,
    abs_average) with abs_average keyed by member."""
    grid = omega.grid
    bm = omega.box_mass
    absint = np.zeros(grid.num_boxes)
    absint[grid.num_leaves:] = np.abs(g_values) * omega.masses
    for h in range(grid.num_leaves - 1, 0, -1):
        absint[h] = absint[2 * h] + absint[2 * h + 1]
    nd = grid.tree_depth

    def avg(h):
        return absint[h] / bm[h] if bm[h] > 0 else 0.0

    members = [1]
    children = {1: []}
    queue = [1]
    while queue:
        s = queue.pop()
        threshold = 2.0 * avg(s)
        stack = [2 * s, 2 * s + 1] if grid.box_depth[s] < nd else []
        kids = []
        while stack:
            b = stack.pop()
            if bm[b] == 0.0:
                continue
            if avg(b) > threshold:
                kids.append(b)
                continue  # maximality: do not descend below a stopping child
            if grid.box_depth[b] < nd:
                stack.extend((2 * b, 2 * b + 1))
        children[s] = sorted(kids)
        for k in kids:
            members.append(k)
            children[k] = []
            queue.append(k)
    members = sorted(members)
    stop_parent = np.zeros(grid.num_boxes, dtype=np.int64)
    stop_parent[1] = 1
    for h in range(2, grid.num_boxes):
        stop_parent[h] = h if h in children else stop_parent[h >> 1]
    return members, children, stop_parent, {s: avg(s) for s in members}


def packing_slack_loop(fam):
    """packing_slack from the children lists and a per-box subtree loop."""
    grid, bm = fam.grid, fam.omega.box_mass
    child_slack = -np.inf
    for s, kids in fam.children.items():
        if kids:
            child_slack = max(child_slack, sum(bm[k] for k in kids) - 0.5 * bm[s])
    if child_slack == -np.inf:
        child_slack = 0.0
    total = np.zeros(grid.num_boxes)
    total[fam.members] = bm[fam.members]
    for h in range(grid.num_boxes - 1, 1, -2):
        total[h >> 1] += total[h] + total[h - 1]
    ratios = [total[h] / bm[h] if bm[h] > 0 else 0.0 for h in range(1, grid.num_boxes)]
    return float(child_slack), float(max(ratios))


def test_family_matches_reference_and_packs(rng):
    for n, d, draws in [(1, 4, 100), (2, 2, 100), (1, 6, 25), (2, 3, 25)]:
        grid = build_grid(GridSpec(n, d))
        n_leaves = grid.num_leaves
        for draw in range(draws):
            if draw % 2:
                omega = random_measure(grid, rng, zero_fraction=0.2)
                g = rng.standard_normal(n_leaves) * np.exp(rng.normal(0, 2, n_leaves))
            else:  # equal masses and small integers: averages tie at exactly 2x
                omega = LeafMeasure(grid, 1.0 * (rng.random(n_leaves) > 0.2))
                g = rng.integers(0, 4, n_leaves).astype(float)
            if omega.total == 0:
                continue
            fam = build_stopping_family(g, omega)
            assert set(map(int, fam.members)) == reference_family_members(g, omega)
            members, children, stop_parent, averages = stack_family(g, omega)
            assert fam.members.tolist() == members
            assert fam.children == children
            assert np.array_equal(fam.stop_parent, stop_parent)
            assert {s: fam.abs_average[s] for s in members} == averages
            assert fam.packing_ok()
            child_slack, ratio = fam.packing_slack()
            assert (child_slack, ratio) == packing_slack_loop(fam)
            assert child_slack <= 1e-12 * max(omega.total, 1.0)
            assert ratio <= 2.0 + 1e-12


def test_stopping_inequality_strict(rng):
    grid = build_grid(GridSpec(1, 4))
    omega = random_measure(grid, rng, low=0.05)
    g = rng.standard_normal(grid.num_leaves) * np.exp(rng.normal(0, 2, grid.num_leaves))
    fam = build_stopping_family(g, omega)
    absg = np.abs(g) * omega.masses
    for s, kids in fam.children.items():
        for kid in kids:
            assert fam.abs_average[int(kid)] > 2 * fam.abs_average[int(s)]


def test_parent_of_is_minimal_member(rng):
    grid = build_grid(GridSpec(1, 4))
    omega = random_measure(grid, rng, low=0.05)
    g = rng.standard_normal(grid.num_leaves) * np.exp(rng.normal(0, 2, grid.num_leaves))
    fam = build_stopping_family(g, omega)
    members = set(map(int, fam.members))
    for h in range(1, grid.num_boxes):
        containing = [s for s in members if grid.contains(s, h)]
        minimal = min(containing, key=lambda s: -grid.box_depth[s])
        assert fam.parent_of(h) == minimal


def test_embedding_small_for_mean_zero_spike(rng):
    grid = build_grid(GridSpec(1, 4))
    omega = random_measure(grid, rng, low=0.2)
    from twoweight import HaarRectangle, weighted_haar

    g = weighted_haar(HaarRectangle(grid, 9), omega).values
    fam = build_stopping_family(g, omega)
    assert embedding_ratios(fam, g, omega)["absolute"] <= EMBEDDING_LIMIT


def test_embedding_lacunary_adversarial():
    from twoweight.sweep import generate_measure

    grid = build_grid(GridSpec(1, 8))
    rng = np.random.default_rng(3)
    omega = generate_measure("lacunary", grid, rng)
    for scale in (1.0, 7.3):
        g = scale / np.maximum(omega.masses, 1e-12) ** 0.5 * (omega.masses > 0)
        fam = build_stopping_family(g, omega)
        ratio = embedding_ratios(fam, g, omega)["absolute"]
        assert ratio <= EMBEDDING_LIMIT
        assert fam.packing_ok()


def test_embedding_threshold_exhaustive_small_depth():
    """Pre-validation of the ratio-8 threshold: exhaustive sign/magnitude
    grids at d <= 3 plus dyadically concentrated profiles."""
    worst = 0.0
    for d in (2, 3):
        grid = build_grid(GridSpec(1, d))
        n = grid.num_leaves
        uniform = LeafMeasure(grid, np.full(n, 1.0 / n))
        lac = LeafMeasure(grid, 2.0 ** -np.arange(1, n + 1))
        for omega in (uniform, lac):
            for pattern in range(4**n):
                levels = np.array([(pattern // 4**i) % 4 for i in range(n)], dtype=float)
                g = np.where(levels == 3, 8.0, levels)  # magnitudes 0,1,2,8
                if not np.any(g):
                    continue
                fam = build_stopping_family(g, omega)
                ratio = embedding_ratios(fam, g, omega)["absolute"]
                worst = max(worst, ratio)
                assert ratio <= EMBEDDING_LIMIT, (d, pattern)
    assert worst > 1.0  # the search is not vacuous


def test_zero_g_zero_ratio(rng):
    grid = build_grid(GridSpec(1, 3))
    omega = random_measure(grid, rng, low=0.1)
    fam = build_stopping_family(np.zeros(8), omega)
    ratios = embedding_ratios(fam, np.zeros(8), omega)
    assert ratios == {"absolute": 0.0, "signed": 0.0}
