"""Grid addressing, split rectangles and the nesting trichotomy, checked by
brute force over leaf sets."""

from fractions import Fraction

import numpy as np
import pytest

from twoweight import (
    DyadicCube,
    GridSpec,
    HaarRectangle,
    ancestor_rectangle,
    build_grid,
    split_rectangles,
)
from twoweight.exceptions import GridSizeError, ScaleError


@pytest.mark.parametrize("n,d,leaves", [(1, 0, 1), (1, 3, 8), (2, 2, 16), (3, 2, 64)])
def test_leaf_counts(n, d, leaves):
    assert build_grid(GridSpec(n, d)).num_leaves == leaves


def test_leaf_cap():
    with pytest.raises(GridSizeError):
        build_grid(GridSpec(1, 21))  # 2^21 leaves, above DEFAULT_LEAF_CAP


def test_rectangle_count_matches_level_sum():
    # sum over scales of 2^{nk} (2^n - 1) cubes-times-rectangles = 2^{nd} - 1
    for n, d in [(1, 4), (2, 3), (3, 2)]:
        grid = build_grid(GridSpec(n, d))
        expected = sum(2 ** (n * k) * (2**n - 1) for k in range(d))
        assert len(grid.rectangles()) == expected == grid.num_leaves - 1


def leaf_set(rect):
    s = rect.leaf_slice()
    return set(range(s.start, s.stop))


def test_split_rectangles_1d():
    grid = build_grid(GridSpec(1, 3))
    root = DyadicCube(grid, 0, (0,))
    rects = split_rectangles(root)
    assert len(rects) == 1
    e1, e2 = rects[0].halves()
    # left and right halves of the interval
    assert e1.box() == [(Fraction(0), Fraction(1, 2))]
    assert e2.box() == [(Fraction(1, 2), Fraction(1))]


def test_split_rectangles_2d_structure():
    grid = build_grid(GridSpec(2, 2))
    square = DyadicCube(grid, 0, (0, 0))
    rects = split_rectangles(square)
    assert len(rects) == 3
    first = rects[0]
    assert leaf_set(first) == leaf_set(square.as_rectangle())
    e1, e2 = first.halves()
    # vertical slabs: full in axis 1, halves in axis 0
    assert e1.box() == [(Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1))]
    assert e2.box() == [(Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(1))]
    # the slabs split horizontally into dyadic children of the square
    for slab in rects[1:]:
        lo, hi = slab.halves()
        for child in (lo, hi):
            assert child.tree_depth == 2
            assert grid.is_cube(child.heap)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_volume_level_formula(n):
    grid = build_grid(GridSpec(n, 2))
    cube = DyadicCube(grid, 0, (0,) * n)
    rects = split_rectangles(cube)
    for rect in rects:
        i = rect.local_index
        level = i.bit_length()  # floor(log2 i) + 1
        assert rect.volume == pytest.approx(2.0 ** -(level - 1))
    if n == 3:
        assert sorted(r.volume for r in rects) == [0.25] * 4 + [0.5] * 2 + [1.0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nesting_trichotomy_brute_force(n):
    """Equal halves, nonempty, and the containment trichotomy for every pair
    of rectangles over the same base cube."""
    grid = build_grid(GridSpec(n, 2))
    for scale in range(2):
        for flat in range(2 ** (n * scale)):
            index = []
            rest = flat
            for _ in range(n):
                index.append(rest % (1 << scale))
                rest //= 1 << scale
            cube = DyadicCube(grid, scale, tuple(index))
            rects = split_rectangles(cube)
            sets = {}
            for rect in rects:
                e1, e2 = rect.halves()
                s1, s2 = leaf_set(e1), leaf_set(e2)
                assert len(s1) == len(s2) > 0
                assert s1.isdisjoint(s2)
                sets[rect.local_index] = s1 | s2
            for i, si in sets.items():
                for j, sj in sets.items():
                    if i == j:
                        continue
                    relations = [si <= sj, sj <= si, si.isdisjoint(sj)]
                    assert sum(relations) >= 1
            # level identity: each level's rectangles tile the cube
            full = leaf_set(cube.as_rectangle())
            for k in range(1, n + 1):
                level_sets = [sets[i] for i in range(1 << (k - 1), 1 << k)]
                assert set().union(*level_sets) == full
                assert sum(len(s) for s in level_sets) == len(full)


def test_split_leaf_scale_raises():
    grid = build_grid(GridSpec(1, 2))
    with pytest.raises(ScaleError):
        split_rectangles(DyadicCube(grid, 2, (0,)))
    with pytest.raises(ScaleError):
        HaarRectangle(grid, grid.num_leaves).halves()


def test_ancestor_identity_and_parents():
    grid = build_grid(GridSpec(2, 2))
    square = DyadicCube(grid, 0, (0, 0))
    rects = split_rectangles(square)
    e = rects[1]  # E_{F,2}
    assert ancestor_rectangle(e, 0).heap == e.heap
    assert ancestor_rectangle(e, 1).heap == rects[0].heap  # heap parent is E_{F,1}


def test_ancestor_volume_containment_composition():
    grid = build_grid(GridSpec(1, 4))
    rng = np.random.default_rng(0)
    for heap in rng.integers(1, grid.num_boxes, size=40):
        rect = HaarRectangle(grid, int(heap))
        for r in range(5):
            anc = ancestor_rectangle(rect, r)
            assert leaf_set(rect) <= leaf_set(anc)
            if r <= rect.tree_depth:  # no clipping
                assert anc.volume == pytest.approx(2.0**r * rect.volume)
                for a in range(r + 1):
                    twice = ancestor_rectangle(ancestor_rectangle(rect, a), r - a)
                    assert twice.heap == anc.heap
            else:  # clipped at the root cube
                assert anc.heap == 1


def test_ancestor_unique_double_volume_container_1d():
    # brute-force: the ancestor is the only box of double volume containing E
    grid = build_grid(GridSpec(1, 3))
    for heap in range(2, grid.num_boxes):
        rect = HaarRectangle(grid, heap)
        anc = ancestor_rectangle(rect, 1)
        containers = [
            h for h in range(1, grid.num_boxes)
            if grid.box_depth[h] == rect.tree_depth - 1
            and leaf_set(rect) <= leaf_set(HaarRectangle(grid, h))
        ]
        assert containers == [anc.heap]


def test_morton_lex_inverse():
    for n, d in [(1, 4), (2, 3), (3, 2)]:
        grid = build_grid(GridSpec(n, d))
        assert np.array_equal(grid.morton_to_lex[grid.lex_to_morton],
                              np.arange(grid.num_leaves))


def test_cube_roundtrip_and_local_index():
    grid = build_grid(GridSpec(2, 3))
    cube = DyadicCube(grid, 2, (1, 3))
    rect = cube.as_rectangle()
    assert rect.local_index == 1
    assert rect.base == cube
    assert grid.is_cube(rect.heap)
    deeper = split_rectangles(cube)[2]
    assert deeper.base == cube
    assert deeper.local_index == 3


def test_exact_geometry_with_shifted_root():
    spec = GridSpec(1, 2, origin=(Fraction(-1, 2),), side=Fraction(2))
    grid = build_grid(spec)
    rect = HaarRectangle(grid, 2)  # left half of the root
    assert rect.box() == [(Fraction(-1, 2), Fraction(1, 2))]
    assert rect.volume == pytest.approx(1.0)


def geometric_leaf_sets(grid):
    """Per heap box, the leaves whose centers lie in its exact box() intervals:
    no leaf range or heap shift involved."""
    centers = [tuple(Fraction(x) for x in c) for c in grid.leaf_centers]
    sets = [frozenset()]
    for h in range(1, grid.num_boxes):
        box = grid.box(h)
        sets.append(frozenset(i for i, c in enumerate(centers)
                              if all(lo <= x < hi for x, (lo, hi) in zip(c, box))))
    return sets


@pytest.mark.parametrize("n,d", [(1, 4), (2, 2), (3, 1)])
def test_tree_relations_brute_force(n, d):
    grid = build_grid(GridSpec(n, d))
    leaves = geometric_leaf_sets(grid)
    boxes = range(1, grid.num_boxes)
    depth = {h: grid.tree_depth - (len(leaves[h]).bit_length() - 1) for h in boxes}
    contains = np.zeros((grid.num_boxes,) * 2, dtype=bool)
    meets = np.zeros_like(contains)
    lca = np.zeros(contains.shape, dtype=np.int64)
    for a in boxes:
        for b in boxes:
            contains[a, b] = leaves[b] <= leaves[a]
            meets[a, b] = bool(leaves[a] & leaves[b])
            lca[a, b] = max(depth[c] for c in boxes if leaves[a] | leaves[b] <= leaves[c])
    ancestor = {}
    for h in boxes:
        for r in range(grid.tree_depth + 2):
            m = max(depth[h] - r, 0)
            (ancestor[h, r],) = [c for c in boxes if depth[c] == m and leaves[h] <= leaves[c]]

    for a in boxes:  # scalar arguments
        for r in range(grid.tree_depth + 2):
            assert grid.ancestor(a, r) == ancestor[a, r]
        for b in boxes:
            assert grid.contains(a, b) == contains[a, b]
            assert grid.meets(a, b) == meets[a, b]
            assert grid.lca_depth(a, b) == lca[a, b]
    h = np.arange(1, grid.num_boxes)  # array arguments, broadcast
    rs = np.arange(grid.tree_depth + 2)
    want = [[ancestor[a, r] for r in rs] for a in h]
    assert np.array_equal(grid.ancestor(h[:, None], rs), want)
    assert np.array_equal(grid.contains(h[:, None], h), contains[1:, 1:])
    assert np.array_equal(grid.meets(h[:, None], h), meets[1:, 1:])
    assert np.array_equal(grid.lca_depth(h[:, None], h), lca[1:, 1:])
