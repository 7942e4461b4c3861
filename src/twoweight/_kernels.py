"""Hot numeric loops as level-sliced numpy transforms over the heap.

Arrays follow the heap layout used throughout the package: a full binary tree
over the 2^(n*d) leaves, heap index 1 = root box, children of H are 2H and
2H+1, leaves occupy [N, 2N).  Every transform is vectorized over the leading
(batch) axes, except synthesize_levels, which works along the leading axis
and is vectorized over the trailing one, and the readers of the rows it
holds (held_values, testing_images).
"""

from typing import NamedTuple

import numpy as np

HAVE_NUMBA = False  # no compiled kernels; the benchmark's environment record reads it

# Floats and rows per block: block_rows(N) = min(N, MAX_BLOCK_ROWS, CHUNK_FLOATS // N).
# testing_report(norm=False) in ms against 1 << 15 floats and no cap, one BLAS thread,
# 2 MB L2 per core: 256 leaves 4 (same blocks), 512 13-14 (was 16), 1024 43-44 (was
# 55), 2048 153-159 (was 146-211), 4096 559-586 (was 601-709).  With no cap 256
# leaves are one block and localization.radii runs 9-25% slower.
CHUNK_FLOATS = 1 << 17
MAX_BLOCK_ROWS = 128


def subtree_sums(heap):
    """Add into every heap slot the values of all the boxes below it, in place.

    heap: (..., 2N); afterwards heap[..., H] is the sum of the input over
    box H and its descendants, added one level of parents at a time from
    the leaves up.  Slot 0 is left as it is.  Returns heap.
    """
    h = heap.shape[-1] >> 2
    while h >= 1:
        heap[..., h : 2 * h] += heap[..., 2 * h : 4 * h : 2] + heap[..., 2 * h + 1 : 4 * h : 2]
        h >>= 1
    return heap


def box_sums(leaf):
    """Sum leaf values over every heap box.

    leaf: (..., N) in Morton order. Returns (..., 2N) with out[..., H] the sum
    over the leaves of box H; slot 0 is 0.
    """
    n_leaves = leaf.shape[-1]
    out = np.zeros(leaf.shape[:-1] + (2 * n_leaves,), dtype=np.float64)
    # -0.0 is the exact additive identity: a sum of -0.0 leaves stays -0.0
    out[..., 1:n_leaves] = -0.0
    out[..., n_leaves:] = leaf
    return subtree_sums(out)


def analyze(alpha, beta, weighted_sums, inv_sqrt_total):
    """Weighted-Haar analysis from box sums of f*mass.

    weighted_sums: (..., 2N) box sums of the mass-weighted values. Returns the
    whitened coefficient array (..., N): slot 0 is the normalized constant
    component, slot H (1 <= H < N) the coefficient at rectangle H.
    """
    n = alpha.shape[-1]
    coef = np.empty(weighted_sums.shape[:-1] + (n,), dtype=np.float64)
    coef[..., 0] = weighted_sums[..., 1] * inv_sqrt_total
    coef[..., 1:] = (
        alpha[1:] * weighted_sums[..., 3 : 2 * n : 2]
        - beta[1:] * weighted_sums[..., 2 : 2 * n : 2]
    )
    return coef


def synthesize_boxes(alpha, beta, coef, inv_sqrt_total):
    """Whitened coefficients -> the value on every box (..., 2N).

    out[..., H] is the synthesized function's value on box H from the
    components of H's strict ancestors and the constant; at leaves that is
    the function itself.  Slot 0 is unused.
    """
    n = alpha.shape[-1]
    acc = np.zeros(coef.shape[:-1] + (2 * n,), dtype=np.float64)
    acc[..., 1] = coef[..., 0] * inv_sqrt_total
    h = 1
    while h < n:
        lo, hi = h, 2 * h
        parent = acc[..., lo:hi]
        contrib = coef[..., lo:hi]
        acc[..., 2 * lo : 2 * hi : 2] = parent - beta[lo:hi] * contrib
        acc[..., 2 * lo + 1 : 2 * hi : 2] = parent + alpha[lo:hi] * contrib
        h <<= 1
    return acc


def synthesize_at(factor, coef, boxes, cols, depth, inv_sqrt_total):
    """synthesize_boxes(alpha, beta, coef[:, c], inv_sqrt_total)[q] per pair.

    factor: the basis' WeightedBasis.factor table; coef: (N, M) whitened
    coefficients, one function per column; boxes, cols, depth: (P,) the box
    q, the column c and q's heap depth of each pair.  Only each box's root
    path is walked, top-down with the recurrence of synthesize_boxes
    (x - b*c and x + (-b)*c round alike), so the values are the same bit for
    bit at O(P * tree depth) instead of O(M * N).
    """
    val = coef[0, cols] * inv_sqrt_total
    for k in range(int(depth.max()) if depth.size else 0):
        live = np.flatnonzero(depth > k)
        node = boxes[live] >> (depth[live] - k - 1)  # the path's box at depth k + 1
        val[live] += factor[node] * coef[node >> 1, cols[live]]
    return val


def synthesize(alpha, beta, coef, inv_sqrt_total):
    """Inverse of analyze: whitened coefficients -> leaf values (..., N)."""
    return synthesize_boxes(alpha, beta, coef, inv_sqrt_total)[..., alpha.shape[-1]:]


def block_rows(n):
    """Rows per block of an n-column array (see CHUNK_FLOATS): a power of two
    that divides n when n is a power of two."""
    return max(1, min(n, MAX_BLOCK_ROWS, CHUNK_FLOATS // n))


def synthesize_levels(alpha, beta, coef, inv_sqrt_total, held=None):
    """The value of every column's synthesis on every box, a level at a time.

    coef: (N, M) whitened coefficients along the leading axis (row = input
    slot), one function per column.  Yields (heap0, rows), rows[j] the value
    of every column on box heap0 + j: synthesize_boxes(alpha, beta, coef.T,
    inv_sqrt_total)[:, heap0 + j], bit for bit.  A level is valid until the
    next is asked for.  The walk is depth first over the leaf blocks of
    block_rows(N) leaves.  The tree above the block roots comes one box at a
    time as the root path moves, so one row per level of it is live.  Below a
    block root each level is built in place in the block: a box's row sits
    at the first row of its leaf range and its upper half's row is written
    before its lower half overwrites it, down to the leaves, yielded as
    (N + a, block) for the block of leaves a, a + 1, ...

    held: None, or an (N, M) array that receives box H's row once both
    halves of H are built (1 <= H < N), so that after the stream it holds
    every internal box's value.  held may be coef itself, whose rows are
    then overwritten once read.
    """
    n, m = coef.shape
    rows = block_rows(n)
    roots = n // rows
    top = roots.bit_length() - 1  # heap depth of the block roots
    path = np.empty((top + 1, m))  # path[k]: the current root path's box at depth k
    path[0] = coef[0] * inv_sqrt_total
    block = np.empty((rows, m))
    if top:
        yield 1, path[:1]
    for i in range(roots):
        root = roots + i
        # the path's boxes below depth k0 are block i - 1's too
        k0 = top + 1 - (i ^ (i - 1)).bit_length() if i else 1
        for k in range(k0, top + 1):
            h = root >> (top - k)
            p = h >> 1
            if h & 1:
                path[k] = path[k - 1] + alpha[p] * coef[p]
                if held is not None:  # p's lower half was built before
                    held[p] = path[k - 1]
            else:
                path[k] = path[k - 1] - beta[p] * coef[p]
            if k < top:
                yield h, path[k : k + 1]
        block[0] = path[top]
        step = rows
        while step > 1:
            hs = slice(root * rows // step, (root + 1) * rows // step)  # the level's boxes
            parent = block[0::step]
            yield hs.start, parent
            c = np.ascontiguousarray(coef[hs])  # a strided view (W.T) is read once
            block[step >> 1 :: step] = parent + alpha[hs, None] * c
            lower = beta[hs, None] * c
            if held is not None:
                held[hs] = parent
            parent -= lower
            step >>= 1
        yield n + i * rows, block


# Rows and columns of a tile of transposed.  One core, 2 MB L2: 2.1 ms at
# 1024 leaves and 74 ms at 4096, where np.ascontiguousarray(w.T) takes 5.1
# and 221 ms and 128 x 128 tiles 1.9 and 136 ms.
TILE = 64


def transposed(w):
    """A C-contiguous copy of w.T, copied a TILE x TILE tile at a time, so each
    tile's reads and writes stay in cache."""
    n, m = w.shape
    out = np.empty((m, n))
    for i in range(0, m, TILE):
        for j in range(0, n, TILE):
            out[i : i + TILE, j : j + TILE] = w[j : j + TILE, i : i + TILE].T
    return out


# Root-path values per piece of testing_images' gathers.  About eight arrays of
# a piece are live at once, 1 MB in all; the whole pair list at once lifted a
# 1024-leaf testing_report's tracemalloc peak by 5 MB.
GATHER_VALUES = 1 << 14


class HeldStage(NamedTuple):
    """An input stage after a holding synthesize_levels stream."""

    held: np.ndarray  # held[H]: box H's value row, 1 <= H < N
    source: np.ndarray  # the coefficients synthesized (N, M), not overwritten
    factor: np.ndarray  # the input basis' WeightedBasis.factor
    leaf_sq: np.ndarray  # (N,) each leaf box's squared row norm, read as it streamed


def held_values(stage, boxes, slots):
    """stage's value of box boxes[i] at slot slots[i, j].

    An internal box's is its held row; a leaf's is its parent p's held row
    plus one step of the recurrence, factor[leaf] * source[p], which is
    synthesize_boxes' x - b*c or x + a*c (x + (-b)*c rounds as x - b*c).
    """
    n = stage.leaf_sq.shape[0]
    if n == 1:  # the root is the only box: synthesize_boxes' constant term
        return stage.source[0, slots] * stage.factor[1]
    leaf = np.flatnonzero(boxes >= n)
    rows = boxes.copy()
    rows[leaf] >>= 1
    val = stage.held[rows[:, None], slots]
    parent = rows[leaf, None]
    val[leaf] += stage.factor[boxes[leaf], None] * stage.source[parent, slots[leaf]]
    return val


def testing_images(stage, in_box_mass, alpha, beta, inv_sqrt_total, box_mass,
                   depth, lo, hi, pair_offsets, pair_partner):
    """Per-box testing statistics of T, read from the input stage's box values.

    For each box B (heap order, 1..2N-1) the image T(sigma 1_B) is taken in
    the whitened output basis, which is orthonormal in L^2(omega), and never
    synthesized.  Its coefficients are c_B = sigma(B) v_B, with v_B the row
    of box B of the input stage (input slot, output slot): the sum of
    sigma(x) T*(omega h_R)(x) over the leaves x of B is sigma(B) times the
    value on B, since each component of a rectangle inside B has sigma-mean
    zero on B and those of B's strict ancestors are constant on it.  So, with
    stage the stage held by synthesize_levels (HeldStage: the rows of the
    internal boxes; a leaf's row is one step from its parent's), and the
    stage zero at uncharged output slots (DyadicOperator masks them), by
    Parseval

        glob[B]       = ||T(sigma 1_B)||^2     = sigma(B)^2 |v_B|^2,
        restricted[B] = ||1_B T(sigma 1_B)||^2 = sigma(B)^2 times the sum of
                        v_B[R]^2 over the rectangles R inside B, plus
                        <T(sigma 1_B), 1_B>^2 / omega(B) (0 where omega(B) = 0),
        <T(sigma 1_E), 1_G>                    = sigma(E) omega(G) u,

    with u the value of v_E on box G: the constant and the components of
    G's strict ancestors along its root path, the sum synthesize_at walks.
    The leaves' |v_B|^2 are read as the stage streams (stage.leaf_sq).  The
    rectangles inside the boxes of a depth are one gather from the held rows,
    and the root-path sums of the boxes and of the pairs one gather in all.
    Returns restricted, glob and, for each box's slice of the admissible pair
    list, the pairings.

    alpha/beta/inv_sqrt_total, box_mass: the output basis and box masses.
    in_box_mass: the input box masses.  depth, lo, hi: the heap depth and leaf
    range of every box.  pair_offsets: (2N+1,) CSR offsets into pair_partner
    per box.
    """
    held = stage.held
    n, n2 = stage.leaf_sq.shape[0], lo.shape[0]
    # factor[H]: the weight of the component of H's parent on box H, and at
    # the root that of the constant, so the box value of c on G is the sum
    # of factor[H] c[H >> 1] over H = G >> m, m >= 0 (0 past the root)
    factor = np.zeros(2 * n)
    factor[1] = inv_sqrt_total
    factor[2::2] = -beta[1:]
    factor[3::2] = alpha[1:]
    glob = np.zeros(n2)
    glob[1:n] = np.einsum("ij,ij->i", held[1:n], held[1:n])
    glob[n:] = stage.leaf_sq
    # in_order[p]: the rectangle whose halves meet after leaf p (the constant
    # slot at p = N - 1), so the rectangles inside a box of depth k are
    # in_order.reshape(2^k, N >> k)[:, :-1], one row per box
    in_order = np.zeros(n, dtype=np.int64)
    in_order[(lo[1:n] + hi[1:n]) // 2 - 1] = np.arange(1, n)
    inside = np.zeros(n2)
    h = 1
    while h < n:
        sub = np.take_along_axis(held[h : 2 * h], in_order.reshape(h, -1)[:, :-1], axis=1)
        inside[h : 2 * h] = np.einsum("ij,ij->i", sub, sub)
        h <<= 1
    # the pairs and every box with itself, a piece of GATHER_VALUES root-path
    # values at a time
    boxes = np.arange(1, n2)
    e = np.concatenate((np.repeat(np.arange(n2), np.diff(pair_offsets)), boxes))
    g = np.concatenate((pair_partner, boxes))
    steps = np.arange(int(depth.max()) + 1)
    piece = max(1, GATHER_VALUES // len(steps))
    val = np.empty(len(g))
    for a in range(0, len(g), piece):
        ec, gc = e[a : a + piece], g[a : a + piece]
        # G's root path from the root down, then zeros: a box and a leaf below
        # it that adds only a zero term sum alike
        shift = depth[gc, None] - steps
        node = np.where(shift >= 0, gc[:, None] >> np.maximum(shift, 0), 0)
        val[a : a + len(gc)] = (np.take(factor, node) * held_values(stage, ec, node >> 1)).sum(axis=1)
    val *= in_box_mass[e] * box_mass[g]
    count = pair_partner.shape[0]
    own = np.zeros(n2)  # <T(sigma 1_B), 1_B>
    own[1:] = val[count:]
    square = in_box_mass * in_box_mass
    glob *= square
    restricted = square * inside
    charged = box_mass > 0
    restricted[charged] += own[charged] ** 2 / box_mass[charged]
    return restricted, glob, val[:count]
