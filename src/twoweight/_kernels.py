"""Hot numeric loops as level-sliced numpy transforms over the heap.

Arrays follow the heap layout used throughout the package: a full binary tree
over the 2^(n*d) leaves, heap index 1 = root box, children of H are 2H and
2H+1, leaves occupy [N, 2N).  Every transform is vectorized over the leading
(batch) axes, except synthesize_levels, which builds every box's row of M
functions from the nonzero coefficients of an (N, M) array (nonzeros),
vectorized over the nonzeros and the M columns, and the readers of the rows
it holds (held_values, testing_images).
"""

from typing import NamedTuple

import numpy as np

HAVE_NUMBA = False  # no compiled kernels; the benchmark's environment record reads it

# Floats and rows per block: block_rows(N) = min(N, MAX_BLOCK_ROWS, CHUNK_FLOATS // N).
# random_ewl r=1, median testing_report(norm=False) in ms against 1 << 15 floats and
# no cap, one BLAS thread, 2 MB L2 per core, two runs: 256 leaves 2.3-2.5 (same
# blocks), 512 5.1-6.0 (4.8-5.1), 1024 13.0-15.3 (13.1-14.9), 2048 46-56 (47-55),
# 4096 196-222 (202-236); localization.radii at 512 and 1024 leaves 8.5-9.8 and
# 27.9-36.4 (6.9-7.6 and 25.3-31.0).
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


def nonzeros(a):
    """(rows, cols, values) of the entries of the 2-D array a other than +0.0,
    in row-major order.  Zero is read off the bit pattern, so a -0.0 entry is
    listed: it gives a box value a sign of zero a +0.0 one does not (see
    synthesize_levels).  Positions are 16-bit (operators have at most 4096
    leaves)."""
    rows, cols = np.divmod(np.flatnonzero(a.view(np.int64) != 0), a.shape[1])
    return rows.astype(np.uint16), cols.astype(np.uint16), a[rows, cols]


def transpose_nonzeros(nz):
    """nonzeros(a.T) from nz = nonzeros(a): a stable sort of the 16-bit
    columns, which numpy makes a radix sort."""
    rows, cols, vals = nz
    order = np.argsort(cols, kind="stable")
    return cols[order], rows[order], vals[order]


def synthesize_levels(alpha, beta, inv_sqrt_total, nz, held):
    """The value of every column's synthesis on every box, a level at a time.

    nz: nonzeros(coef) of whitened coefficients coef (N, M) along the
    leading axis (row = input slot), one function per column.  held: a
    C-contiguous (N, M) buffer that receives box H's row, 1 <= H < N.
    Yields (heap0, rows), rows[j] the value of every column on box heap0 + j:
    synthesize_boxes(alpha, beta, coef.T, inv_sqrt_total)[:, heap0 + j], bit
    for bit.  The walk is breadth first.  Box 1's row is slot 0's nonzeros
    times inv_sqrt_total; each further internal level is built whole in held
    from the one above and yielded in pieces of at most block_rows(N) rows.
    The leaves come last, in blocks of block_rows(N), each built from the
    last held level into one buffer and valid until the next is asked for.

    A level is built with synthesize_boxes' float operations: every child
    starts as its parent's row x, as x - beta * 0.0 (that is x) on a lower
    half and x + alpha * 0.0 (x + 0.0, which turns -0.0 into +0.0) on an
    upper one; then each nonzero (p, c, v) at the parents' slots writes
    x - beta[p] * v and x + alpha[p] * v into column c of p's two children.
    """
    slots, cols, vals = nz
    n, m = held.shape
    rows = block_rows(n)
    start = np.zeros(n + 1, dtype=np.int64)  # slot p's nonzeros: start[p]:start[p + 1]
    np.cumsum(np.bincount(slots, minlength=n), out=start[1:])
    # per nonzero (p, c, v): x is held[p, c], its children's entries are
    # (2p, c) and (2p + 1, c), flat in heap rows, and get x - down and x + up
    p = slots.astype(np.intp)
    src = p * m + cols
    lower = src + p * m
    down, up = beta[p] * vals, alpha[p] * vals
    del p
    flat = held.reshape(-1)

    def children(p0, p1, child):
        # child: the rows of the halves of the boxes p0 <= p < p1, from 2 p0 on
        parent = held[p0:p1]
        child[0::2] = parent
        np.add(parent, 0.0, out=child[1::2])
        s = slice(start[p0], start[p1])
        x = flat[src[s]]
        at = lower[s] - 2 * p0 * m
        out = child.reshape(-1)
        out[at] = x - down[s]
        out[at + m] = x + up[s]

    block = np.empty((max(rows, 2), m))  # one-row blocks are built in pairs
    root = held[1:2] if n > 1 else block[:1]
    root[:] = 0.0
    root[0, cols[: start[1]]] = vals[: start[1]] * inv_sqrt_total
    yield 1, root
    h = 1
    while 2 * h < n:
        children(h, 2 * h, held[2 * h : 4 * h])
        for a in range(2 * h, 4 * h, rows):
            yield a, held[a : min(a + rows, 4 * h)]
        h <<= 1
    if n == 1:
        return
    for a in range(0, n, len(block)):
        p0 = (n + a) >> 1
        children(p0, p0 + len(block) // 2, block)
        for j in range(0, len(block), rows):
            yield n + a + j, block[j : j + rows]


# Root-path values per piece of testing_images' gathers.  About eight arrays of
# a piece are live at once, 1 MB in all; the whole pair list at once lifted a
# 1024-leaf testing_report's tracemalloc peak by 5 MB.
GATHER_VALUES = 1 << 14


class HeldStage(NamedTuple):
    """An input stage after its synthesize_levels stream."""

    held: np.ndarray  # held[H]: box H's value row, 1 <= H < N
    source: np.ndarray  # the coefficients synthesized (N, M): W or the view W.T
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
