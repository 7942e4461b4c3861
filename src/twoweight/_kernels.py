"""Hot numeric loops as level-sliced numpy transforms over the heap.

Arrays follow the heap layout used throughout the package: a full binary tree
over the 2^(n*d) leaves, heap index 1 = root box, children of H are 2H and
2H+1, leaves occupy [N, 2N).  Every transform is vectorized over the leading
(batch) axes, except synthesize_leaf_blocks and level_sums, which work
along the leading axis and are vectorized over the trailing one.
"""

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


def synthesize_leaf_blocks(alpha, beta, coef, inv_sqrt_total, out=None):
    """synthesize(alpha, beta, coef.T, inv_sqrt_total).T one leaf block at a time.

    coef: (N, M) whitened coefficients along the leading axis (row = input
    slot), one function per column.  Yields (a, block) in leaf order, with
    block[i] the values of every column on leaf a + i, block_rows(N) leaves
    per block.  With out (N, M) each block is out[a : a + rows]; without it,
    every block reuses one buffer, valid until the next block is asked for.

    The tree above the block roots is walked depth first, so one row per
    level of it is live.  Below a block root each level is built in place in
    the block: a box's row sits at the first row of its leaf range and its
    upper half's row is written before its lower half overwrites it.  Both
    follow the recurrence of synthesize_boxes, so the values are the same
    bit for bit.
    """
    n, m = coef.shape
    rows = block_rows(n)
    roots = n // rows
    top = roots.bit_length() - 1  # heap depth of the block roots
    path = np.empty((top + 1, m))  # path[k]: the current root path's box at depth k
    path[0] = coef[0] * inv_sqrt_total
    buf = np.empty((rows, m)) if out is None else None
    for i in range(roots):
        root = roots + i
        # the path's boxes below depth k0 are block i - 1's too
        k0 = top + 1 - (i ^ (i - 1)).bit_length() if i else 1
        for k in range(k0, top + 1):
            h = root >> (top - k)
            p = h >> 1
            if h & 1:
                path[k] = path[k - 1] + alpha[p] * coef[p]
            else:
                path[k] = path[k - 1] - beta[p] * coef[p]
        a = i * rows
        block = buf if out is None else out[a : a + rows]
        block[0] = path[top]
        step = rows
        while step > 1:
            hs = slice(root * rows // step, (root + 1) * rows // step)  # the level's boxes
            c = np.ascontiguousarray(coef[hs])  # a strided view (W.T) is read once
            parent = block[0::step]
            block[step >> 1 :: step] = parent + alpha[hs, None] * c
            parent -= beta[hs, None] * c
            step >>= 1
        yield a, block


def level_sums(blocks, n):
    """Sums of leaf-major rows over every box of a grid of n leaves.

    blocks: (a, rows) in leaf order, as synthesize_leaf_blocks yields them.
    Yields (heap0, rows), rows[j] the sum over box heap0 + j, level by level:
    each block below its root box, then the block roots up as one block.
    Siblings are added in place, so a level is gone once the next is asked for.
    """
    tops = None  # the sums over the block root boxes
    for a, rows in blocks:
        if tops is None:
            tops = np.empty((n // len(rows), rows.shape[1]))
        heap0, i = n + a, a // len(rows)
        while len(rows) > 1:
            yield heap0, rows
            rows[0::2] += rows[1::2]
            rows, heap0 = rows[0::2], heap0 >> 1
        tops[i] = rows[0]
    yield from level_sums([(0, tops)], len(tops)) if len(tops) > 1 else [(1, tops)]


def testing_images(blocks, in_mass, alpha, beta, inv_sqrt_total, box_mass,
                   depth, lo, hi, pair_offsets, pair_partner):
    """Per-box testing statistics of T, read from the output coefficients.

    For each box B (heap order, 1..2N-1) the image T(sigma 1_B) is taken in
    the whitened output basis, which is orthonormal in L^2(omega), and never
    synthesized.  ``blocks`` is the input stage in leaf-major blocks, (a,
    block) in leaf order as synthesize_leaf_blocks yields them (input leaf,
    output slot), block_rows(N) leaves each; each block is scaled here in
    place by the input leaf masses in_mass, which gives the coefficients of
    T(sigma 1_leaf), and level_sums adds them up to c_B, the coefficients of
    T(sigma 1_B), for every box.  The stage is zero at uncharged output slots
    (DyadicOperator masks them), so by Parseval

        glob[B]       = ||T(sigma 1_B)||^2     = sum of c_B^2 over all slots,
        restricted[B] = ||1_B T(sigma 1_B)||^2 = sum of c_B[R]^2 over the
                        rectangles R inside B, plus <T(sigma 1_B), 1_B>^2
                        / omega(B) (0 where omega(B) = 0),
        <T(sigma 1_E), 1_G>                    = v omega(G),

    with v the value of c_E on box G: the constant and the components of
    G's strict ancestors along its root path, the sum synthesize_at walks.
    Per level of boxes, in pieces of at most block_rows(N) boxes, glob is one
    sum of squares, restricted one gather of the rectangles inside each box,
    and the values v one gather over the boxes and their pair partners times
    their ancestors: O(N^2) in all, the cost of level_sums.  Returns
    restricted, glob and, for each box's slice of the admissible pair list,
    the pairings.

    alpha/beta/inv_sqrt_total, box_mass: the output basis and box masses.
    depth, lo, hi: the heap depth and leaf range of every box.
    pair_offsets: (2N+1,) CSR offsets into pair_partner per box.
    """
    n, n2 = in_mass.shape[0], lo.shape[0]
    rows = block_rows(n)
    # factor[H]: the weight of the component of H's parent on box H, and at
    # the root that of the constant, so the box value of c on G is the sum
    # of factor[H] c[H >> 1] over H = G >> m, m >= 0 (0 past the root)
    factor = np.zeros(2 * n)
    factor[1] = inv_sqrt_total
    factor[2::2] = -beta[1:]
    factor[3::2] = alpha[1:]
    # in_order[p]: the rectangle whose halves meet after leaf p (the constant
    # slot at p = N - 1), so the rectangles inside a box of depth k are
    # in_order.reshape(2^k, N >> k)[:, :-1], one row per box
    in_order = np.zeros(n, dtype=np.int64)
    in_order[(lo[1:n] + hi[1:n]) // 2 - 1] = np.arange(1, n)
    shifts = np.arange(int(depth.max()) + 1)  # G >> m for m past G's depth is 1 or 0
    counts = np.diff(pair_offsets)
    index = np.arange(n2)  # box numbers, and row numbers of a block
    start_of = index[:rows] * n  # a row's start in a raveled block
    restricted = np.zeros(n2)
    glob = np.zeros(n2)
    own = np.zeros(n2)  # <T(sigma 1_B), 1_B>
    pair_vals = np.empty(pair_partner.shape[0])
    stage = ((a, np.multiply(b, in_mass[a : a + len(b), None], out=b)) for a, b in blocks)
    for heap0, coef in level_sums(stage, n):
        inside = in_order.reshape(-1, n >> depth[heap0])[:, :-1]
        for c in range(0, len(coef), rows):
            # above the leaves a level is a strided view: one copy lets both
            # gathers below index it flat
            block = np.ascontiguousarray(coef[c : c + rows])
            k = len(block)
            b0 = heap0 + c
            glob[b0 : b0 + k] = np.einsum("ij,ij->i", block, block)
            flat = block.ravel()
            j0 = b0 - (1 << depth[heap0])  # the first box's place in its level
            sub = flat[start_of[:k, None] + inside[j0 : j0 + k]]
            restricted[b0 : b0 + k] = np.einsum("ij,ij->i", sub, sub)
            # one gather for the boxes' pair partners and the boxes themselves
            start, stop = pair_offsets[b0], pair_offsets[b0 + k]
            at = np.concatenate((pair_partner[start:stop], index[b0 : b0 + k]))
            row = np.concatenate((np.repeat(start_of[:k], counts[b0 : b0 + k]), start_of[:k]))
            node = at[:, None] >> shifts
            val = (np.take(factor, node) * np.take(flat, row[:, None] + (node >> 1))).sum(axis=1)
            val *= box_mass[at]
            pair_vals[start:stop] = val[: stop - start]
            own[b0 : b0 + k] = val[stop - start :]
    charged = box_mass > 0
    restricted[charged] += own[charged] ** 2 / box_mass[charged]
    return restricted, glob, pair_vals
