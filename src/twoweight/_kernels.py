"""Hot numeric loops as level-sliced numpy transforms over the heap.

Arrays follow the heap layout used throughout the package: a full binary tree
over the 2^(n*d) leaves, heap index 1 = root box, children of H are 2H and
2H+1, leaves occupy [N, 2N).  Every transform is vectorized over the leading
(batch) axes, except synthesize_leaf_blocks, which synthesizes along the
leading axis and is vectorized over the trailing one.
"""

import numpy as np

HAVE_NUMBA = False  # no compiled kernels; the benchmark's environment record reads it

# Floats per temporary block in the batched passes: keeps the working set of
# one block cache-sized whatever the grid size.
CHUNK_FLOATS = 1 << 15


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
    """Rows per block of an n-column array: CHUNK_FLOATS floats a block, at
    most n rows, and a power of two that divides n when n is a power of two."""
    return max(1, min(n, CHUNK_FLOATS // n))


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


def testing_images(blocks, in_mass, alpha, beta, inv_sqrt_total, mass,
                   depth, lo, hi, pair_offsets, pair_partner):
    """Per-box indicator images and the statistics the testing module needs.

    For each box B (heap order, 1..2N-1): image = T applied to the indicator
    of B.  ``blocks`` is the input stage in leaf-major blocks, (a, block) in
    leaf order as synthesize_leaf_blocks yields them (input leaf, output
    slot), block_rows(N) leaves each; each block is scaled here in place by
    the input leaf masses in_mass, which gives the output coefficients of
    T(sigma 1_leaf).  Returns per box the output-measure norm^2 restricted to
    B's own leaf range, the global norm^2, and for the box's slice of the
    admissible pair list the pairings <T(sigma 1_B), 1_G>.

    The image is linear in B, so the pass builds the N leaf images once and
    sums sibling rows level by level, O(N^2) in all: output-side synthesis
    gives the leaf images of one block of input leaves; a block is summed up
    to its root box, and the block roots on up to the grid root.

    alpha/beta/inv_sqrt_total, mass: the output basis and leaf masses.
    depth, lo, hi: the heap depth and leaf range of every box.
    pair_offsets: (2N+1,) CSR offsets into pair_partner per box.
    """
    n = mass.shape[0]
    n2 = lo.shape[0]
    restricted = np.zeros(n2)
    glob = np.zeros(n2)
    pair_vals = np.zeros(pair_partner.shape[0])
    rows = block_rows(n)

    def visit(img, heap0):
        """Statistics of consecutive same-level boxes heap0, heap0+1, ..."""
        level = depth[heap0]
        for c in range(0, img.shape[0], rows):
            block = img[c : c + rows]
            boxes = np.arange(heap0 + c, heap0 + c + block.shape[0])
            wv = block * mass
            sq = wv * block
            glob[boxes] = sq.sum(axis=1)
            own = sq.reshape(block.shape[0], 1 << level, n >> level)
            restricted[boxes] = own[np.arange(boxes.size), boxes - (1 << level)].sum(axis=1)
            start, stop = pair_offsets[boxes[0]], pair_offsets[boxes[-1] + 1]
            if stop > start:
                gs = pair_partner[start:stop]
                end = int(hi[gs].max())  # the prefix sums stop at the last partner
                cs = np.zeros((block.shape[0], end + 1))
                np.cumsum(wv[:, :end], axis=1, out=cs[:, 1:])
                row = np.repeat(np.arange(block.shape[0]),
                                np.diff(pair_offsets[boxes[0] : boxes[-1] + 2]))
                pair_vals[start:stop] = cs[row, hi[gs]] - cs[row, lo[gs]]

    def sum_up(img, heap0):
        """Visit each level from img's up to a single box; return its image."""
        while True:
            visit(img, heap0)
            if img.shape[0] == 1:
                return img[0]
            img[0::2] += img[1::2]
            img = img[0::2]
            heap0 >>= 1

    tops = np.empty((n // rows, n))  # images of the block root boxes
    for a, block in blocks:
        block *= in_mass[a : a + rows, None]
        tops[a // rows] = sum_up(synthesize(alpha, beta, block, inv_sqrt_total), n + a)
    if tops.shape[0] > 1:
        tops[0::2] += tops[1::2]
        sum_up(tops[0::2], (n // rows) >> 1)
    return restricted, glob, pair_vals
