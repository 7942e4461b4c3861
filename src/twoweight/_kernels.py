"""Hot numeric loops as level-sliced numpy transforms over the heap.

Arrays follow the heap layout used throughout the package: a full binary tree
over the 2^(n*d) leaves, heap index 1 = root box, children of H are 2H and
2H+1, leaves occupy [N, 2N).  Every transform is vectorized over the leading
(batch) axes.
"""

import numpy as np

HAVE_NUMBA = False  # no compiled kernels; the benchmark's environment record reads it

# Floats per temporary block in the batched passes: keeps the working set of
# one block cache-sized whatever the grid size.
CHUNK_FLOATS = 1 << 15


def box_sums(leaf):
    """Sum leaf values over every heap box.

    leaf: (..., N) in Morton order. Returns (..., 2N) with out[..., H] the sum
    over the leaves of box H; slot 0 unused.
    """
    n_leaves = leaf.shape[-1]
    out = np.zeros(leaf.shape[:-1] + (2 * n_leaves,), dtype=np.float64)
    out[..., n_leaves:] = leaf
    h = n_leaves >> 1
    while h >= 1:
        lo, hi = h, 2 * h
        out[..., lo:hi] = out[..., 2 * lo : 2 * hi : 2] + out[..., 2 * lo + 1 : 2 * hi : 2]
        h >>= 1
    return out


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


def synthesize(alpha, beta, coef, inv_sqrt_total):
    """Inverse of analyze: whitened coefficients -> leaf values (..., N)."""
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
    return acc[..., n:]


def testing_images(wt, in_basis, in_mass, alpha, beta, inv_sqrt_total, mass,
                   lo, hi, pair_offsets, pair_partner):
    """Per-box indicator images and the statistics the testing module needs.

    For each box B (heap order, 1..2N-1): image = T applied to the indicator
    of B.  ``wt`` is the TRANSPOSED whitened matrix (input slot, output slot);
    any strides will do.  Returns per box the output-measure norm^2
    restricted to B's own leaf range, the global norm^2, and for the box's
    slice of the admissible pair list the pairings <T(sigma 1_B), 1_G>.

    The image is linear in B, so the pass builds the N leaf images once and
    sums sibling rows level by level, O(N^2) in all:

    * input-side synthesis of every output slot's row of W, scaled by the
      input leaf masses, gives the output coefficients of T(sigma 1_leaf);
    * output-side synthesis of those, a block of input leaves at a time,
      gives the leaf images; a block is summed up to its root box, and the
      block roots are summed on up to the grid root.

    in_basis: (alpha, beta, inv_sqrt_total) of the input measure; in_mass:
    (N,) input leaf masses.  alpha/beta/inv_sqrt_total, mass: the same for
    the output measure.  pair_offsets: (2N+1,) CSR offsets into pair_partner
    per box.
    """
    n = mass.shape[0]
    n2 = lo.shape[0]
    restricted = np.zeros(n2)
    glob = np.zeros(n2)
    pair_vals = np.zeros(pair_partner.shape[0])
    rows = max(1, min(n, CHUNK_FLOATS // n))

    in_alpha, in_beta, in_inv = in_basis
    w = wt.T  # (output slot, input slot)
    leaf_coef = np.empty((n, n))  # (output slot, input leaf)
    for a in range(0, n, rows):
        leaf_coef[a : a + rows] = in_mass * synthesize(in_alpha, in_beta, w[a : a + rows],
                                                       in_inv)

    def visit(img, heap0):
        """Statistics of consecutive same-level boxes heap0, heap0+1, ..."""
        size = hi[heap0] - lo[heap0]
        for c in range(0, img.shape[0], rows):
            block = img[c : c + rows]
            boxes = np.arange(heap0 + c, heap0 + c + block.shape[0])
            wv = block * mass
            sq = wv * block
            glob[boxes] = sq.sum(axis=1)
            own = sq.reshape(block.shape[0], n // size, size)
            restricted[boxes] = own[np.arange(block.shape[0]), lo[boxes] // size].sum(axis=1)
            start, stop = pair_offsets[boxes[0]], pair_offsets[boxes[-1] + 1]
            if stop > start:
                cs = np.zeros((block.shape[0], n + 1))
                np.cumsum(wv, axis=1, out=cs[:, 1:])
                row = np.repeat(np.arange(block.shape[0]),
                                np.diff(pair_offsets[boxes[0] : boxes[-1] + 2]))
                gs = pair_partner[start:stop]
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
    for a in range(0, n, rows):
        img = synthesize(alpha, beta, np.ascontiguousarray(leaf_coef[:, a : a + rows].T),
                         inv_sqrt_total)
        tops[a // rows] = sum_up(img, n + a)
    if tops.shape[0] > 1:
        tops[0::2] += tops[1::2]
        sum_up(tops[0::2], (n // rows) >> 1)
    return restricted, glob, pair_vals
