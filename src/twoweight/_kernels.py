"""Hot numeric loops as level-sliced numpy transforms over the heap.

Arrays follow the heap layout used throughout the package: a full binary tree
over the 2^(n*d) leaves, heap index 1 = root box, children of H are 2H and
2H+1, leaves occupy [N, 2N).  Every transform is vectorized over the leading
(batch) axes, except synthesize_levels, which fills a buffer with every
internal box's row of M functions from the nonzero coefficients of an (N, M)
array (nonzeros), vectorized over the nonzeros and the M columns, and slot 0
with the root's parent row, -0.0; leaf_steps, which reads the leaf level one
step off the last of those rows (at N = 1, off slot 0), so no leaf row is
built; and the readers of the rows held (held_values, testing_images).
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


def synthesize_levels(factor, nz, held):
    """The value of every column's synthesis on every internal box, in held.

    factor: the basis' WeightedBasis.factor (-beta on a lower half, alpha on
    an upper one, inv_sqrt_total at the root).  nz: nonzeros(coef) of
    whitened coefficients coef (N, M) along the leading axis (row = input
    slot), one function per column.  held: a C-contiguous (N, M) buffer that
    receives box H's row, 1 <= H < N: synthesize_boxes(alpha, beta, coef.T,
    inv_sqrt_total)[:, H], bit for bit, and in slot 0 the root's parent
    row, -0.0.  Box 1's row is slot 0's nonzeros times inv_sqrt_total; each
    further internal level is built whole from the one above, breadth
    first.  The leaves are not built: leaf_steps reads them off the last
    held level, which at N = 1 is slot 0.

    A level is built with synthesize_boxes' float operations: every child
    starts as its parent's row x, as x - beta * 0.0 (that is x) on a lower
    half and x + alpha * 0.0 (x + 0.0, which turns -0.0 into +0.0) on an
    upper one; then each nonzero (p, c, v) at the parents' slots writes
    x + factor * v (x - beta[p] v and x + alpha[p] v) into column c of p's
    two children.
    """
    slots, cols, vals = nz
    n, m = held.shape
    held[0] = -0.0  # the root's parent row: -0.0 + y is y, sign of zero included
    if n == 1:  # the root is the only box, and a leaf
        return
    # parent p's nonzeros: start[p]:start[p + 1], for the parents of internal boxes
    start = np.searchsorted(slots, np.arange(n // 2 + 1, dtype=slots.dtype))
    # per nonzero (p, c, v): x is held[p, c], flat src; its children's entries
    # are (2p, c) and (2p + 1, c), flat at, and get x + step
    p = slots[: start[-1]].astype(np.intp)
    src = p * m + cols[: start[-1]]
    at = (src + p * m)[:, None] + (0, m)
    step = factor.reshape(-1, 2)[p] * vals[: start[-1], None]
    del p
    flat = held.reshape(-1)
    held[1] = 0.0
    held[1, cols[: start[1]]] = vals[: start[1]] * factor[1]
    h = 1
    while 2 * h < n:
        held[2 * h : 4 * h : 2] = held[h : 2 * h]
        np.add(held[h : 2 * h], 0.0, out=held[2 * h + 1 : 4 * h : 2])
        s = slice(start[h], start[2 * h])
        flat[at[s]] = flat[src[s], None] + step[s]
        h <<= 1


class LeafStep(NamedTuple):
    """The leaves 2 p0 .. 2 p1 - 1 (heap) of an input stage, read off the
    rows of their parents p0 .. p1 - 1 (leaf_steps)."""

    p0: int
    mag: np.ndarray  # (p1 - p0, M): |parent row|, 0.0 at the listed entries
    at: np.ndarray  # parent (less p0) of each listed entry
    cols: np.ndarray  # its column
    children: np.ndarray  # (listed, 2): the lower and the upper child's value there


def leaf_steps(factor, nz, held):
    """The leaf level of the stage synthesize_levels left in held, a step
    off the last held level, block_rows(N) parents at a time.

    factor: the basis' WeightedBasis.factor.  A leaf's value in column c is
    its parent p's value x, or x + 0.0 on an upper half, unless nz lists
    (p, c, v); then it is x + factor[leaf] v, synthesize_boxes' x - beta v
    or x + alpha v.  Every leaf reader wants magnitudes only, so a step
    hands out |x| for both children (zeroed where nz lists an entry) and the
    listed entries' two child values apart.  No leaf row is built.  At
    N = 1 the parent level is held[0], the root's parent row of -0.0, whose
    upper child (heap 1, factor inv_sqrt_total) is the root; heap 0 is no
    box, and readers find no charge or mass there.
    """
    slots, cols, vals = nz
    n, m = held.shape
    rows = block_rows(n)
    half = n // 2
    pair = factor.reshape(-1, 2)  # by parent: the lower and the upper child's factor
    bounds = np.searchsorted(slots, np.arange(half, n + rows, rows, dtype=slots.dtype))
    mag = np.empty((min(rows, n - half), m))
    for i, p0 in enumerate(range(half, n, rows)):
        s = slice(bounds[i], bounds[i + 1])
        p, c = slots[s].astype(np.intp), cols[s]
        block = mag[: min(rows, n - p0)]
        np.abs(held[p0 : p0 + len(block)], out=block)
        at = p - p0
        block[at, c] = 0.0
        yield LeafStep(p0, block, at, c, held[p, c, None] + pair[p] * vals[s, None])


class HeldStage(NamedTuple):
    """An input stage as synthesize_levels left it, with its leaf norms."""

    held: np.ndarray  # held[H]: box H's value row, 1 <= H < N
    source: np.ndarray  # the coefficients synthesized (N, M): W or the view W.T
    factor: np.ndarray  # the input basis' WeightedBasis.factor
    leaf_sq: np.ndarray  # (N,) each leaf box's squared row norm, read off its leaf step


def held_values(stage, boxes, slots):
    """stage's value of box boxes[i] at slot slots[i] (or at each slot of the
    row slots[i] when slots has one more axis).

    An internal box's is its held row; a leaf's is its parent p's held row
    plus one step of the recurrence, factor[leaf] * source[p], which is
    synthesize_boxes' x - b*c or x + a*c (x + (-b)*c rounds as x - b*c).
    At N = 1 the root is a leaf, one step off held[0], the root's parent
    row of -0.0: synthesize_boxes' constant term.
    """
    n = stage.leaf_sq.shape[0]
    leaf = np.flatnonzero(boxes >= n)
    rows = boxes.copy()
    rows[leaf] >>= 1
    per_row = (slice(None),) + (None,) * (slots.ndim - boxes.ndim)
    val = stage.held[rows[per_row], slots]
    parent = rows[leaf][per_row]
    val[leaf] += stage.factor[boxes[leaf]][per_row] * stage.source[parent, slots[leaf]]
    return val


def root_path_sums(stage, factor, boxes, targets, depth):
    """The value of box boxes[i]'s row of stage on box targets[i] of the
    output basis (factor): the sum of factor[H] row[H >> 1] over targets[i]'s
    root path H, from the root down, then zeros (so a box and a leaf below
    it that adds only a zero term sum alike), every path in one gather."""
    shift = depth[targets, None] - np.arange(int(depth.max()) + 1)
    node = np.where(shift >= 0, targets[:, None] >> np.maximum(shift, 0), 0)
    return (np.take(factor, node) * held_values(stage, boxes, node >> 1)).sum(axis=1)


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
    G's strict ancestors along its root path (root_path_sums).  The leaves'
    |v_B|^2 come with the stage (stage.leaf_sq), and the rectangles inside
    the boxes of a depth are one gather from the held rows.  E's partners
    are the breadth-first subtree of A = anc_r(E) (admissible_pairs), so
    A's root path is summed once per box and every further partner G is
    its parent's value plus one step, factor[G] v_E[G >> 1], a level of
    every list at a time; E itself is on its list, which gives
    <T(sigma 1_E), 1_E>.  Without pairs (the adjoint side) each box's own
    root path is summed.  Returns restricted, glob and, for each box's slice
    of the admissible pair list, the pairings.

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
    rows = np.arange(n)[:, None]
    h = 1
    while h < n:
        sub = held[rows[h : 2 * h], in_order.reshape(h, -1)[:, :-1]]
        inside[h : 2 * h] = np.einsum("ij,ij->i", sub, sub)
        h <<= 1
    boxes = np.arange(1, n2)
    own = np.zeros(n2)  # <T(sigma 1_B), 1_B>
    if pair_partner.size == 0:
        own[1:] = root_path_sums(stage, factor, boxes, boxes, depth) * (in_box_mass[1:] * box_mass[1:])
        val = np.zeros(0)
    else:
        head = pair_offsets[:-1]  # box E's list starts at A = anc_r(E)
        e = np.repeat(np.arange(n2), np.diff(pair_offsets))
        val = factor[pair_partner] * held_values(stage, e, pair_partner >> 1)
        val[head[1:]] = root_path_sums(stage, factor, boxes, pair_partner[head[1:]], depth)
        # the partner at position k of a list is at level log2(k + 1) and
        # hangs below the one at (k + 1) // 2 - 1, (k + 2) // 2 entries back
        at = np.arange(len(e))
        pos = at - head[e]
        order = np.argsort(pos, kind="stable")
        ends = np.searchsorted(pos[order], (1 << np.arange(int(depth.max()) + 2)) - 1)
        parent = at - ((pos + 2) >> 1)
        for a, b in zip(ends[1:-1], ends[2:]):
            seg = order[a:b]
            val[seg] += val[parent[seg]]
        val *= in_box_mass[e] * box_mass[pair_partner]
        own[1:] = val[np.flatnonzero(pair_partner == e)]  # E is once on its own list
    square = in_box_mass * in_box_mass
    glob *= square
    restricted = square * inside
    charged = box_mass > 0
    restricted[charged] += own[charged] ** 2 / box_mass[charged]
    return restricted, glob, val
