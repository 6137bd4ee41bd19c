"""Instance-to-instance affinities.

Homogeneous (same modality) affinity is the Jaccard overlap of mutual
k-reciprocal neighbor sets; heterogeneous affinity comes from an optimal
transport plan (see transport.py). Both are consumed row-normalized.
"""
from __future__ import annotations

import numpy as np

from .core import feature_data, pairwise_sq_dists


# Rows of the distance matrix partitioned at a time: a block's partition copy
# stays small however many rows there are.
_KNN_BLOCK_ROWS = 128

# Row panels of the Jaccard overlap product: few enough that each SGEMM stays
# large, enough that the one float32 panel is 1/8 of the float64 output.
_JACCARD_PANELS = 4


def k_reciprocal_sets(features, kappa: int) -> np.ndarray:
    """Mutual k-reciprocal neighbor sets as a symmetric N x N boolean mask:
    row i holds R(i, kappa).

    kNN(i, kappa) always contains i itself; remaining slots are filled by
    Euclidean distance with ties at the cutoff broken toward lower index.
    Each row's kappa-th smallest distance comes from a partition: the row's
    members are the entries strictly below it, then the lowest-index entries
    equal to it, as many as still fit. That is the first kappa of a stable
    sort, without sorting.
    """
    data = feature_data(features)
    n = data.shape[0]
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    k = min(kappa, n)
    d = pairwise_sq_dists(data, data)
    # Self wins rank 0 unconditionally, even against exact duplicates.
    np.fill_diagonal(d, -1.0)
    member = np.empty((n, n), dtype=bool)
    for lo in range(0, n, _KNN_BLOCK_ROWS):
        block = d[lo:lo + _KNN_BLOCK_ROWS]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1:k]
        near = member[lo:lo + _KNN_BLOCK_ROWS]
        np.less_equal(block, kth, out=near)
        tied = np.flatnonzero(np.count_nonzero(near, axis=1) > k)
        if tied.size:
            dist, cut = block[tied], kth[tied]
            below = dist < cut
            at = dist == cut
            room = k - np.count_nonzero(below, axis=1)
            near[tied] = below | (at & (np.cumsum(at, axis=1) <= room[:, None]))
    member &= member.T
    return member


def jaccard_affinity(mask: np.ndarray) -> np.ndarray:
    """S_ij = |R(i) n R(j)| / |R(i) u R(j)| for the sets in the rows of a
    boolean mask. Symmetric with unit diagonal for a k-reciprocal mask.

    The overlap counts come from the mask's 0/1 float32 product, whose sums
    of ones are exact integers below 2**24. The product is taken in
    _JACCARD_PANELS row panels, each a float32 SGEMM of the mask's rows
    against one C-contiguous float32 transpose of the mask (the rows are a
    view of that transpose), into one reused panel buffer. Each panel's
    counts go straight into the float64 output; the union is then formed in
    the panel, where it is an exact integer too, and the quotient in the
    output. So no float64 membership copy or second N x N float64 array is
    made: the float32 transpose and one panel are all the storage beside
    the output.
    """
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[0]
    sizes = np.count_nonzero(mask, axis=1).astype(np.float32)
    member_t = np.ascontiguousarray(mask.T, dtype=np.float32)
    out = np.empty((n, n), dtype=np.float64)
    rows = max(1, -(-n // _JACCARD_PANELS))
    buffer = np.empty((min(rows, n), n), dtype=np.float32)
    for lo in range(0, n, rows):
        left = member_t[:, lo:lo + rows].T
        panel = np.matmul(left, member_t, out=buffer[:left.shape[0]])
        out[lo:lo + rows] = panel
        np.subtract(sizes[lo:lo + rows, None], panel, out=panel)
        panel += sizes
        out[lo:lo + rows] /= panel
    return out


def row_normalize(values: np.ndarray) -> np.ndarray:
    """Scale each row to sum 1; an all-zero row becomes the uniform row.

    A float64 array is scaled in place and returned, so the caller must own
    it; any other input is converted to a new float64 array first.

    Only a transport plan can have an all-zero row. A Jaccard affinity has a
    unit diagonal, because every instance is in its own k-reciprocal set
    (test_affinity pins this in test_self_included_even_with_duplicates and
    test_symmetric_unit_diag_in_range).
    """
    v = np.asarray(values, dtype=np.float64)
    sums = v.sum(axis=1)
    zero = sums <= 0.0
    v /= np.where(zero, 1.0, sums)[:, None]
    v[zero] = 1.0 / v.shape[1]
    return v


def homogeneous_affinity(features, kappa: int) -> np.ndarray:
    """Row-normalized Jaccard affinity of mutual k-reciprocal sets."""
    return row_normalize(jaccard_affinity(k_reciprocal_sets(features, kappa)))
