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

    The overlap counts come from the mask's 0/1 float product, whose sums of
    ones are exact integers; the union is formed in the membership array's
    place and the quotient in the product's. (A float32 product is faster
    from 600 rows up, but its BLAS packing buffers add about 0.5 MiB of
    resident memory, which a 400-row epoch never gets back.)
    """
    sizes = np.count_nonzero(mask, axis=1).astype(np.float64)
    member = mask.astype(np.float64)
    inter = member @ member.T
    union = np.add(sizes[:, None], sizes[None, :], out=member)
    union -= inter
    inter /= union
    return inter


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
