"""Instance-to-instance affinities.

Homogeneous (same modality) affinity is the Jaccard overlap of mutual
k-reciprocal neighbor sets; heterogeneous affinity comes from an optimal
transport plan (see transport.py). Both are consumed row-normalized.
"""
from __future__ import annotations

import numpy as np

from .core import feature_data, pairwise_sq_dists


def k_reciprocal_sets(features, kappa: int) -> list[np.ndarray]:
    """Mutual k-reciprocal neighbor sets R(i, kappa), each sorted ascending.

    kNN(i, kappa) always contains i itself; remaining slots are filled by
    Euclidean distance with ties at the cutoff broken toward lower index.
    """
    data = feature_data(features)
    n = data.shape[0]
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    k = min(kappa, n)
    d = pairwise_sq_dists(data, data)
    # Self wins rank 0 unconditionally, even against exact duplicates.
    np.fill_diagonal(d, -1.0)
    order = np.argsort(d, axis=1, kind="stable")
    member = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k)
    member[rows, order[:, :k].ravel()] = True
    mutual = member & member.T
    return [np.flatnonzero(mutual[i]) for i in range(n)]


def jaccard_affinity(sets: list[np.ndarray]) -> np.ndarray:
    """S_ij = |R(i) n R(j)| / |R(i) u R(j)|. Symmetric with unit diagonal."""
    n = len(sets)
    member = np.zeros((n, n), dtype=np.float64)
    for i, s in enumerate(sets):
        member[i, s] = 1.0
    inter = member @ member.T
    sizes = member.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    return inter / union


def row_normalize(values: np.ndarray) -> np.ndarray:
    """Scale each row to sum 1; an all-zero row becomes the uniform row.

    Only a transport plan can have one. A Jaccard affinity has a unit
    diagonal, because every instance is in its own k-reciprocal set
    (test_affinity pins this in test_self_included_even_with_duplicates and
    test_symmetric_unit_diag_in_range).
    """
    v = np.asarray(values, dtype=np.float64)
    sums = v.sum(axis=1)
    zero = sums <= 0.0
    out = v / np.where(zero, 1.0, sums)[:, None]
    out[zero] = 1.0 / v.shape[1]
    return out


def homogeneous_affinity(features, kappa: int) -> np.ndarray:
    """Row-normalized Jaccard affinity of mutual k-reciprocal sets."""
    return row_normalize(jaccard_affinity(k_reciprocal_sets(features, kappa)))
