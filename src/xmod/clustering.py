"""Density clustering, cluster prototypes, and memory-bank probabilities."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    NOISE,
    XmodError,
    feature_data,
    finite_matrix,
    l2_normalize_rows,
    pairwise_sq_dists,
)
from .affinity import jaccard_affinity, k_reciprocal_sets


class DistanceMetric(Enum):
    EUCLIDEAN = "euclidean"
    JACCARD_DISTANCE = "jaccard_distance"


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-instance cluster ids in [0, k) plus NOISE (-1) for outliers."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 1:
            raise XmodError("cluster labels must be 1-d")
        if lab.size and (lab.min() < NOISE or lab.max() >= self.k):
            raise XmodError("cluster id outside [-1, k)")
        clustered = lab[lab != NOISE]
        if self.k != (int(clustered.max()) + 1 if clustered.size else 0):
            raise XmodError("k does not match the largest cluster id + 1")
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)

    def clustered_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels != NOISE)


@dataclass(frozen=True)
class MemoryBank:
    """K x d unit-row prototype matrix, one row per cluster.

    The banks are fixed for an epoch: only forward losses are computed here,
    so the paper's momentum update never runs. The softmax temperature is an
    argument of ``memory_probabilities``, not part of the bank.
    """

    prototypes: np.ndarray

    def __post_init__(self):
        p = finite_matrix(self.prototypes, "prototype matrix")
        if not np.allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-6):
            raise XmodError("prototypes are not unit-normalized")
        object.__setattr__(self, "prototypes", p)

    @property
    def k(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]


def _pairwise_distance(features, metric: DistanceMetric, kappa: int) -> np.ndarray:
    data = feature_data(features)
    if metric is DistanceMetric.EUCLIDEAN:
        dist = pairwise_sq_dists(data, data)
        return np.sqrt(dist, out=dist)
    dist = jaccard_affinity(k_reciprocal_sets(data, kappa))
    return np.subtract(1.0, dist, out=dist)


def dbscan(
    features,
    eps: float,
    min_samples: int,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
    kappa: int = 30,
) -> ClusterAssignment:
    """Deterministic DBSCAN over a dense pairwise distance matrix.

    The ε-graph stays one boolean mask. Core points are taken in index
    order, and each one not yet labeled starts the next cluster id: its core
    component grows by boolean fronts, and every point within eps of the
    component that is still noise joins the cluster. A border point
    reachable from several clusters therefore stays with the first one that
    claimed it. ``kappa`` only matters for the Jaccard distance, which is
    computed from k-reciprocal sets.
    """
    # The distances are dropped once the ε-mask exists: one N×N float64
    # array is alive at a time.
    near = _pairwise_distance(features, metric, kappa) <= eps
    n = near.shape[0]
    core = np.count_nonzero(near, axis=1) >= min_samples
    labels = np.full(n, NOISE, dtype=np.int64)
    cid = 0
    for i in np.flatnonzero(core):
        if labels[i] != NOISE:
            continue
        comp = np.zeros(n, dtype=bool)
        comp[i] = True
        front = comp
        while front.any():
            front = near[front].any(axis=0) & core & ~comp
            comp |= front
        claim = near[comp].any(axis=0)
        claim[i] = True
        labels[claim & (labels == NOISE)] = cid
        cid += 1
    return ClusterAssignment(labels, cid)


def centroids(features, assign: ClusterAssignment) -> MemoryBank:
    """Bank of the mean feature per cluster, L2-normalized. Noise instances
    are ignored."""
    data = feature_data(features)
    if data.shape[0] != assign.n:
        raise XmodError("feature and assignment sizes differ")
    if assign.k == 0:
        raise XmodError("every instance is noise; there is no cluster")
    protos = np.zeros((assign.k, data.shape[1]), dtype=np.float64)
    for c in range(assign.k):
        members = assign.members(c)
        if members.size == 0:
            raise XmodError(f"cluster {c} has no members")
        protos[c] = data[members].mean(axis=0)
    return MemoryBank(l2_normalize_rows(protos))


def memory_probabilities(features, bank: MemoryBank, tau: float) -> np.ndarray:
    """Softmax over prototype similarities at temperature ``tau`` > 0: row i
    is P(f_i | bank, tau).

    Computed with max subtraction so extreme temperatures stay finite.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    data = feature_data(features)
    if data.shape[1] != bank.dim:
        raise XmodError("feature dim does not match bank dim")
    logits = (data @ bank.prototypes.T) / float(tau)
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return p

