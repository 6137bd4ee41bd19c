"""Reference associators the transfer engine is measured against.

Each computes its four label matrices on the clustered rows that
``transfer.clustered_side`` keeps and hands them to
``AssociationResult.place``, as the full engine does, so noise handling and
result assembly are the same for every method. Intra labels are the one-hot
cluster ids.
"""
from __future__ import annotations

import numpy as np

from .core import PipelineConfig, SoftLabelMatrix, pairwise_sq_dists
from .clustering import ClusterAssignment, centroids
from .transport import otla_init
from .transfer import AssociationResult, ClusteredSide, clustered_side


def _one_hot_intra(side: ClusteredSide) -> SoftLabelMatrix:
    return SoftLabelMatrix.one_hot(side.assign.labels, side.assign.k)


def associate_otla_only(
    features_v,
    features_r,
    assign_v: ClusterAssignment,
    assign_r: ClusterAssignment,
    cfg: PipelineConfig,
) -> AssociationResult:
    """No transfer: intra labels are the one-hot cluster ids, cross labels are
    the balanced transport assignment onto the source prototypes (the exact
    matrices the full engine starts from, minus the intra softening)."""
    v = clustered_side(features_v, assign_v)
    r = clustered_side(features_r, assign_r)
    bank_v = centroids(v.rows, v.assign)
    bank_r = centroids(r.rows, r.assign)
    return AssociationResult.place(v, r, dict(
        intra_v=_one_hot_intra(v), cross_r=otla_init(r.rows, bank_v, cfg.ot_lambda),
        intra_r=_one_hot_intra(r), cross_v=otla_init(v.rows, bank_r, cfg.ot_lambda)))


def _greedy_match(dist: np.ndarray) -> np.ndarray:
    """Match each row cluster to a column cluster.

    Pairs are taken in ascending (distance, row, column) order without
    replacement while unmatched columns remain; leftover rows then take their
    nearest column with replacement. The walk stops once min(rows, columns)
    pairs are matched: every later pair has a matched row or a used column.
    """
    n_rows, n_cols = dist.shape
    match = np.full(n_rows, -1, dtype=np.int64)
    used_cols = np.zeros(n_cols, dtype=bool)
    left = min(n_rows, n_cols)
    # A stable sort of the row-major flat array breaks ties by (row, column).
    for flat in np.argsort(dist, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n_cols)
        if match[i] >= 0 or used_cols[j]:
            continue
        match[i] = j
        used_cols[j] = True
        left -= 1
        if not left:
            break
    for i in np.flatnonzero(match < 0):
        match[i] = int(np.argmin(dist[i]))
    return match


def _greedy_cross(bank_src, bank_tgt, tgt: ClusteredSide) -> SoftLabelMatrix:
    """The one-hot source cluster each target cluster was matched to, on
    every one of its instances."""
    dist = np.sqrt(pairwise_sq_dists(bank_tgt.prototypes, bank_src.prototypes))
    return SoftLabelMatrix.one_hot(_greedy_match(dist)[tgt.assign.labels], bank_src.k)


def associate_greedy_centroid(
    features_v,
    features_r,
    assign_v: ClusterAssignment,
    assign_r: ClusterAssignment,
    cfg: PipelineConfig,
) -> AssociationResult:
    """Cluster-level greedy matching on centroid distances: every target
    instance inherits the source cluster its own cluster was matched to."""
    v = clustered_side(features_v, assign_v)
    r = clustered_side(features_r, assign_r)
    bank_v = centroids(v.rows, v.assign)
    bank_r = centroids(r.rows, r.assign)
    return AssociationResult.place(v, r, dict(
        intra_v=_one_hot_intra(v), cross_r=_greedy_cross(bank_v, bank_r, r),
        intra_r=_one_hot_intra(r), cross_v=_greedy_cross(bank_r, bank_v, v)))
