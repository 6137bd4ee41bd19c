"""Reference associators the transfer engine is measured against.

Each supplies only its cross-label rule for one direction to
``transfer.associate_directions``, the shell the full engine runs in, so
noise handling and result assembly are the same for every method. Intra
labels are the one-hot cluster ids.
"""
from __future__ import annotations

import numpy as np

from .core import PipelineConfig, SoftLabelMatrix, pairwise_sq_dists
from .clustering import ClusterAssignment, centroids
from .transport import otla_init
from .transfer import (
    AssociationResult,
    ClusteredSide,
    associate_directions,
    clustered_side,
)


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

    def one_way(src, tgt, v2r):
        bank = centroids(src.rows, src.assign)
        return _one_hot_intra(src), otla_init(tgt.rows, bank, cfg.ot_lambda)

    v = clustered_side(features_v, assign_v)
    r = clustered_side(features_r, assign_r)
    return associate_directions(v, r, one_way)


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

    def one_way(src, tgt, v2r):
        bank_src, bank_tgt = (bank_v, bank_r) if v2r else (bank_r, bank_v)
        dist = np.sqrt(pairwise_sq_dists(bank_tgt.prototypes, bank_src.prototypes))
        match = _greedy_match(dist)
        cross = SoftLabelMatrix.one_hot(match[tgt.assign.labels], bank_src.k)
        return _one_hot_intra(src), cross

    return associate_directions(v, r, one_way)
