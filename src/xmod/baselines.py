"""Reference associators the transfer engine is measured against.

Both produce the same AssociationResult shape as the full engine so the
metrics and the CLI treat all methods uniformly.
"""
from __future__ import annotations

import numpy as np

from .core import PipelineConfig, SoftLabelMatrix, pairwise_sq_dists
from .clustering import ClusterAssignment, centroids
from .transport import otla_init
from .transfer import AssociationResult, Direction, LabeledSubset, _subset


def _one_hot_intra(sub_assign: ClusterAssignment) -> SoftLabelMatrix:
    return SoftLabelMatrix.one_hot(sub_assign.labels, sub_assign.k)


def _direction_fields(intra, cross, idx_src, idx_tgt, swapped: bool):
    if not swapped:
        return {
            "intra_v": LabeledSubset(idx_src, intra),
            "cross_r": LabeledSubset(idx_tgt, cross),
        }
    return {
        "intra_r": LabeledSubset(idx_src, intra),
        "cross_v": LabeledSubset(idx_tgt, cross),
    }


def associate_otla_only(
    features_v,
    features_r,
    assign_v: ClusterAssignment,
    assign_r: ClusterAssignment,
    cfg: PipelineConfig,
    direction: Direction = Direction.BOTH,
) -> AssociationResult:
    """No transfer: intra labels are the one-hot cluster ids, cross labels are
    the balanced transport assignment onto the source prototypes (the exact
    matrices the full engine starts from, minus the intra softening)."""
    idx_v, fv_sub, sub_v = _subset(features_v, assign_v)
    idx_r, fr_sub, sub_r = _subset(features_r, assign_r)
    fields: dict = {}
    if direction in (Direction.V2R, Direction.BOTH):
        bank = centroids(fv_sub, sub_v)
        cross = otla_init(fr_sub, bank, cfg.ot_lambda)
        fields.update(
            _direction_fields(_one_hot_intra(sub_v), cross, idx_v, idx_r, False)
        )
    if direction in (Direction.R2V, Direction.BOTH):
        bank = centroids(fr_sub, sub_r)
        cross = otla_init(fv_sub, bank, cfg.ot_lambda)
        fields.update(
            _direction_fields(_one_hot_intra(sub_r), cross, idx_r, idx_v, True)
        )
    return AssociationResult(
        n_visible=len(assign_v.labels), n_infrared=len(assign_r.labels), **fields
    )


def _greedy_match(dist: np.ndarray) -> np.ndarray:
    """Match each row cluster to a column cluster.

    Pairs are taken in ascending (distance, row, column) order without
    replacement while unmatched columns remain; leftover rows then take their
    nearest column with replacement.
    """
    n_rows, n_cols = dist.shape
    order = sorted(
        ((float(dist[i, j]), i, j) for i in range(n_rows) for j in range(n_cols))
    )
    match = np.full(n_rows, -1, dtype=np.int64)
    used_cols = np.zeros(n_cols, dtype=bool)
    for _, i, j in order:
        if match[i] >= 0 or used_cols[j]:
            continue
        match[i] = j
        used_cols[j] = True
    for i in np.flatnonzero(match < 0):
        match[i] = int(np.argmin(dist[i]))
    return match


def associate_greedy_centroid(
    features_v,
    features_r,
    assign_v: ClusterAssignment,
    assign_r: ClusterAssignment,
    cfg: PipelineConfig,
    direction: Direction = Direction.BOTH,
) -> AssociationResult:
    """Cluster-level greedy matching on centroid distances: every target
    instance inherits the source cluster its own cluster was matched to."""
    idx_v, fv_sub, sub_v = _subset(features_v, assign_v)
    idx_r, fr_sub, sub_r = _subset(features_r, assign_r)
    bank_v = centroids(fv_sub, sub_v)
    bank_r = centroids(fr_sub, sub_r)

    def one(bank_src, bank_tgt, sub_tgt) -> SoftLabelMatrix:
        dist = np.sqrt(pairwise_sq_dists(bank_tgt.prototypes, bank_src.prototypes))
        match = _greedy_match(dist)
        return SoftLabelMatrix.one_hot(match[sub_tgt.labels], bank_src.k)

    fields: dict = {}
    if direction in (Direction.V2R, Direction.BOTH):
        cross = one(bank_v, bank_r, sub_r)
        fields.update(
            _direction_fields(_one_hot_intra(sub_v), cross, idx_v, idx_r, False)
        )
    if direction in (Direction.R2V, Direction.BOTH):
        cross = one(bank_r, bank_v, sub_v)
        fields.update(
            _direction_fields(_one_hot_intra(sub_r), cross, idx_r, idx_v, True)
        )
    return AssociationResult(
        n_visible=len(assign_v.labels), n_infrared=len(assign_r.labels), **fields
    )
