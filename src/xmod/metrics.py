"""Pairwise label-quality metrics against identity ground truth.

All metrics are over instance pairs. Accuracy asks: of the pairs that share
a ground-truth identity, how many share a predicted label? Recall flips the
denominator to the pairs sharing a predicted label. NOISE predictions never
match anything, but the instances still count in denominators. A metric
whose denominator is empty is undefined (None).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import NOISE, XmodError
from .transfer import LABELS, AssociationResult


@dataclass(frozen=True)
class GroundTruth:
    """Per-instance identity ids for each modality."""

    ids_v: np.ndarray
    ids_r: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.ids_v, dtype=np.int64)
        r = np.asarray(self.ids_r, dtype=np.int64)
        if v.ndim != 1 or r.ndim != 1 or v.size == 0 or r.size == 0:
            raise XmodError("ground-truth id vectors must be nonempty 1-d")
        object.__setattr__(self, "ids_v", v)
        object.__setattr__(self, "ids_r", r)


@dataclass(frozen=True)
class MetricsReport:
    intra_acc_v: float | None
    intra_acc_r: float | None
    cross_acc_v: float | None
    cross_acc_r: float | None
    intra_re_v: float | None
    intra_re_r: float | None
    cross_re_v: float | None
    cross_re_r: float | None

    def to_dict(self) -> dict:
        return asdict(self)


MetricsReport.NAMES = tuple(f.name for f in fields(MetricsReport))


def _codes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense codes of the values of a and of b over their union, and the
    number of codes."""
    values, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
    return inverse[:a.size], inverse[a.size:], values.size


def _equal_pairs(a: np.ndarray, b: np.ndarray) -> int:
    """The number of pairs (i, j) with a_i == b_j, from per-value counts."""
    code_a, code_b, n = _codes(a, b)
    return int(np.bincount(code_a, minlength=n) @ np.bincount(code_b, minlength=n))


def pair_accuracy_recall(pred_a, pred_b, gt_a, gt_b, include_self: bool):
    """(accuracy, recall): the fraction of same-identity pairs that received
    the same label, and the fraction of same-label pairs that are truly the
    same identity.

    Each pair count is a sum over values of the product of the two sides'
    counts of that value: a hit is a pair that agrees on the joint (label,
    identity) code. So no pair array is formed, and the integers are exact.
    """
    pa = np.asarray(pred_a, dtype=np.int64)
    pb = np.asarray(pred_b, dtype=np.int64)
    ga = np.asarray(gt_a, dtype=np.int64)
    gb = np.asarray(gt_b, dtype=np.int64)
    if pa.shape != ga.shape or pb.shape != gb.shape:
        raise XmodError("prediction and ground-truth lengths differ")
    if not include_self and pa.shape != pb.shape:
        raise XmodError("self pairs only exist between equal-length sides")
    keep_a, keep_b = pa != NOISE, pb != NOISE
    label_a, label_b, _ = _codes(pa, pb)
    id_a, id_b, n_ids = _codes(ga, gb)
    joint_a, joint_b = label_a * n_ids + id_a, label_b * n_ids + id_b
    hits = _equal_pairs(joint_a[keep_a], joint_b[keep_b])
    gt_pairs = _equal_pairs(ga, gb)
    pred_pairs = _equal_pairs(pa[keep_a], pb[keep_b])
    if not include_self:
        same_label = (pa == pb) & keep_a
        same_id = ga == gb
        hits -= int(np.count_nonzero(same_label & same_id))
        gt_pairs -= int(np.count_nonzero(same_id))
        pred_pairs -= int(np.count_nonzero(same_label))
    return (hits / gt_pairs if gt_pairs else None), (hits / pred_pairs if pred_pairs else None)


def report_from_hard(hard: dict, gt: GroundTruth, include_self: bool = True) -> MetricsReport:
    """Metrics from the full-length hard label vectors (NOISE where
    unlabeled) that hard maps each name in transfer.LABELS to.

    Intra metrics pair each modality's cross-space labels with themselves;
    cross metrics pair one modality's intra labels with the other's cross
    labels, which share a cluster space by construction.
    """
    intra_v, cross_v, intra_r, cross_r = (
        hard["intra_v"], hard["cross_v"], hard["intra_r"], hard["cross_r"])
    if intra_v.shape != cross_v.shape or intra_r.shape != cross_r.shape:
        raise XmodError("per-modality label vectors must have equal length")
    intra_acc_v, intra_re_v = pair_accuracy_recall(
        cross_v, cross_v, gt.ids_v, gt.ids_v, include_self)
    intra_acc_r, intra_re_r = pair_accuracy_recall(
        cross_r, cross_r, gt.ids_r, gt.ids_r, include_self)
    cross_acc_v, cross_re_v = pair_accuracy_recall(intra_v, cross_r, gt.ids_v, gt.ids_r, True)
    cross_acc_r, cross_re_r = pair_accuracy_recall(cross_v, intra_r, gt.ids_v, gt.ids_r, True)
    return MetricsReport(intra_acc_v, intra_acc_r, cross_acc_v, cross_acc_r,
                         intra_re_v, intra_re_r, cross_re_v, cross_re_r)


def full_report(result: AssociationResult, gt: GroundTruth) -> MetricsReport:
    """Harden all four association outputs and score them against identities."""
    if gt.ids_v.shape[0] != result.n_visible or gt.ids_r.shape[0] != result.n_infrared:
        raise XmodError("ground-truth sizes do not match the association")
    return report_from_hard({name: result.hard(name) for name in LABELS}, gt)
