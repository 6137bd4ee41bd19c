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


def pair_accuracy_recall(pred_a, pred_b, gt_a, gt_b, include_self: bool):
    """(accuracy, recall) from one count of the pairs: the fraction of
    same-identity pairs that received the same label, and the fraction of
    same-label pairs that are truly the same identity."""
    pa = np.asarray(pred_a, dtype=np.int64)
    pb = np.asarray(pred_b, dtype=np.int64)
    ga = np.asarray(gt_a, dtype=np.int64)
    gb = np.asarray(gt_b, dtype=np.int64)
    if pa.shape != ga.shape or pb.shape != gb.shape:
        raise XmodError("prediction and ground-truth lengths differ")
    pred_match = (pa[:, None] == pb[None, :]) & (pa[:, None] != NOISE) & (pb[None, :] != NOISE)
    gt_match = ga[:, None] == gb[None, :]
    if not include_self:
        if pa.shape != pb.shape:
            raise XmodError("self pairs only exist between equal-length sides")
        np.fill_diagonal(pred_match, False)
        np.fill_diagonal(gt_match, False)
    hits = int((pred_match & gt_match).sum())
    gt_pairs, pred_pairs = int(gt_match.sum()), int(pred_match.sum())
    return (hits / gt_pairs if gt_pairs else None), (hits / pred_pairs if pred_pairs else None)


def report_from_hard(
    intra_v: np.ndarray,
    cross_r: np.ndarray,
    intra_r: np.ndarray,
    cross_v: np.ndarray,
    gt: GroundTruth,
    include_self: bool = True,
) -> MetricsReport:
    """Metrics from full-length hard label vectors (NOISE where unlabeled).

    Intra metrics pair each modality's cross-space labels with themselves;
    cross metrics pair one modality's intra labels with the other's cross
    labels, which share a cluster space by construction.
    """
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
    hard = {name: result.hard(name) for name in LABELS}
    for name, labels in hard.items():
        if labels is None:
            raise XmodError(f"full_report needs both directions; {name} missing")
    if gt.ids_v.shape[0] != result.n_visible or gt.ids_r.shape[0] != result.n_infrared:
        raise XmodError("ground-truth sizes do not match the association")
    return report_from_hard(*hard.values(), gt)
