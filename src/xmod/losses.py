"""Forward-only training objectives over memory-bank predictions.

Nothing here backpropagates; the functions report what the objectives would
be for a batch of features and the label matrices the association step
produced. The active mode decides which cluster space the shared and
auxiliary banks live in: visible clusters in V-based epochs, infrared in
R-based ones.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .core import ModeMismatchError, ShapeMismatchError, XmodError
from .clustering import MemoryBank, memory_probabilities

# Floor inside the log so one-hot targets against zero predictions stay finite.
_LOG_FLOOR = 1e-30


class TrainingMode(Enum):
    V_BASED = "v"
    R_BASED = "r"


@dataclass(frozen=True)
class Batch:
    """Paired feature rows plus each side's label rows, taken from the
    association outputs."""

    features_v: np.ndarray
    features_r: np.ndarray
    intra_v: np.ndarray   # visible labels, visible cluster space
    intra_r: np.ndarray   # infrared labels, infrared cluster space
    cross_v: np.ndarray   # visible labels, infrared cluster space
    cross_r: np.ndarray   # infrared labels, visible cluster space

    def __post_init__(self):
        b = self.features_v.shape[0]
        if self.features_r.shape[0] != b:
            raise ShapeMismatchError("modal feature counts differ within a batch")
        for name in ("intra_v", "intra_r", "cross_v", "cross_r"):
            if getattr(self, name).shape[0] != b:
                raise ShapeMismatchError(f"{name} rows do not match the batch size")


def pass_batches(rows_v, rows_r, batch_size: int) -> Iterator[Batch]:
    """The batches of one loss pass.

    rows_v and rows_r are each side's (features, intra, cross) rows, already
    in slot order: slot i pairs the i-th visible row with the i-th infrared
    row. The pass stops at the shorter side and is cut into batch_size slices.
    """
    features_v, intra_v, cross_v = rows_v
    features_r, intra_r, cross_r = rows_r
    n = min(features_v.shape[0], features_r.shape[0])
    if n == 0:
        raise XmodError("no labeled instances to report on")
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        yield Batch(features_v[sl], features_r[sl], intra_v[sl], intra_r[sl],
                    cross_v[sl], cross_r[sl])


@dataclass(frozen=True)
class ModeBanks:
    """The four banks one training mode reads.

    shared and intra_cross always live in the mode's source cluster space
    (visible for V-based, infrared for R-based).
    """

    mode: TrainingMode
    intra_v: MemoryBank
    intra_r: MemoryBank
    shared: MemoryBank
    intra_cross: MemoryBank

    def __post_init__(self):
        src = self.intra_v if self.mode is TrainingMode.V_BASED else self.intra_r
        if self.shared.k != src.k or self.intra_cross.k != src.k:
            raise ModeMismatchError(
                "shared/auxiliary banks must match the source cluster space"
            )


@dataclass(frozen=True)
class LossReport:
    l_im_v: float
    l_im_r: float
    l_cm: float
    l_oclr_v: float
    l_oclr_r: float
    total: float

    @classmethod
    def assemble(cls, l_im_v, l_im_r, l_cm, l_oclr_v, l_oclr_r) -> "LossReport":
        parts = (l_im_v, l_im_r, l_cm, l_oclr_v, l_oclr_r)
        return cls(*parts, total=float(sum(parts)))

    def to_dict(self) -> dict:
        return asdict(self)


def mean_reports(reports: list[LossReport]) -> LossReport:
    if not reports:
        raise ShapeMismatchError("cannot average zero loss reports")
    n = len(reports)
    return LossReport.assemble(
        sum(r.l_im_v for r in reports) / n,
        sum(r.l_im_r for r in reports) / n,
        sum(r.l_cm for r in reports) / n,
        sum(r.l_oclr_v for r in reports) / n,
        sum(r.l_oclr_r for r in reports) / n,
    )


def soft_cross_entropy(pred, target):
    """-sum_k target_k * log(max(pred_k, 1e-30)), rowwise for 2-d input."""
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeMismatchError("prediction and target shapes differ")
    ce = -(y * np.log(np.maximum(p, _LOG_FLOOR))).sum(axis=-1)
    return float(ce) if ce.ndim == 0 else ce


def _mean_ce(features: np.ndarray, bank: MemoryBank, tau: float, target: np.ndarray) -> float:
    pred = memory_probabilities(features, bank, tau)
    if pred.shape[1] != target.shape[1]:
        raise ModeMismatchError(
            f"bank space {pred.shape[1]} does not match label space {target.shape[1]}"
        )
    return float(soft_cross_entropy(pred, target).mean())


def loss_im(batch: Batch, banks: ModeBanks, tau: float) -> tuple[float, float]:
    """Intra-modality objectives (l_im_v, l_im_r) for the active mode."""
    if banks.mode is TrainingMode.V_BASED:
        l_v = _mean_ce(batch.features_v, banks.intra_v, tau, batch.intra_v)
        l_r = (_mean_ce(batch.features_r, banks.intra_r, tau, batch.intra_r)
               + _mean_ce(batch.features_r, banks.intra_cross, tau, batch.cross_r))
    else:
        # The visible term scores infrared features against the visible intra
        # bank; the auxiliary term scores visible features in the infrared space.
        l_v = (_mean_ce(batch.features_r, banks.intra_v, tau, batch.intra_v)
               + _mean_ce(batch.features_v, banks.intra_cross, tau, batch.cross_v))
        l_r = _mean_ce(batch.features_r, banks.intra_r, tau, batch.intra_r)
    return l_v, l_r


def loss_cm(batch: Batch, banks: ModeBanks, tau: float) -> float:
    """Cross-modality objective: both modalities scored on the shared bank."""
    if banks.mode is TrainingMode.V_BASED:
        return (_mean_ce(batch.features_v, banks.shared, tau, batch.intra_v)
                + _mean_ce(batch.features_r, banks.shared, tau, batch.cross_r))
    return (_mean_ce(batch.features_v, banks.shared, tau, batch.cross_v)
            + _mean_ce(batch.features_r, banks.shared, tau, batch.intra_r))


def loss_oclr(
    batch: Batch, banks: ModeBanks, tau: float, sharpen_divisor: float
) -> tuple[float, float]:
    """Online refinement objective (visible, infrared).

    Shared-bank predictions are pulled toward the sharper (tau / divisor)
    predictions of the mode's intra and intra-cross banks; both banks live in
    the source cluster space, so the same pair serves both modalities.
    """
    intra = banks.intra_v if banks.mode is TrainingMode.V_BASED else banks.intra_r
    sharp = tau / sharpen_divisor

    def one(features: np.ndarray) -> float:
        base = memory_probabilities(features, banks.shared, tau)
        t1 = memory_probabilities(features, intra, sharp)
        t2 = memory_probabilities(features, banks.intra_cross, sharp)
        return float(
            soft_cross_entropy(base, t1).mean() + soft_cross_entropy(base, t2).mean()
        )

    return one(batch.features_v), one(batch.features_r)


def loss_report(
    batch: Batch, banks: ModeBanks, tau: float, sharpen_divisor: float
) -> LossReport:
    l_im_v, l_im_r = loss_im(batch, banks, tau)
    l_cm = loss_cm(batch, banks, tau)
    l_oclr_v, l_oclr_r = loss_oclr(batch, banks, tau, sharpen_divisor)
    return LossReport.assemble(l_im_v, l_im_r, l_cm, l_oclr_v, l_oclr_r)
