"""Forward-only training objectives over memory-bank predictions.

Nothing here backpropagates; loss_report gives what the objectives would be
for a batch of features and the label matrices the association step
produced. The active mode decides which cluster space the shared and
auxiliary banks live in: visible clusters in V-based epochs, infrared in
R-based ones.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .core import NOISE, Modality, XmodError, feature_data
from .clustering import MemoryBank, memory_probabilities
from .transfer import DIRECTIONS, LABELS

# Floor inside the log so one-hot targets against zero predictions stay finite.
_LOG_FLOOR = 1e-30


class TrainingMode(Enum):
    V_BASED = "v"
    R_BASED = "r"


def pass_batches(features_v, features_r, labels: dict, batch_size: int) -> Iterator[tuple]:
    """The batches of one loss pass, each (visible rows, infrared rows, soft
    labels of those rows keyed by the names in transfer.LABELS).

    labels maps each name in transfer.LABELS to its (hard, soft) matrices
    over every instance of the name's modality: both must be given, with one
    row per feature row of that modality, or XmodError names the matrix. A
    side's rows are those its intra and cross matrices label (hard label not
    NOISE), in index order; the two must label the same rows. Slot i pairs
    the i-th visible row with the i-th infrared row; the pass stops at the
    shorter side and is cut into batch_size slices.
    """
    data = {Modality.VISIBLE: feature_data(features_v),
            Modality.INFRARED: feature_data(features_r)}
    for name, modality in LABELS.items():
        hard, soft = labels[name]
        if soft is None:
            raise XmodError(f"{name} has no soft labels for the {modality.value} features")
        n = data[modality].shape[0]
        for kind, m in (("", hard), (" soft", soft)):
            if m.shape[0] != n:
                raise XmodError(f"{name} has {m.shape[0]}{kind} rows, "
                                f"but the {modality.value} features have {n}")
    labeled = {name: labels[name][0] != NOISE for name in LABELS}
    # modality -> its intra matrix, whose rows its cross matrix must match
    sides = {LABELS[intra]: intra for intra, _ in DIRECTIONS.values()}
    n = min(int(labeled[name].sum()) for name in sides.values())
    if n == 0:
        raise XmodError("no labeled instances to report on")
    for name, modality in LABELS.items():
        differ = np.flatnonzero(labeled[name] != labeled[sides[modality]])
        if differ.size:
            raise XmodError(f"{sides[modality]} and {name} label different "
                            f"{modality.value} rows, first at row {differ[0]}")
    rows = {modality: np.flatnonzero(labeled[name])[:n] for modality, name in sides.items()}
    fv, fr = (data[m][rows[m]] for m in (Modality.VISIBLE, Modality.INFRARED))
    soft = {name: labels[name][1][rows[modality]] for name, modality in LABELS.items()}
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        yield fv[sl], fr[sl], {name: m[sl] for name, m in soft.items()}


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
        name = "intra_v" if self.mode is TrainingMode.V_BASED else "intra_r"
        src = getattr(self, name)
        if self.shared.k != src.k or self.intra_cross.k != src.k:
            raise XmodError(
                f"shared ({self.shared.k} clusters) and intra_cross ({self.intra_cross.k}) "
                f"must match the source bank {name} ({src.k} clusters)"
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
        raise XmodError("cannot average zero loss reports")
    parts = [f.name for f in fields(LossReport) if f.name != "total"]
    return LossReport.assemble(
        *(sum(getattr(r, name) for r in reports) / len(reports) for name in parts))


def soft_cross_entropy(pred, target):
    """-sum_k target_k * log(max(pred_k, 1e-30)), rowwise for 2-d input."""
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if p.shape != y.shape:
        raise XmodError("prediction and target shapes differ")
    ce = -(y * np.log(np.maximum(p, _LOG_FLOOR))).sum(axis=-1)
    return float(ce) if ce.ndim == 0 else ce


def _mean_ce(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape[1] != target.shape[1]:
        raise XmodError(f"bank space {pred.shape[1]} does not match label space {target.shape[1]}")
    return float(soft_cross_entropy(pred, target).mean())


def loss_report(
    batch: tuple, banks: ModeBanks, tau: float, sharpen_divisor: float
) -> LossReport:
    """All five objectives of one pass_batches batch for the active mode.

    l_im_v / l_im_r are the intra-modality objectives and l_cm scores both
    modalities on the shared bank. l_oclr_v / l_oclr_r pull each modality's
    shared-bank prediction toward the sharper (tau / divisor) predictions of
    the mode's intra and intra-cross banks; both banks live in the source
    cluster space, so the same pair serves both modalities. Each shared-bank
    prediction is computed once and feeds both l_cm and l_oclr.
    """
    def ce(features: np.ndarray, bank: MemoryBank, target: np.ndarray) -> float:
        return _mean_ce(memory_probabilities(features, bank, tau), target)

    fv, fr, y = batch
    if banks.mode is TrainingMode.V_BASED:
        intra, cm_v, cm_r = banks.intra_v, y["intra_v"], y["cross_r"]
        l_im_v = ce(fv, banks.intra_v, y["intra_v"])
        l_im_r = ce(fr, banks.intra_r, y["intra_r"]) + ce(fr, banks.intra_cross, y["cross_r"])
    else:
        intra, cm_v, cm_r = banks.intra_r, y["cross_v"], y["intra_r"]
        # The visible term scores infrared features against the visible intra
        # bank; the auxiliary term scores visible features in the infrared space.
        l_im_v = ce(fr, banks.intra_v, y["intra_v"]) + ce(fv, banks.intra_cross, y["cross_v"])
        l_im_r = ce(fr, banks.intra_r, y["intra_r"])
    shared_v = memory_probabilities(fv, banks.shared, tau)
    shared_r = memory_probabilities(fr, banks.shared, tau)
    l_cm = _mean_ce(shared_v, cm_v) + _mean_ce(shared_r, cm_r)
    sharp = tau / sharpen_divisor

    def oclr(features: np.ndarray, base: np.ndarray) -> float:
        return (_mean_ce(base, memory_probabilities(features, intra, sharp))
                + _mean_ce(base, memory_probabilities(features, banks.intra_cross, sharp)))

    return LossReport.assemble(l_im_v, l_im_r, l_cm, oclr(fv, shared_v), oclr(fr, shared_r))
