"""Independent re-implementations of library arithmetic, used as oracles.

The loss and metric oracles work element by element with python floats and
math.exp, so the library's vectorized code is checked against a genuinely
independent route. The Newton oracle solves the transport dual's full
Hessian directly, the route the library's block elimination replaces, and
the factored transfer step applies the four affinities one by one, the route
the library's composite operators replace. The label CSV writer and reader
go through the ``csv`` module, the route the library's split-and-join code
replaces.
"""
import csv
import io
import math
from dataclasses import replace

import numpy as np

from xmod.core import FileFormatError
from xmod.losses import TrainingMode

NOISE = -1


def pair_counts(pred_a, pred_b, gt_a, gt_b, include_self=True):
    """Double-loop enumeration of (hits, gt pairs, predicted pairs)."""
    hits = gt_pairs = pred_pairs = 0
    for i in range(len(pred_a)):
        for j in range(len(pred_b)):
            if not include_self and i == j:
                continue
            pred_match = (pred_a[i] == pred_b[j]
                          and pred_a[i] != NOISE and pred_b[j] != NOISE)
            gt_match = gt_a[i] == gt_b[j]
            if gt_match:
                gt_pairs += 1
            if pred_match:
                pred_pairs += 1
            if pred_match and gt_match:
                hits += 1
    return hits, gt_pairs, pred_pairs


def pair_accuracy(pred_a, pred_b, gt_a, gt_b, include_self=True):
    hits, gt_pairs, _ = pair_counts(pred_a, pred_b, gt_a, gt_b, include_self)
    return hits / gt_pairs if gt_pairs else None


def pair_recall(pred_a, pred_b, gt_a, gt_b, include_self=True):
    hits, _, pred_pairs = pair_counts(pred_a, pred_b, gt_a, gt_b, include_self)
    return hits / pred_pairs if pred_pairs else None


def metrics_report_oracle(intra_v, cross_r, intra_r, cross_v, gt, include_self=True):
    """All eight metrics from the double-loop counts, in report field order."""
    return (
        pair_accuracy(cross_v, cross_v, gt.ids_v, gt.ids_v, include_self),
        pair_accuracy(cross_r, cross_r, gt.ids_r, gt.ids_r, include_self),
        pair_accuracy(intra_v, cross_r, gt.ids_v, gt.ids_r),
        pair_accuracy(cross_v, intra_r, gt.ids_v, gt.ids_r),
        pair_recall(cross_v, cross_v, gt.ids_v, gt.ids_v, include_self),
        pair_recall(cross_r, cross_r, gt.ids_r, gt.ids_r, include_self),
        pair_recall(intra_v, cross_r, gt.ids_v, gt.ids_r),
        pair_recall(cross_v, intra_r, gt.ids_v, gt.ids_r),
    )


def softmax_row(feature, prototypes, tau):
    logits = [
        sum(float(feature[d]) * float(p[d]) for d in range(len(feature))) / tau
        for p in prototypes
    ]
    top = max(logits)
    exps = [math.exp(v - top) for v in logits]
    z = sum(exps)
    return [e / z for e in exps]

def cross_entropy_row(pred, target):
    return -sum(float(t) * math.log(max(float(p), 1e-30))
                for p, t in zip(pred, target))

def mean_ce(features, prototypes, tau, targets):
    vals = [
        cross_entropy_row(softmax_row(f, prototypes, tau), t)
        for f, t in zip(features, targets)
    ]
    return sum(vals) / len(vals)


def loss_report_oracle(batch, banks, tau, sharpen_divisor):
    """All five components, assembled term by term from scalar arithmetic."""
    fv, fr = batch.features_v, batch.features_r
    m_v, m_r = banks.intra_v.prototypes, banks.intra_r.prototypes
    m_sh, m_ic = banks.shared.prototypes, banks.intra_cross.prototypes

    if banks.mode is TrainingMode.V_BASED:
        l_im_v = mean_ce(fv, m_v, tau, batch.intra_v)
        l_im_r = (mean_ce(fr, m_r, tau, batch.intra_r)
                  + mean_ce(fr, m_ic, tau, batch.cross_r))
        l_cm = (mean_ce(fv, m_sh, tau, batch.intra_v)
                + mean_ce(fr, m_sh, tau, batch.cross_r))
        sharp_bank = m_v
    else:
        l_im_v = (mean_ce(fr, m_v, tau, batch.intra_v)
                  + mean_ce(fv, m_ic, tau, batch.cross_v))
        l_im_r = mean_ce(fr, m_r, tau, batch.intra_r)
        l_cm = (mean_ce(fv, m_sh, tau, batch.cross_v)
                + mean_ce(fr, m_sh, tau, batch.intra_r))
        sharp_bank = m_r

    def oclr_one(features):
        total = 0.0
        for f in features:
            base = softmax_row(f, m_sh, tau)
            t1 = softmax_row(f, sharp_bank, tau / sharpen_divisor)
            t2 = softmax_row(f, m_ic, tau / sharpen_divisor)
            total += cross_entropy_row(base, t1) + cross_entropy_row(base, t2)
        return total / len(features)

    l_oclr_v = oclr_one(fv)
    l_oclr_r = oclr_one(fr)
    return l_im_v, l_im_r, l_cm, l_oclr_v, l_oclr_r


def newton_direction_dense(plan, r, c):
    """Newton direction (df, dg) of the entropic transport dual at ``plan``.

    Builds the dense (n+m)-square Hessian [[diag a, P], [P^T, diag b]] with
    a = P1 and b = P^T 1, adds the solver's ridge 1e-12 * max(a, b) + 1e-300
    on the diagonal, and solves it against the marginal residual [r - a; c - b].
    """
    a = plan.sum(axis=1)
    b = plan.sum(axis=0)
    n, m = plan.shape
    h = np.zeros((n + m, n + m))
    h[:n, :n] = np.diag(a)
    h[n:, n:] = np.diag(b)
    h[:n, n:] = plan
    h[n:, :n] = plan.T
    h[np.diag_indices(n + m)] += 1e-12 * max(a.max(), b.max()) + 1e-300
    delta = np.linalg.solve(h, np.concatenate([r - a, c - b]))
    return delta[:n], delta[n:]


def transfer_step_factored(state, aff, alpha):
    """One transfer step with the four affinities applied as separate products.

    Each side is pulled across its transport affinity and toward its own init,
    z = (1 - alpha) * he @ other + alpha * init, then smoothed as
    0.5 * (ho @ z + z); values below 1e-12 are zeroed and rows renormalized.
    Returns the state advanced by one step with epsilon the larger L1 update.
    """

    def clamp_renorm(probs):
        out = np.where(probs < 1e-12, 0.0, probs)
        return out / out.sum(axis=1, keepdims=True)

    z = (1.0 - alpha) * (aff.he_st @ state.cross) + alpha * state.intra0
    intra_new = clamp_renorm(0.5 * (aff.ho_src @ z + z))
    w = (1.0 - alpha) * (aff.he_ts @ state.intra) + alpha * state.cross0
    cross_new = clamp_renorm(0.5 * (aff.ho_tgt @ w + w))
    eps = max(
        float(np.abs(intra_new - state.intra).sum()),
        float(np.abs(cross_new - state.cross).sum()),
    )
    return replace(state, intra=intra_new, cross=cross_new, t=state.t + 1, epsilon=eps)


def write_labels_csv(path, hard, soft=None):
    """Label CSV through ``csv.writer``: ``index,hard_label`` plus ``p0..``
    columns holding ``repr(float(v))``, LF line ends."""
    hard = np.asarray(hard)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["index", "hard_label"]
    if soft is not None:
        soft = np.asarray(soft, dtype=np.float64)
        header += [f"p{k}" for k in range(soft.shape[1])]
    writer.writerow(header)
    for i, h in enumerate(hard):
        row = [i, int(h)]
        if soft is not None:
            row += [repr(float(v)) for v in soft[i]]
        writer.writerow(row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_labels_csv(path):
    """(hard, soft-or-None) of a label CSV read through ``csv.reader``, with
    the library's checks: header, field count, integer index and label,
    contiguous index, numeric and finite soft values; blank rows skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["index", "hard_label"]:
            raise FileFormatError(f"{path}: expected an index,hard_label header")
        hard, soft = [], []
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise FileFormatError(
                    f"{path}: line {line} has {len(row)} fields, the header {len(header)}"
                )
            try:
                index, label = int(row[0]), int(row[1])
            except ValueError:
                raise FileFormatError(
                    f"{path}: line {line} needs an integer index and hard_label"
                ) from None
            if index != len(hard):
                raise FileFormatError(f"{path}: non-contiguous index at line {line}")
            hard.append(label)
            if row[2:]:
                try:
                    values = [float(v) for v in row[2:]]
                except ValueError:
                    raise FileFormatError(
                        f"{path}: non-numeric soft label at line {line}"
                    ) from None
                if not all(math.isfinite(v) for v in values):
                    raise FileFormatError(f"{path}: non-finite soft label at line {line}")
                soft.append(values)
    if not hard:
        raise FileFormatError(f"{path}: no label rows")
    return (np.asarray(hard, dtype=np.int64),
            np.asarray(soft, dtype=np.float64) if soft else None)
