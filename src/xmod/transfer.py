"""Affinity-guided label transfer between two modalities.

One direction of association works on a source modality (whose clusters
define the label space) and a target modality. Instance labels start from
the source memory probabilities (intra) and a balanced transport assignment
of target instances onto source clusters (cross), then the two matrices are
alternately pulled toward their cross-modality counterparts and smoothed
over the within-modality affinity graph until the updates stall.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import (
    NOISE,
    PipelineConfig,
    ShapeMismatchError,
    SoftLabelMatrix,
    feature_data,
    hard_from_soft,
)
from .affinity import homogeneous_affinity
from .clustering import ClusterAssignment, centroids, memory_probabilities
from .transport import heterogeneous_affinity, otla_init

# Probabilities below this are snapped to zero (rows are renormalized after).
_CLAMP = 1e-12

# Sentinel update magnitude before the first transfer step.
_EPSILON_START = 1e6


class Direction(Enum):
    V2R = "v2r"
    R2V = "r2v"
    BOTH = "both"


@dataclass(frozen=True)
class DirectionAffinities:
    """Row-stochastic affinities for one direction of transfer.

    ho_src / ho_tgt are within-modality; he_st maps target rows onto source
    instances (shape Nsrc x Ntgt) and he_ts the reverse.
    """

    ho_src: np.ndarray
    ho_tgt: np.ndarray
    he_st: np.ndarray
    he_ts: np.ndarray

    def __post_init__(self):
        ns, nt = self.he_st.shape
        if self.ho_src.shape != (ns, ns) or self.ho_tgt.shape != (nt, nt):
            raise ShapeMismatchError("homogeneous affinity shapes do not match")
        if self.he_ts.shape != (nt, ns):
            raise ShapeMismatchError("heterogeneous affinity shapes do not match")


@dataclass(frozen=True)
class TransferState:
    intra: np.ndarray
    cross: np.ndarray
    intra0: np.ndarray
    cross0: np.ndarray
    t: int = 0
    epsilon: float = _EPSILON_START
    cap_hit: bool = False


def _clamp_renorm(probs: np.ndarray) -> np.ndarray:
    out = np.where(probs < _CLAMP, 0.0, probs)
    return out / out.sum(axis=1, keepdims=True)


def init_labels(features_src, features_tgt, assign_src: ClusterAssignment, cfg: PipelineConfig):
    """Initial label state for one direction: (state, source bank).

    Intra labels are the source instances' memory probabilities against their
    own cluster prototypes; cross labels are the balanced one-hot transport
    assignment of target instances onto those prototypes.
    """
    bank_src = centroids(features_src, assign_src)
    intra0 = memory_probabilities(features_src, bank_src, cfg.tau)
    cross0 = otla_init(features_tgt, bank_src, cfg.ot_lambda).probs
    state = TransferState(intra0.copy(), cross0.copy(), intra0, cross0)
    return state, bank_src


def _pairwise_label_gap(aff: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sum_ij aff_ij * ||a_i - b_j||^2 without forming the N x N x K tensor."""
    row = aff.sum(axis=1) @ (a * a).sum(axis=1)
    col = aff.sum(axis=0) @ (b * b).sum(axis=1)
    mix = float((aff * (a @ b.T)).sum())
    # Cancellation can leave a tiny negative for near-identical rows.
    return max(float(row + col - 2.0 * mix), 0.0)


def inconsistency(state: TransferState, aff: DirectionAffinities, alpha: float) -> dict:
    """Current disagreement energies plus their weighted combination, keyed
    as in the ``--trace`` JSON (inconsistency_report.schema.json)."""
    ho_s = _pairwise_label_gap(aff.ho_src, state.intra, state.intra)
    ho_t = _pairwise_label_gap(aff.ho_tgt, state.cross, state.cross)
    he_s = _pairwise_label_gap(aff.he_st, state.intra, state.cross)
    he_t = _pairwise_label_gap(aff.he_ts, state.cross, state.intra)
    self_s = float(((state.intra - state.intra0) ** 2).sum())
    self_t = float(((state.cross - state.cross0) ** 2).sum())
    total = (ho_s + ho_t) + alpha * (self_s + self_t) + (1.0 - alpha) * (he_s + he_t)
    return {
        "homogeneous_src": ho_s,
        "homogeneous_tgt": ho_t,
        "heterogeneous_src": he_s,
        "heterogeneous_tgt": he_t,
        "self_src": self_s,
        "self_tgt": self_t,
        "weighted_total": total,
    }


def transfer_step(state: TransferState, aff: DirectionAffinities, alpha: float) -> TransferState:
    """One alternation: pull each side toward the other's labels across the
    transport affinity, anchor on its own init, then smooth homogeneously.

    Both updates read the pre-update labels of the other side.
    """
    z = (1.0 - alpha) * (aff.he_st @ state.cross) + alpha * state.intra0
    intra_new = _clamp_renorm(0.5 * (aff.ho_src @ z + z))
    w = (1.0 - alpha) * (aff.he_ts @ state.intra) + alpha * state.cross0
    cross_new = _clamp_renorm(0.5 * (aff.ho_tgt @ w + w))
    eps = max(
        float(np.abs(intra_new - state.intra).sum()),
        float(np.abs(cross_new - state.cross).sum()),
    )
    return replace(
        state, intra=intra_new, cross=cross_new, t=state.t + 1, epsilon=eps
    )


def run_transfer(
    state: TransferState,
    aff: DirectionAffinities,
    cfg: PipelineConfig,
    on_step=None,
) -> TransferState:
    """Iterate transfer_step until the larger entrywise-L1 update falls to
    cfg.epsilon0, or cfg.max_transfer_iters steps have run (cap_hit is set)."""
    while state.epsilon > cfg.epsilon0:
        if state.t >= cfg.max_transfer_iters:
            state = replace(state, cap_hit=True)
            break
        state = transfer_step(state, aff, cfg.alpha)
        if on_step is not None:
            on_step(state)
    return state


def fuse_labels(state: TransferState, beta: float) -> tuple[SoftLabelMatrix, SoftLabelMatrix]:
    """Blend each transferred matrix with its own hardened version:
    beta * one_hot(argmax) + (1 - beta) * renormalized soft labels."""

    def fuse(probs: np.ndarray) -> SoftLabelMatrix:
        soft = probs / probs.sum(axis=1, keepdims=True)
        hard = np.zeros_like(soft)
        hard[np.arange(soft.shape[0]), np.argmax(soft, axis=1)] = 1.0
        return SoftLabelMatrix(_clamp_renorm(beta * hard + (1.0 - beta) * soft))

    return fuse(state.intra), fuse(state.cross)


@dataclass(frozen=True)
class LabeledSubset:
    """Labels over the clustered (non-noise) subset of one modality."""

    indices: np.ndarray
    labels: SoftLabelMatrix

    def __post_init__(self):
        if self.indices.shape[0] != self.labels.n:
            raise ShapeMismatchError("index count does not match label rows")

    def hard_full(self, total: int) -> np.ndarray:
        """Hard labels over all ``total`` instances, NOISE where unlabeled."""
        out = np.full(total, NOISE, dtype=np.int64)
        out[self.indices] = hard_from_soft(self.labels)
        return out

    def soft_full(self, total: int) -> np.ndarray:
        """Soft rows over all instances; unlabeled rows are all-zero."""
        out = np.zeros((total, self.labels.space_size), dtype=np.float64)
        out[self.indices] = self.labels.probs
        return out


@dataclass(frozen=True)
class AssociationResult:
    """The up-to-four label matrices one associator run produces.

    intra_v / cross_r live in the visible cluster space, intra_r / cross_v in
    the infrared one. Fields for a direction that was not run are None.
    """

    n_visible: int
    n_infrared: int
    intra_v: LabeledSubset | None = None
    cross_r: LabeledSubset | None = None
    intra_r: LabeledSubset | None = None
    cross_v: LabeledSubset | None = None
    traces: dict | None = None


def _subset(features, assign: ClusterAssignment):
    idx = assign.clustered_indices()
    if idx.size == 0:
        raise ShapeMismatchError("every instance is noise; nothing to associate")
    sub_assign = ClusterAssignment(assign.labels[idx], assign.k)
    data = feature_data(features)
    return idx, data[idx], sub_assign


def _transfer_one_direction(
    f_src: np.ndarray,
    assign_src: ClusterAssignment,
    f_tgt: np.ndarray,
    aff: DirectionAffinities,
    cfg: PipelineConfig,
    collect_trace: bool = False,
):
    """Run one direction end to end on pre-filtered instances.

    Returns (intra SoftLabelMatrix, cross SoftLabelMatrix, trace list). Both
    directions go through this exact routine, so swapping the modality roles
    swaps the outputs bit for bit.
    """
    state, _ = init_labels(f_src, f_tgt, assign_src, cfg)
    trace: list[dict] = []

    def record(st: TransferState) -> None:
        entry = inconsistency(st, aff, cfg.alpha)
        entry.update(t=st.t, epsilon=float(st.epsilon))
        trace.append(entry)

    if collect_trace:
        init_entry = inconsistency(state, aff, cfg.alpha)
        init_entry.update(t=0, epsilon=None)
        trace.append(init_entry)
    state = run_transfer(state, aff, cfg, on_step=record if collect_trace else None)
    intra, cross = fuse_labels(state, cfg.beta)
    return intra, cross, trace


def mult_associate(
    features_v,
    features_r,
    assign_v: ClusterAssignment,
    assign_r: ClusterAssignment,
    cfg: PipelineConfig,
    direction: Direction = Direction.BOTH,
    collect_trace: bool = False,
) -> AssociationResult:
    """Full association pass. DBSCAN-noise instances sit out entirely.

    V2R treats visible as the source (labels live in the visible cluster
    space); R2V is the same computation with the modalities swapped. Each
    modality's graph and the cross-modality plan are built once and shared
    by both directions. The plan is solved with the subset that sorts first
    by (row count, bytes) on the rows, so swapping the modalities swaps the
    outputs bit for bit.
    """
    idx_v, fv_sub, sub_v = _subset(features_v, assign_v)
    idx_r, fr_sub, sub_r = _subset(features_r, assign_r)
    ho_v = homogeneous_affinity(fv_sub, cfg.kappa)
    ho_r = homogeneous_affinity(fr_sub, cfg.kappa)
    if (fv_sub.shape[0], fv_sub.tobytes()) <= (fr_sub.shape[0], fr_sub.tobytes()):
        he_vr, he_rv = heterogeneous_affinity(fv_sub, fr_sub, cfg.ot_lambda)
    else:
        he_rv, he_vr = heterogeneous_affinity(fr_sub, fv_sub, cfg.ot_lambda)
    fields: dict = {}
    traces: dict = {}
    if direction in (Direction.V2R, Direction.BOTH):
        aff = DirectionAffinities(ho_v, ho_r, he_vr, he_rv)
        intra, cross, trace = _transfer_one_direction(
            fv_sub, sub_v, fr_sub, aff, cfg, collect_trace
        )
        fields["intra_v"] = LabeledSubset(idx_v, intra)
        fields["cross_r"] = LabeledSubset(idx_r, cross)
        traces["v2r"] = trace
    if direction in (Direction.R2V, Direction.BOTH):
        aff = DirectionAffinities(ho_r, ho_v, he_rv, he_vr)
        intra, cross, trace = _transfer_one_direction(
            fr_sub, sub_r, fv_sub, aff, cfg, collect_trace
        )
        fields["intra_r"] = LabeledSubset(idx_r, intra)
        fields["cross_v"] = LabeledSubset(idx_v, cross)
        traces["r2v"] = trace
    return AssociationResult(
        n_visible=assign_v.n,
        n_infrared=assign_r.n,
        traces=traces if collect_trace else None,
        **fields,
    )
