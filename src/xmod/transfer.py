"""Affinity-guided label transfer between two modalities.

One direction of association works on a source modality (whose clusters
define the label space) and a target modality. Instance labels start from
the source memory probabilities (intra) and a balanced transport assignment
of target instances onto source clusters (cross), then the two matrices are
alternately pulled toward their cross-modality counterparts and smoothed
over the within-modality affinity graph until an update falls to epsilon0
or the step cap is reached.

A step is a Gauss–Seidel sweep: intra is pulled from the previous cross
labels, then cross from the intra labels just computed. Its fixed point is
that of the Jacobi step, which pulls both from the previous labels, but the
Jacobi step's linear part is the block 2-cyclic (1−α)·[[0, A_st], [A_ts, 0]],
and the sweep contracts at the square of its rate, so it meets an epsilon0
in about half the steps.

The smoothing is linear, so it is folded into the transport operator once
per association: A_st = ½(ho_src + I)·he_st and A_ts = ½(ho_tgt + I)·he_ts.
The reverse direction uses the same two composites with their roles swapped,
so one association builds two N×N·N×N products, and each transfer step is
two N×N·N×K products.

The operator is float32: the plan factors come rounded to float32 from
heterogeneous_affinity, the composites are built and stored in float32, and
a step multiplies them by the labels rounded to float32. Everything else
(labels, anchors, the clamp, the renormalization, the update ε, fusion and
the trace energies) is float64.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    NOISE,
    Modality,
    PipelineConfig,
    SoftLabelMatrix,
    XmodError,
    feature_data,
)
from .affinity import homogeneous_affinity
from .clustering import ClusterAssignment, centroids, memory_probabilities
from .transport import heterogeneous_affinity, otla_init

# Probabilities below this are snapped to zero (rows are renormalized after).
_CLAMP = 1e-12

# The four label matrices in the order of the CLI's label files: V2R's intra
# and cross, then R2V's; each with the modality whose every instance it covers.
LABELS = dict(intra_v=Modality.VISIBLE, cross_r=Modality.INFRARED,
              intra_r=Modality.INFRARED, cross_v=Modality.VISIBLE)

# Each direction's (intra, cross) matrices, keyed as its --trace files are
# named: the source's intra labels and the target's cross labels, both in the
# source's cluster space.
DIRECTIONS = {"v2r": ("intra_v", "cross_r"), "r2v": ("intra_r", "cross_v")}


def smoothed_transport(ho: np.ndarray, he: np.ndarray) -> np.ndarray:
    """½(ho + I)·he in float32 whatever the inputs' dtype: one SGEMM, then
    the add and the halving in the product's own array."""
    he = np.asarray(he, dtype=np.float32)
    out = np.asarray(ho, dtype=np.float32) @ he
    out += he
    out *= 0.5
    return out


@dataclass(frozen=True)
class DirectionAffinities:
    """Row-stochastic affinities for one direction of transfer.

    ho_src / ho_tgt are within-modality (float64); he_st maps target rows
    onto source instances (shape Nsrc x Ntgt) and he_ts the reverse (float32
    from heterogeneous_affinity; any float dtype is taken). a_st / a_ts are
    the float32 composites smoothed_transport(ho_src, he_st) / (ho_tgt,
    he_ts) the transfer step applies. Only the trace energies read ho and
    he, so the graphs may be None; every array given is shape-checked.
    """

    ho_src: np.ndarray | None
    ho_tgt: np.ndarray | None
    he_st: np.ndarray
    he_ts: np.ndarray
    a_st: np.ndarray = field(repr=False)
    a_ts: np.ndarray = field(repr=False)

    def __post_init__(self):
        ns, nt = self.he_st.shape
        for ho, n in ((self.ho_src, ns), (self.ho_tgt, nt)):
            if ho is not None and ho.shape != (n, n):
                raise XmodError("homogeneous affinity shapes do not match")
        if self.he_ts.shape != (nt, ns):
            raise XmodError("heterogeneous affinity shapes do not match")
        if self.a_st.shape != (ns, nt) or self.a_ts.shape != (nt, ns):
            raise XmodError("composite affinity shapes do not match")

    def swapped(self) -> DirectionAffinities:
        """The reverse direction over the same arrays: nothing is rebuilt."""
        return DirectionAffinities(self.ho_tgt, self.ho_src, self.he_ts, self.he_st,
                                   a_st=self.a_ts, a_ts=self.a_st)


@dataclass(frozen=True)
class TransferState:
    intra: np.ndarray
    cross: np.ndarray
    intra0: np.ndarray
    cross0: np.ndarray
    t: int = 0
    epsilon: float = np.inf  # no step yet, so every run takes at least one
    cap_hit: bool = False


def _clamp_renorm(out: np.ndarray) -> np.ndarray:
    """Zero the entries below _CLAMP and rescale each row to sum 1, in place."""
    out[out < _CLAMP] = 0.0
    out /= out.sum(axis=1, keepdims=True)
    return out


def _pull(a: np.ndarray, other: np.ndarray, alpha: float, anchor: np.ndarray) -> np.ndarray:
    """_clamp_renorm((1−α)·(a·other) + anchor): the float32 composite times
    the labels rounded to float32 (one SGEMM), the rest in float64."""
    out = np.multiply(a @ other.astype(np.float32), 1.0 - alpha, dtype=np.float64)
    out += anchor
    return _clamp_renorm(out)


def _l1_gap(new: np.ndarray, old: np.ndarray) -> float:
    gap = new - old
    return float(np.abs(gap, out=gap).sum())


def init_labels(
    features_src, features_tgt, assign_src: ClusterAssignment, cfg: PipelineConfig
) -> TransferState:
    """Initial label state for one direction.

    Intra labels are the source instances' memory probabilities against their
    own cluster prototypes; cross labels are the balanced one-hot transport
    assignment of target instances onto those prototypes.
    """
    bank_src = centroids(features_src, assign_src)
    intra0 = memory_probabilities(features_src, bank_src, cfg.tau)
    cross0 = otla_init(features_tgt, bank_src, cfg.ot_lambda).probs
    return TransferState(intra0, cross0, intra0, cross0)


def _pairwise_label_gap(aff: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sum_ij aff_ij * ||a_i - b_j||^2 without forming the N x N x K tensor.
    The affinity's sums accumulate in float64 whatever its dtype: summed in
    float32, a float32 plan factor's row and column sums lose ~7 digits."""
    row = aff.sum(axis=1, dtype=np.float64) @ (a * a).sum(axis=1)
    col = aff.sum(axis=0, dtype=np.float64) @ (b * b).sum(axis=1)
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


def smoothed_anchor(ho: np.ndarray, init: np.ndarray, alpha: float) -> np.ndarray:
    """α·½(ho + I)·init: the part of a step on init's modality that never changes."""
    return alpha * (0.5 * (ho @ init + init))


def transfer_step(
    state: TransferState, aff: DirectionAffinities, alpha: float, anchors
) -> TransferState:
    """One alternation: pull each side toward the other's labels across the
    transport affinity, anchor on its own init, then smooth homogeneously.

    Smoothing ½(ho + I)·z with z = (1−α)·he·other + α·init is linear, so it
    is applied as (1−α)·a·other + α·½(ho + I)·init: two N×N·N×K products
    with the composites and the run's anchors (smoothed_anchor), which are
    computed once per run. The intra update reads the previous cross labels
    and the cross update the intra labels just computed (a Gauss–Seidel
    sweep); neither writes into the state's arrays.
    """
    anchor_intra, anchor_cross = anchors
    intra_new = _pull(aff.a_st, state.cross, alpha, anchor_intra)
    cross_new = _pull(aff.a_ts, intra_new, alpha, anchor_cross)
    eps = max(_l1_gap(intra_new, state.intra), _l1_gap(cross_new, state.cross))
    return replace(
        state, intra=intra_new, cross=cross_new, t=state.t + 1, epsilon=eps
    )


def run_transfer(
    state: TransferState,
    aff: DirectionAffinities,
    cfg: PipelineConfig,
    anchors,
    on_step=None,
) -> TransferState:
    """Iterate transfer_step with the run's (intra, cross) anchors until the
    larger entrywise-L1 update falls to cfg.epsilon0, or cfg.max_transfer_iters
    steps have run (cap_hit is set). No step reads aff's graphs."""
    while state.epsilon > cfg.epsilon0:
        if state.t >= cfg.max_transfer_iters:
            state = replace(state, cap_hit=True)
            break
        state = transfer_step(state, aff, cfg.alpha, anchors)
        if on_step is not None:
            on_step(state)
    return state


def fuse_labels(state: TransferState, beta: float) -> tuple[SoftLabelMatrix, SoftLabelMatrix]:
    """Blend each transferred matrix with its own hardened version:
    beta * one_hot(argmax) + (1 - beta) * renormalized soft labels, written
    into the renormalized copy with no one-hot array."""

    def fuse(probs: np.ndarray) -> SoftLabelMatrix:
        out = probs / probs.sum(axis=1, keepdims=True)
        top = np.argmax(out, axis=1)
        out *= 1.0 - beta
        out[np.arange(out.shape[0]), top] += beta
        return SoftLabelMatrix(_clamp_renorm(out))

    return fuse(state.intra), fuse(state.cross)


@dataclass(frozen=True)
class LabeledSubset:
    """Labels over the clustered (non-noise) subset of one modality."""

    indices: np.ndarray
    labels: SoftLabelMatrix

    def __post_init__(self):
        if self.indices.shape[0] != self.labels.n:
            raise XmodError("index count does not match label rows")

    def hard_full(self, total: int) -> np.ndarray:
        """Hard labels over all ``total`` instances, NOISE where unlabeled;
        a tie goes to the lowest cluster id."""
        out = np.full(total, NOISE, dtype=np.int64)
        out[self.indices] = np.argmax(self.labels.probs, axis=1)
        return out

    def soft_full(self, total: int) -> np.ndarray:
        """Soft rows over all instances; unlabeled rows are all-zero."""
        out = np.zeros((total, self.labels.space_size), dtype=np.float64)
        out[self.indices] = self.labels.probs
        return out


@dataclass(frozen=True)
class AssociationResult:
    """The four label matrices one associator run produces.

    intra_v / cross_r live in the visible cluster space, intra_r / cross_v in
    the infrared one. ``traces`` holds the trace of each direction
    mult_associate was asked to trace, keyed by its tag; None if none was.
    """

    n_visible: int
    n_infrared: int
    intra_v: LabeledSubset
    cross_r: LabeledSubset
    intra_r: LabeledSubset
    cross_v: LabeledSubset
    traces: dict | None = None

    @classmethod
    def place(cls, v: ClusteredSide, r: ClusteredSide, labels: dict,
              traces=None) -> AssociationResult:
        """Put each matrix of ``labels``, keyed by the names in LABELS, on
        the clustered rows of its modality."""
        sides = {Modality.VISIBLE: v, Modality.INFRARED: r}
        return cls(v.total, r.total, traces=traces, **{
            name: LabeledSubset(sides[modality].indices, labels[name])
            for name, modality in LABELS.items()})

    def _total(self, name: str) -> int:
        return self.n_visible if LABELS[name] is Modality.VISIBLE else self.n_infrared

    def hard(self, name: str) -> np.ndarray:
        """The named matrix's hard labels over every instance of its modality
        (LabeledSubset.hard_full)."""
        return getattr(self, name).hard_full(self._total(name))

    def soft(self, name: str) -> np.ndarray:
        """As hard, for the soft rows (LabeledSubset.soft_full)."""
        return getattr(self, name).soft_full(self._total(name))


@dataclass(frozen=True)
class ClusteredSide:
    """The clustered (non-noise) instances of one modality: their indices
    among all ``total`` instances, their feature rows and their cluster ids."""

    indices: np.ndarray
    rows: np.ndarray
    assign: ClusterAssignment
    total: int


def clustered_side(features, assign: ClusterAssignment) -> ClusteredSide:
    data = feature_data(features)
    if data.shape[0] != assign.n:
        raise XmodError("feature and assignment sizes differ")
    idx = assign.clustered_indices()
    if idx.size == 0:
        raise XmodError("every instance is noise; nothing to associate")
    sub_assign = ClusterAssignment(assign.labels[idx], assign.k)
    return ClusteredSide(idx, data[idx], sub_assign, assign.n)


def mult_associate(
    features_v,
    features_r,
    assign_v: ClusterAssignment,
    assign_r: ClusterAssignment,
    cfg: PipelineConfig,
    collect_trace=(),
) -> AssociationResult:
    """Full association pass in both directions. DBSCAN-noise instances sit
    out entirely.

    V2R treats visible as the source (labels live in the visible cluster
    space); R2V is the same computation with the modalities swapped. The
    plan, each modality's graph and the two composites are built once and
    shared by both directions, in an order that bounds the N×N arrays alive
    at any time:

    1. both directions' initial labels (N×K arrays, made before any N×N
       array exists);
    2. the plan, row-normalized both ways into he_vr and he_rv;
    3. one modality at a time, its graph ho, the anchors α·½(ho + I)·init
       of the two initial labels on that modality (V2R's intra and R2V's
       cross on the visible side), then its composite ½(ho + I)·he. Unless
       the trace energies need ho, it is rounded to float32 and the float64
       graph dropped before the composite is built.

    The loops then hold the two plan factors and the two composites, all
    float32, and the N×K labels. The factors stay referenced by
    DirectionAffinities, because the trace energies read them. V2R runs
    first, then R2V, both through one routine that differs only in the start
    state, the affinities (R2V's are V2R's swapped), the anchors and the
    trace tag; V2R's start labels and anchors are dropped before R2V's loop.

    ``collect_trace`` names the directions (tags of DIRECTIONS) whose
    per-step energies are collected into ``traces``; an empty collection
    collects none, and an untraced direction computes no energy. Each
    modality's cluster ids go with its rows to the plan solve, as the
    coarse space of its Newton steps.
    """
    traced = set(collect_trace)
    if not traced <= DIRECTIONS.keys():
        raise XmodError(f"unknown trace directions {sorted(traced - DIRECTIONS.keys())}")
    v = clustered_side(features_v, assign_v)
    r = clustered_side(features_r, assign_r)
    start_v2r = init_labels(v.rows, r.rows, v.assign, cfg)
    start_r2v = init_labels(r.rows, v.rows, r.assign, cfg)
    he_vr, he_rv = heterogeneous_affinity(v.rows, r.rows, cfg.ot_lambda,
                                          v.assign.labels, r.assign.labels)

    def smooth(side: ClusteredSide, he: np.ndarray, *inits):
        # The side's composite, and the anchors of the two start labels on it.
        ho = homogeneous_affinity(side.rows, cfg.kappa)
        anchors = [smoothed_anchor(ho, init, cfg.alpha) for init in inits]
        if not traced:
            # The composite reads ho rounded to float32 only, so the float64
            # graph goes before the SGEMM's output is allocated.
            ho = ho.astype(np.float32)
        return anchors, (ho if traced else None), smoothed_transport(ho, he)

    (v2r_intra, r2v_cross), ho_v, a_vr = smooth(v, he_vr, start_v2r.intra0, start_r2v.cross0)
    (v2r_cross, r2v_intra), ho_r, a_rv = smooth(r, he_rv, start_v2r.cross0, start_r2v.intra0)
    aff = DirectionAffinities(ho_v, ho_r, he_vr, he_rv, a_st=a_vr, a_ts=a_rv)
    traces = {}  # keyed as the --trace files are named

    def transfer(tag: str, state: TransferState, aff: DirectionAffinities, anchors) -> dict:
        # One direction's loop and fusion, its two matrices keyed by name.
        on_step = None
        if tag in traced:
            trace = traces[tag] = [dict(inconsistency(state, aff, cfg.alpha), t=0, epsilon=None)]

            def on_step(st: TransferState) -> None:
                entry = inconsistency(st, aff, cfg.alpha)
                trace.append(dict(entry, t=st.t, epsilon=float(st.epsilon)))

        state = run_transfer(state, aff, cfg, anchors, on_step=on_step)
        return dict(zip(DIRECTIONS[tag], fuse_labels(state, cfg.beta)))

    labels = transfer("v2r", start_v2r, aff, (v2r_intra, v2r_cross))
    del start_v2r, v2r_intra, v2r_cross  # so V2R's start and anchors go before R2V's loop
    labels |= transfer("r2v", start_r2v, aff.swapped(), (r2v_intra, r2v_cross))
    return AssociationResult.place(v, r, labels, traces or None)
