"""Affinity-guided label transfer between two modalities.

One direction of association works on a source modality (whose clusters
define the label space) and a target modality. Instance labels start from
the source memory probabilities (intra) and a balanced transport assignment
of target instances onto source clusters (cross), then the two matrices are
alternately pulled toward their cross-modality counterparts and smoothed
over the within-modality affinity graph until the updates stall.

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
the trace energies) is float64. run_transfer also stops where the loop
reaches the float32 operator's precision.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

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

# Sentinel update magnitude before the first transfer step.
_EPSILON_START = 1e6

# Unit roundoff of float32.
_F32_UNIT = 2.0**-24

# The four label matrices in the order of the CLI's label files: V2R's intra
# and cross, then R2V's; each with the modality whose every instance it covers.
LABELS = dict(intra_v=Modality.VISIBLE, cross_r=Modality.INFRARED,
              intra_r=Modality.INFRARED, cross_v=Modality.VISIBLE)


class Direction(Enum):
    V2R = "v2r"
    R2V = "r2v"
    BOTH = "both"


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

    def rounding_floor(self) -> float:
        """An a-priori bound on what float32 rounding can put into one update
        ε: a step's row on an n-row side sums m float32 products of labels
        rounded to float32, so its row-L1 error is at most (m + 1)·u before
        the renormalization and twice that after it, and an update holds
        two steps' errors. Over the rows, 4·u·(n·m + n) on the larger side."""
        ns, nt = self.he_st.shape
        return 4.0 * _F32_UNIT * (ns * nt + max(ns, nt))

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
    epsilon: float = _EPSILON_START
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
    steps have run (cap_hit is set), or the loop stalls (cap_hit stays False).

    It has stalled when an update at or below aff.rounding_floor() is not
    smaller than the one two steps before it: there the float32 operator's
    precision is reached and further steps only move rounding. An update
    above the floor never stops the loop this way, so a loop that does not
    converge still runs to the cap. Updates are compared two steps apart
    because near the floor ε rises now and then before it settles: on the
    benchmark's pools at epsilon0 1e-12, 52 of 72 runs saw a rise that a
    one-step rule would have stopped at. No step reads aff's graphs."""
    floor = aff.rounding_floor()
    two_back = one_back = np.inf
    while state.epsilon > cfg.epsilon0:
        if state.t >= cfg.max_transfer_iters:
            state = replace(state, cap_hit=True)
            break
        state = transfer_step(state, aff, cfg.alpha, anchors)
        if on_step is not None:
            on_step(state)
        if two_back <= state.epsilon <= floor:
            break
        two_back, one_back = one_back, state.epsilon
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
    """The up-to-four label matrices one associator run produces.

    intra_v / cross_r live in the visible cluster space, intra_r / cross_v in
    the infrared one. Fields for a direction that was not run are None, as
    is ``traces`` unless mult_associate collects each direction's trace.
    """

    n_visible: int
    n_infrared: int
    intra_v: LabeledSubset | None = None
    cross_r: LabeledSubset | None = None
    intra_r: LabeledSubset | None = None
    cross_v: LabeledSubset | None = None
    traces: dict | None = None

    def _total(self, name: str) -> int:
        return self.n_visible if LABELS[name] is Modality.VISIBLE else self.n_infrared

    def hard(self, name: str) -> np.ndarray | None:
        """The named matrix's hard labels over every instance of its modality
        (LabeledSubset.hard_full); None if its direction was not run."""
        subset = getattr(self, name)
        return None if subset is None else subset.hard_full(self._total(name))

    def soft(self, name: str) -> np.ndarray | None:
        """As hard, for the soft rows (LabeledSubset.soft_full)."""
        subset = getattr(self, name)
        return None if subset is None else subset.soft_full(self._total(name))


@dataclass(frozen=True)
class ClusteredSide:
    """The clustered (non-noise) instances of one modality: their indices
    among all ``total`` instances, their feature rows and their cluster ids."""

    indices: np.ndarray
    rows: np.ndarray
    assign: ClusterAssignment
    total: int


def clustered_side(features, assign: ClusterAssignment) -> ClusteredSide:
    idx = assign.clustered_indices()
    if idx.size == 0:
        raise XmodError("every instance is noise; nothing to associate")
    sub_assign = ClusterAssignment(assign.labels[idx], assign.k)
    return ClusteredSide(idx, feature_data(features)[idx], sub_assign, assign.n)


def associate_directions(
    v: ClusteredSide, r: ClusteredSide, direction: Direction, one_way
) -> AssociationResult:
    """Run ``one_way(src, tgt, v2r) -> (intra, cross)`` for each requested
    direction (V2R has visible as the source) and place its labels, both in
    the source cluster space."""
    fields: dict = {}
    names = iter(LABELS)  # in file order, each direction's intra then cross
    for way, src, tgt in ((Direction.V2R, v, r), (Direction.R2V, r, v)):
        intra_name, cross_name = next(names), next(names)
        if direction in (way, Direction.BOTH):
            intra, cross = one_way(src, tgt, way is Direction.V2R)
            fields[intra_name] = LabeledSubset(src.indices, intra)
            fields[cross_name] = LabeledSubset(tgt.indices, cross)
    return AssociationResult(n_visible=v.total, n_infrared=r.total, **fields)


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
    space); R2V is the same computation with the modalities swapped. The
    plan, each modality's graph and the two composites are built once and
    shared by both directions, in an order that bounds the N×N arrays alive
    at any time:

    1. every requested direction's initial labels (N×K arrays, made before
       any N×N array exists);
    2. the plan, row-normalized both ways into he_vr and he_rv;
    3. one modality at a time, its graph ho, its composite ½(ho + I)·he and
       the anchors α·½(ho + I)·init of the initial labels on that modality
       (V2R's intra and R2V's cross on the visible side); ho is then
       dropped, unless the trace energies need it.

    The loops then hold the two plan factors and the two composites, all
    float32, and the N×K labels. The factors stay referenced by
    DirectionAffinities, because the trace energies read them.
    """
    v = clustered_side(features_v, assign_v)
    r = clustered_side(features_r, assign_r)
    starts = {}  # keyed by v2r, like the directions one_way runs
    if direction is not Direction.R2V:
        starts[True] = init_labels(v.rows, r.rows, v.assign, cfg)
    if direction is not Direction.V2R:
        starts[False] = init_labels(r.rows, v.rows, r.assign, cfg)
    he_vr, he_rv = heterogeneous_affinity(v.rows, r.rows, cfg.ot_lambda)
    anchors = {v2r: [None, None] for v2r in starts}

    def smooth(side: ClusteredSide, he: np.ndarray):
        # The side's composite, and the anchor of every start label on it.
        ho = homogeneous_affinity(side.rows, cfg.kappa)
        composite = smoothed_transport(ho, he)
        for v2r, start in starts.items():
            is_src = (side is v) == v2r  # the side is this direction's source
            init = start.intra0 if is_src else start.cross0
            anchors[v2r][0 if is_src else 1] = smoothed_anchor(ho, init, cfg.alpha)
        return (ho if collect_trace else None), composite

    ho_v, a_vr = smooth(v, he_vr)
    ho_r, a_rv = smooth(r, he_rv)
    aff_v2r = DirectionAffinities(ho_v, ho_r, he_vr, he_rv, a_st=a_vr, a_ts=a_rv)
    affs = {True: aff_v2r, False: aff_v2r.swapped()}

    traces = {}  # keyed by Direction.value, as the --trace files are named

    def one_way(src: ClusteredSide, tgt: ClusteredSide, v2r: bool):
        # Both directions run this one routine on their own affinities.
        aff = affs[v2r]
        state = starts.pop(v2r)
        on_step = None
        if collect_trace:
            trace = traces[(Direction.V2R if v2r else Direction.R2V).value] = [
                dict(inconsistency(state, aff, cfg.alpha), t=0, epsilon=None)]

            def on_step(st: TransferState) -> None:
                entry = inconsistency(st, aff, cfg.alpha)
                trace.append(dict(entry, t=st.t, epsilon=float(st.epsilon)))

        state = run_transfer(state, aff, cfg, anchors.pop(v2r), on_step=on_step)
        return fuse_labels(state, cfg.beta)

    result = associate_directions(v, r, direction, one_way)
    return replace(result, traces=traces or None)
