import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from xmod import affinity, transfer, transport
from xmod.baselines import associate_greedy_centroid, associate_otla_only
from xmod.core import NOISE, Modality, PipelineConfig, SoftLabelMatrix, XmodError
from xmod.clustering import ClusterAssignment, centroids
from xmod.affinity import homogeneous_affinity
from xmod.metrics import full_report
from xmod.synth import GapMode, SynthSpec, generate
from xmod.transfer import (
    LABELS,
    AssociationResult,
    Direction,
    DirectionAffinities,
    LabeledSubset,
    TransferState,
    fuse_labels,
    inconsistency,
    init_labels,
    mult_associate,
    run_transfer,
    smoothed_transport,
    transfer_step,
)
from xmod.transport import heterogeneous_affinity, heterogeneous_plan, otla_init

from conftest import one_way_affinities, one_way_anchors, random_unit_rows
import oracles
from oracles import transfer_fixed_point, transfer_step_factored


def step(state, aff, alpha):
    """transfer_step with the anchors of aff's graphs."""
    return transfer_step(state, aff, alpha, one_way_anchors(state, aff, alpha))


def run(state, aff, cfg, on_step=None):
    """run_transfer with the anchors of aff's graphs; a run ends above
    epsilon0 only at the cap."""
    out = run_transfer(state, aff, cfg, one_way_anchors(state, aff, cfg.alpha), on_step)
    assert out.cap_hit == (out.epsilon > cfg.epsilon0)
    return out


def random_stochastic(rng, n, m):
    a = rng.random((n, m)) + 0.05
    return a / a.sum(axis=1, keepdims=True)


def random_soft_labels(rng, n, k):
    return random_stochastic(rng, n, k)


def random_instance(rng, ns=7, nt=5, k=3):
    aff = one_way_affinities(
        ho_src=random_stochastic(rng, ns, ns),
        ho_tgt=random_stochastic(rng, nt, nt),
        he_st=random_stochastic(rng, ns, nt),
        he_ts=random_stochastic(rng, nt, ns),
    )
    intra0 = random_soft_labels(rng, ns, k)
    cross0 = random_soft_labels(rng, nt, k)
    state = TransferState(intra0.copy(), cross0.copy(), intra0, cross0)
    return state, aff


def row_l1(a):
    """Max-row-L1 norm: the norm the transfer map contracts in."""
    return float(np.abs(a).sum(axis=1).max())


def operator_error(aff, he_st, he_ts):
    """‖E‖: the max-row-L1 distance of aff's float32 composites from the
    float64 composites ½(ho + I)·he over aff's graphs and the given factors.

    Rounding alone keeps ‖E‖ within (n + 2)·2⁻²⁴ for an n-term product:
    he's rounding adds at most u to a row, ho's u/2, the n-term float32 sum
    n·u/2 and the add of he u. A wrong composite (a dropped + he or halving)
    is O(1) off, so it fails here, not only in the bounds built from ‖E‖."""

    def exact(ho, he):
        he = np.asarray(he, dtype=np.float64)
        return 0.5 * (ho @ he + he)

    e = max(row_l1(aff.a_st - exact(aff.ho_src, he_st)),
            row_l1(aff.a_ts - exact(aff.ho_tgt, he_ts)))
    assert e <= (max(aff.he_st.shape) + 2) * 2.0**-24
    return e


def step_tolerance(aff, alpha):
    """Max-row-L1 bound on how far one library step lands from the float64
    step over aff's graphs and factors: (1 − α) times ‖E‖ plus the rounding
    of the labels to float32 (2⁻²⁴) and of an n-term float32 sum (n·2⁻²⁴),
    doubled by the row renormalization. That bounds the intra half; the
    cross half also carries the intra half's error, which a worst case could
    pass on as 2(1 − α) times that, yet both halves are held to this one
    bound (on random_instance sets both stay below an eighth of it)."""
    n = max(aff.he_st.shape)
    e = operator_error(aff, aff.he_st, aff.he_ts)
    return 2.0 * (1.0 - alpha) * (e + (n + 1) * 2.0**-24) + 1e-12


def certificate(final, before, aff, anchors, alpha, he_st, he_ts):
    """B = ((1 − α)(δ_T + ‖E‖) + ‖r‖) / α: how far the loop's last state lies
    at most from the fixed point x* of the float64 operator over the factors
    he_st / he_ts, if the clamp never fired.

    The last step computed intra_T = (1 − α)·(A_st + E)·cross_{T−1} + b + r,
    then cross_T = (1 − α)·(A_ts + E)·intra_T + b + r from the intra labels
    it had just computed, with A the float64 composites (row-stochastic, so
    (1 − α)·A contracts by 1 − α in max-row-L1), E the float32 composites'
    error (operator_error) and r each half's rounding, measured against a
    float64 product of the float32 composites with the labels that half
    read. x* solves the same two equations without E and r. With
    D = ‖x_T − x*‖, δ_T = ‖x_T − x_{T−1}‖ and unit-norm label rows, the intra
    half gives ‖intra_T − intra*‖ ≤ (1 − α)(δ_T + D + ‖E‖) + ‖r‖ and the
    cross half ‖cross_T − cross*‖ ≤ (1 − α)(D + ‖E‖) + ‖r‖, so
    α·D ≤ (1 − α)(δ_T + ‖E‖) + ‖r‖.
    """

    def rounding(a, other, anchor, got):
        return row_l1(got - ((1.0 - alpha) * (a.astype(np.float64) @ other) + anchor))

    delta = max(row_l1(final.intra - before.intra), row_l1(final.cross - before.cross))
    r = max(rounding(aff.a_st, before.cross, anchors[0], final.intra),
            rounding(aff.a_ts, final.intra, anchors[1], final.cross))
    e = operator_error(aff, he_st, he_ts)
    return ((1.0 - alpha) * (delta + e) + r) / alpha


def step_oracle(state, aff, alpha):
    """transfer_step re-done with explicit python loops."""

    def matvec(mat, labels):
        out = np.zeros((mat.shape[0], labels.shape[1]))
        for i in range(mat.shape[0]):
            for c in range(labels.shape[1]):
                acc = 0.0
                for j in range(mat.shape[1]):
                    acc += mat[i, j] * labels[j, c]
                out[i, c] = acc
        return out

    def clamp_renorm(rows):
        out = rows.copy()
        for i in range(out.shape[0]):
            for c in range(out.shape[1]):
                if out[i, c] < 1e-12:
                    out[i, c] = 0.0
            out[i] = out[i] / out[i].sum()
        return out

    z = (1.0 - alpha) * matvec(aff.he_st, state.cross) + alpha * state.intra0
    intra_new = clamp_renorm(0.5 * (matvec(aff.ho_src, z) + z))
    w = (1.0 - alpha) * matvec(aff.he_ts, intra_new) + alpha * state.cross0
    cross_new = clamp_renorm(0.5 * (matvec(aff.ho_tgt, w) + w))
    return intra_new, cross_new


def inconsistency_oracle(state, aff, alpha):
    """Triple-loop enumeration of every disagreement term."""

    def gap(mat, a, b):
        total = 0.0
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                total += mat[i, j] * float(((a[i] - b[j]) ** 2).sum())
        return total

    ho_s = gap(aff.ho_src, state.intra, state.intra)
    ho_t = gap(aff.ho_tgt, state.cross, state.cross)
    he_s = gap(aff.he_st, state.intra, state.cross)
    he_t = gap(aff.he_ts, state.cross, state.intra)
    self_s = float(((state.intra - state.intra0) ** 2).sum())
    self_t = float(((state.cross - state.cross0) ** 2).sum())
    total = ho_s + ho_t + alpha * (self_s + self_t) + (1 - alpha) * (he_s + he_t)
    return ho_s, ho_t, he_s, he_t, self_s, self_t, total


class TestInitLabels:
    def test_single_cluster_everything_is_one(self, rng):
        f_src = random_unit_rows(rng, 5, 4)
        f_tgt = random_unit_rows(rng, 3, 4)
        assign = ClusterAssignment(np.zeros(5, dtype=np.int64), 1)
        state = init_labels(f_src, f_tgt, assign, PipelineConfig())
        assert state.intra0.shape == (5, 1) and state.cross0.shape == (3, 1)
        assert np.allclose(state.intra0, 1.0)
        assert np.allclose(state.cross0, 1.0)

    def test_orthonormal_prototypes_give_one_hot_intra(self, rng):
        f_src = np.eye(3)
        f_tgt = random_unit_rows(rng, 4, 3)
        assign = ClusterAssignment(np.arange(3, dtype=np.int64), 3)
        state = init_labels(f_src, f_tgt, assign, PipelineConfig(tau=0.05))
        assert np.abs(state.intra0 - np.eye(3)).max() < 1e-8

    def test_intra_rows_sum_to_one(self, rng):
        f_src = random_unit_rows(rng, 20, 6)
        f_tgt = random_unit_rows(rng, 15, 6)
        assign = ClusterAssignment(rng.integers(0, 4, size=20).astype(np.int64), 4)
        state = init_labels(f_src, f_tgt, assign, PipelineConfig())
        assert np.abs(state.intra0.sum(axis=1) - 1.0).max() < 1e-9

    def test_cross_matches_transport_init(self, rng):
        f_src = random_unit_rows(rng, 12, 5)
        f_tgt = random_unit_rows(rng, 9, 5)
        assign = ClusterAssignment(rng.integers(0, 3, size=12).astype(np.int64), 3)
        cfg = PipelineConfig()
        state = init_labels(f_src, f_tgt, assign, cfg)
        expect = otla_init(f_tgt, centroids(f_src, assign), cfg.ot_lambda).probs
        assert np.array_equal(state.cross0, expect)

    def test_state_starts_fresh(self, rng):
        f = random_unit_rows(rng, 6, 4)
        assign = ClusterAssignment(rng.integers(0, 2, size=6).astype(np.int64), 2)
        state = init_labels(f, f, assign, PipelineConfig())
        assert state.t == 0
        assert math.isinf(state.epsilon)
        assert not state.cap_hit
        assert np.array_equal(state.intra, state.intra0)
        assert np.array_equal(state.cross, state.cross0)


class TestLabeledSubset:
    def test_hard_full_takes_each_rows_argmax(self):
        labels = SoftLabelMatrix(np.array([[0.1, 0.2, 0.7], [0.9, 0.05, 0.05]]))
        subset = LabeledSubset(np.array([3, 0]), labels)
        assert subset.hard_full(5).tolist() == [0, NOISE, NOISE, 2, NOISE]

    def test_hard_full_tie_goes_to_the_lowest_id(self):
        labels = SoftLabelMatrix(np.array([[0.25, 0.5, 0.25, 0.0], [0.0, 0.0, 0.5, 0.5],
                                           [0.5, 0.0, 0.0, 0.5]]))
        subset = LabeledSubset(np.array([0, 1, 2]), labels)
        assert subset.hard_full(3).tolist() == [1, 2, 0]

    def test_hard_full_is_int64(self):
        labels = SoftLabelMatrix(np.array([[0.7, 0.3]]))
        out = LabeledSubset(np.array([1]), labels).hard_full(2)
        assert out.dtype == np.int64 and out.tolist() == [NOISE, 0]


class TestInconsistency:
    def test_identical_rows_zero_disagreement(self, rng):
        state, aff = random_instance(rng, ns=4, nt=4, k=3)
        row = np.array([0.2, 0.5, 0.3])
        uniform = np.tile(row, (4, 1))
        state = TransferState(uniform, uniform, uniform, uniform)
        rep = inconsistency(state, aff, alpha=0.2)
        assert rep["homogeneous_src"] == 0.0
        assert rep["homogeneous_tgt"] == 0.0
        assert rep["heterogeneous_src"] == 0.0
        assert rep["heterogeneous_tgt"] == 0.0

    def test_initial_state_has_zero_self_terms(self, rng):
        state, aff = random_instance(rng)
        rep = inconsistency(state, aff, alpha=0.2)
        assert rep["self_src"] == 0.0
        assert rep["self_tgt"] == 0.0

    def test_two_instance_hand_example(self, rng):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        state = TransferState(labels, labels.copy(), labels, labels.copy())
        aff = one_way_affinities(swap, swap, np.eye(2), np.eye(2))
        rep = inconsistency(state, aff, alpha=0.2)
        assert rep["homogeneous_src"] == pytest.approx(4.0, abs=1e-12)

    def test_matches_triple_loop_oracle(self, rng):
        for _ in range(5):
            state, aff = random_instance(rng)
            state = step(state, aff, 0.2)  # so self terms are live
            rep = inconsistency(state, aff, alpha=0.2)
            oracle = inconsistency_oracle(state, aff, alpha=0.2)
            got = (
                rep["homogeneous_src"], rep["homogeneous_tgt"],
                rep["heterogeneous_src"], rep["heterogeneous_tgt"],
                rep["self_src"], rep["self_tgt"], rep["weighted_total"],
            )
            assert np.allclose(got, oracle, atol=1e-10)
            assert all(v >= 0.0 for v in got)

    def test_near_identical_rows_never_negative(self):
        # row + col - 2 * mix cancels to about -1.4e-14 here unless clamped
        rng = np.random.default_rng(9)
        he_st = random_stochastic(rng, 29, 2)
        row = rng.random(3)
        row /= row.sum()
        intra = np.tile(row, (29, 1)) + 1e-9 * rng.random((29, 3))
        cross = np.tile(row, (2, 1)) + 1e-9 * rng.random((2, 3))
        aff = one_way_affinities(np.eye(29), np.eye(2), he_st, he_st.T.copy())
        state = TransferState(intra, cross, intra, cross)
        rep = inconsistency(state, aff, alpha=0.2)
        assert all(v >= 0.0 for v in rep.values()), rep

    def test_report_has_the_seven_trace_keys(self, rng):
        state, aff = random_instance(rng)
        d = inconsistency(state, aff, 0.2)
        assert set(d) == {
            "homogeneous_src", "homogeneous_tgt", "heterogeneous_src",
            "heterogeneous_tgt", "self_src", "self_tgt", "weighted_total",
        }


class TestDirectionAffinities:
    def test_every_given_array_is_shape_checked(self, rng):
        # 4 source rows against 5 target rows; one array at a time gets a
        # wrong shape
        aff = one_way_affinities(random_stochastic(rng, 4, 4), random_stochastic(rng, 5, 5),
                                 random_stochastic(rng, 4, 5), random_stochastic(rng, 5, 4))
        for name, shape, kind in [
            ("ho_src", (5, 5), "homogeneous"), ("ho_tgt", (4, 4), "homogeneous"),
            ("he_ts", (4, 5), "heterogeneous"), ("a_st", (5, 4), "composite"),
            ("a_ts", (4, 5), "composite"),
        ]:
            with pytest.raises(XmodError, match=f"^{kind} affinity shapes do not match$"):
                replace(aff, **{name: random_stochastic(rng, *shape)})

    def test_graphs_may_be_none_but_not_the_composites(self, rng):
        full = one_way_affinities(random_stochastic(rng, 4, 4), random_stochastic(rng, 5, 5),
                                  random_stochastic(rng, 4, 5), random_stochastic(rng, 5, 4))
        bare = replace(full, ho_src=None, ho_tgt=None)
        assert bare.a_st is full.a_st and bare.swapped().a_st is full.a_ts
        with pytest.raises(TypeError, match="a_ts"):
            DirectionAffinities(None, None, full.he_st, full.he_ts, a_st=full.a_st)
        with pytest.raises(TypeError, match="a_st"):
            DirectionAffinities(full.ho_src, full.ho_tgt, full.he_st, full.he_ts)


class TestTransferStep:
    @pytest.mark.parametrize(
        "alpha, ns, nt, k",
        [(0.0, 7, 5, 3), (0.2, 7, 5, 3), (1.0, 7, 5, 3), (0.2, 7, 5, 1), (0.2, 4, 9, 3)],
        ids=["alpha-0", "alpha-0.2", "alpha-1", "k-1", "ns-lt-nt"],
    )
    def test_matches_loop_oracle(self, rng, alpha, ns, nt, k):
        # the oracle steps in float64 over ho and he apart, the library with
        # the float32 composites: they agree to step_tolerance per row
        state, aff = random_instance(rng, ns=ns, nt=nt, k=k)
        new = step(state, aff, alpha)
        intra_e, cross_e = step_oracle(state, aff, alpha)
        tol = step_tolerance(aff, alpha)
        assert row_l1(new.intra - intra_e) <= tol
        assert row_l1(new.cross - cross_e) <= tol
        eps_e = max(np.abs(intra_e - state.intra).sum(),
                    np.abs(cross_e - state.cross).sum())
        assert new.epsilon == pytest.approx(eps_e, abs=max(ns, nt) * tol)
        assert new.t == 1

    def test_alpha_one_ignores_cross(self, rng):
        state, aff = random_instance(rng)
        other_cross = random_soft_labels(rng, state.cross.shape[0], state.cross.shape[1])
        poked = TransferState(state.intra, other_cross, state.intra0, state.cross0)
        a = step(state, aff, 1.0)
        b = step(poked, aff, 1.0)
        assert np.array_equal(a.intra, b.intra)
        expect = 0.5 * (aff.ho_src @ state.intra0 + state.intra0)
        expect = expect / expect.sum(axis=1, keepdims=True)
        assert np.abs(a.intra - expect).max() < 1e-12

    def test_one_step_fixed_point(self, rng):
        k, n = 3, 6
        intra0 = np.zeros((n, k))
        intra0[np.arange(n), np.arange(n) % k] = 1.0
        perm = rng.permutation(n)
        p = np.zeros((n, n))
        p[np.arange(n), perm] = 1.0
        cross0 = p.T @ intra0
        aff = one_way_affinities(np.eye(n), np.eye(n), p, p.T)
        state = TransferState(intra0.copy(), cross0.copy(), intra0, cross0)
        new = step(state, aff, 0.2)
        assert new.epsilon < 1e-12
        assert np.abs(new.intra - intra0).max() < 1e-12
        assert np.abs(new.cross - cross0).max() < 1e-12

    def test_rows_stay_stochastic(self, rng):
        state, aff = random_instance(rng, ns=11, nt=8, k=4)
        for _ in range(5):
            state = step(state, aff, 0.2)
            assert np.abs(state.intra.sum(axis=1) - 1.0).max() < 1e-9
            assert np.abs(state.cross.sum(axis=1) - 1.0).max() < 1e-9
            assert state.intra.min() >= 0.0
            assert state.cross.min() >= 0.0

    def test_tiny_probabilities_snap_to_zero(self):
        # he pulls everything onto label 0; the 1e-30 leak must not survive
        intra0 = np.array([[1.0 - 1e-30, 1e-30], [1.0, 0.0]])
        cross0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        aff = one_way_affinities(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        state = TransferState(intra0.copy(), cross0.copy(), intra0, cross0)
        new = step(state, aff, 0.2)
        assert new.intra[0, 1] == 0.0
        assert new.intra[0, 0] == 1.0


class TestRunTransfer:
    def test_leaves_the_start_arrays_unchanged(self):
        # init_labels hands the same arrays to intra/intra0 and cross/cross0,
        # so no step or fusion may write into a state's arrays
        fv, fr, av, ar, _ = blob_instance(seed=17, gap=0.4, gap_mode=GapMode.PER_ID_OFFSET)
        cfg = PipelineConfig(kappa=8, epsilon0=1e-9)
        aff = one_way_affinities(
            homogeneous_affinity(fv.data, cfg.kappa), homogeneous_affinity(fr.data, cfg.kappa),
            *heterogeneous_affinity(fv.data, fr.data, cfg.ot_lambda))
        start = init_labels(fv.data, fr.data, av, cfg)
        assert start.intra is start.intra0 and start.cross is start.cross0
        intra0, cross0 = start.intra0.copy(), start.cross0.copy()
        out = run(start, aff, cfg)
        fuse_labels(out, cfg.beta)
        assert out.t > 1
        assert np.array_equal(start.intra0, intra0) and np.array_equal(start.cross0, cross0)

    def test_fixed_point_stops_after_one_step(self, rng):
        k, n = 2, 4
        intra0 = np.zeros((n, k))
        intra0[np.arange(n), np.arange(n) % k] = 1.0
        aff = one_way_affinities(np.eye(n), np.eye(n), np.eye(n), np.eye(n))
        state = TransferState(intra0.copy(), intra0.copy(), intra0, intra0.copy())
        out = run(state, aff, PipelineConfig())
        assert out.t == 1
        assert out.epsilon < 1e-12
        assert not out.cap_hit

    def test_an_epsilon0_above_any_update_still_takes_one_step(self):
        # the start ε is infinite, so no epsilon0 skips the loop
        fv, fr, av, _, _ = blob_instance(seed=17, gap=0.4)
        cfg = PipelineConfig(kappa=8, epsilon0=1e9)
        aff = one_way_affinities(
            homogeneous_affinity(fv.data, cfg.kappa), homogeneous_affinity(fr.data, cfg.kappa),
            *heterogeneous_affinity(fv.data, fr.data, cfg.ot_lambda))
        start = init_labels(fv.data, fr.data, av, cfg)
        out = run(start, aff, cfg)
        assert out.t == 1 and not out.cap_hit
        assert not np.array_equal(out.cross, start.cross)

    def test_epsilon_trace_settles(self, rng):
        state, aff = random_instance(rng, ns=12, nt=9, k=4)
        eps = []
        cfg = PipelineConfig(epsilon0=1e-13, max_transfer_iters=30)
        out = run(state, aff, cfg, on_step=lambda s: eps.append(s.epsilon))
        assert out.cap_hit
        assert len(eps) == 30
        assert all(np.isfinite(e) for e in eps)
        assert max(eps[-3:]) <= eps[0]

    def test_weighted_total_descends(self, rng):
        for _ in range(5):
            state, aff = random_instance(rng, ns=10, nt=10, k=3)
            before = inconsistency(state, aff, 0.2)["weighted_total"]
            out = run(state, aff, PipelineConfig(epsilon0=1e-6, max_transfer_iters=500))
            after = inconsistency(out, aff, 0.2)["weighted_total"]
            assert after <= before + 1e-12

    def test_cap_hit_flag(self, rng):
        state, aff = random_instance(rng)
        cfg = PipelineConfig(epsilon0=1e-15, max_transfer_iters=2)
        out = run(state, aff, cfg)
        assert out.cap_hit
        assert out.t == 2

    @pytest.mark.parametrize("gap_mode", [GapMode.SHARED_OFFSET, GapMode.PER_ID_OFFSET],
                             ids=["shared-gap", "per-id-gap"])
    def test_matches_factored_step_loop(self, gap_mode):
        # The oracle loop runs in float64 over aff's (float32-valued) factors,
        # so both loops end near that operator's fixed point: the oracle within
        # (1 − α)/α times its last update, the library within its certificate.
        # The float32 loop meets ε0 = 1e-9 on this set too, in no more steps.
        fv, fr, av, ar, _ = blob_instance(seed=17, gap=0.4, gap_mode=gap_mode,
                                          per_id_v=9, per_id_r=7)
        cfg = PipelineConfig(kappa=8, epsilon0=1e-9)
        alpha = cfg.alpha
        aff = one_way_affinities(
            homogeneous_affinity(fv.data, cfg.kappa), homogeneous_affinity(fr.data, cfg.kappa),
            *heterogeneous_affinity(fv.data, fr.data, cfg.ot_lambda))
        start = init_labels(fv.data, fr.data, av, cfg)
        expect, before = oracles.transfer_steps(start, aff, cfg)
        states = [start]
        got = run(start, aff, cfg, on_step=states.append)
        assert expect.t > 1 and expect.epsilon <= cfg.epsilon0
        assert not got.cap_hit and got.t <= expect.t
        anchors = one_way_anchors(start, aff, alpha)
        oracle_delta = max(row_l1(expect.intra - before.intra),
                           row_l1(expect.cross - before.cross))
        tol = (certificate(got, states[-2], aff, anchors, alpha, aff.he_st, aff.he_ts)
               + (1.0 - alpha) / alpha * oracle_delta + 1e-12)
        for mine, theirs in ((got.intra, expect.intra), (got.cross, expect.cross)):
            assert np.array_equal(mine.argmax(axis=1), theirs.argmax(axis=1))
            assert row_l1(mine - theirs) <= tol

    def test_a_cycling_loop_runs_to_the_cap(self):
        # α = 0 with ho = I and the same roll-by-1 permutation P for both he:
        # a step sets intra to P·cross and cross to P²·cross, and P² cycles
        # the three labels, so each side's labels go round a 3-cycle and ε
        # never falls. It stays above epsilon0, so the loop runs to the cap
        # and reports it.
        n, k = 6, 3
        perm = np.eye(n)[np.roll(np.arange(n), 1)]
        aff = one_way_affinities(np.eye(n), np.eye(n), perm, perm)
        intra0 = np.eye(k)[np.arange(n) % k]
        state = TransferState(intra0, intra0.copy(), intra0, intra0.copy())
        eps = []
        cfg = PipelineConfig(alpha=0.0, max_transfer_iters=40)
        out = run(state, aff, cfg, on_step=lambda s: eps.append(s.epsilon))
        assert out.cap_hit and out.t == 40
        assert min(eps) == max(eps) > cfg.epsilon0

    def test_alpha_zero_rows_collapse_together(self, rng):
        # without the self anchor, smoothing over connected graphs drags
        # every row toward a common distribution
        state, aff = random_instance(rng, ns=9, nt=9, k=3)
        cfg = PipelineConfig(alpha=0.0, epsilon0=1e-15, max_transfer_iters=50)
        out = run(state, aff, cfg)

        def spread(rows):
            return max(
                np.abs(rows[i] - rows[j]).sum()
                for i in range(rows.shape[0]) for j in range(rows.shape[0])
            )

        assert spread(out.intra) < 0.1 * spread(state.intra)


class TestFuseLabels:
    def test_beta_one_hardens(self, rng):
        state, _ = random_instance(rng)
        intra, cross = fuse_labels(state, beta=1.0)
        for mat in (intra.probs, cross.probs):
            assert set(np.unique(mat)) <= {0.0, 1.0}
            assert np.allclose(mat.sum(axis=1), 1.0)

    def test_beta_zero_renormalizes_only(self, rng):
        state, aff = random_instance(rng)
        state = step(state, aff, 0.2)
        intra, _ = fuse_labels(state, beta=0.0)
        expect = state.intra / state.intra.sum(axis=1, keepdims=True)
        assert np.abs(intra.probs - expect).max() < 1e-12

    def test_hand_row(self):
        row = np.array([[0.2, 0.6, 0.2]])
        state = TransferState(row.copy(), row.copy(), row, row.copy())
        intra, cross = fuse_labels(state, beta=0.7)
        assert np.allclose(intra.probs, [[0.06, 0.88, 0.06]], atol=1e-12)
        assert np.allclose(cross.probs, [[0.06, 0.88, 0.06]], atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.7, 1.0])
    def test_matches_one_hot_oracle_bitwise(self, rng, beta):
        state, aff = random_instance(rng, ns=40, nt=30, k=6)
        state = step(state, aff, 0.2)
        # unnormalized rows, an exact tie, a zero and entries either side of
        # the 1e-12 clamp, which beta = 0 leaves to the clamp alone
        intra = state.intra * rng.uniform(0.5, 2.0, size=(40, 1))
        intra[0] = [0.25, 0.25, 0.125, 0.125, 0.25, 0.0]
        intra[1] = [0.6, 0.4 - 7e-12, 5e-13, 6.5e-12, 1e-300, 0.0]
        cross = state.cross.copy()
        cross[0, 1:] = 1e-13
        state = TransferState(intra, cross, state.intra0, state.cross0)
        expect = oracles.fuse_labels_allocating(state, beta)
        got = fuse_labels(state, beta)
        for mine, theirs in zip(got, expect):
            assert np.array_equal(mine.probs, theirs)
        if beta < 1.0:
            assert got[0].probs[1, 2:].tolist()[::2] == [0.0, 0.0]
            assert got[0].probs[1, 3] > 0.0
        assert np.array_equal(state.intra, intra)

    def test_outputs_are_soft_label_matrices(self, rng):
        state, _ = random_instance(rng)
        intra, cross = fuse_labels(state, beta=0.7)
        assert isinstance(intra, SoftLabelMatrix)
        assert isinstance(cross, SoftLabelMatrix)


def blob_instance(seed, gap=0.0, num_ids=3, per_id_v=8, per_id_r=8,
                  gap_mode=GapMode.SHARED_OFFSET):
    spec = SynthSpec(num_ids=num_ids, per_id_v=per_id_v, per_id_r=per_id_r, dim=16,
                     blob_std=0.03, modality_gap=gap, gap_mode=gap_mode, seed=seed)
    fv, fr, gt = generate(spec)
    assign_v = ClusterAssignment(gt.ids_v.astype(np.int64), num_ids)
    assign_r = ClusterAssignment(gt.ids_r.astype(np.int64), num_ids)
    return fv, fr, assign_v, assign_r, gt


METHODS = {
    "mult": mult_associate,
    "otla": associate_otla_only,
    "greedy": associate_greedy_centroid,
}
SWAP_CASES = {"equal-sizes": (8, 8, False), "unequal-sizes": (9, 7, False),
              "noise-row": (8, 8, True)}


class TestMultAssociate:
    def test_zero_gap_blobs_associate_perfectly(self):
        fv, fr, av, ar, gt = blob_instance(seed=5)
        cfg = PipelineConfig(kappa=8)
        result = mult_associate(fv, fr, av, ar, cfg)
        report = full_report(result, gt)
        assert report.cross_acc_v == 1.0
        assert report.cross_acc_r == 1.0

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("extra", [2, -2], ids=["longer", "shorter"])
    def test_an_assignment_of_another_length_is_refused(self, method, extra):
        fv, fr, av, ar, _ = blob_instance(seed=5, per_id_v=6, per_id_r=6)
        assert fv.n == 18
        av = ClusterAssignment(np.resize(av.labels, av.n + extra), av.k)
        with pytest.raises(XmodError, match="^feature and assignment sizes differ$"):
            METHODS[method](fv, fr, av, ar, PipelineConfig(kappa=4))

    def test_single_cluster_everything_one(self, rng):
        fv = random_unit_rows(rng, 6, 4)
        fr = random_unit_rows(rng, 5, 4)
        av = ClusterAssignment(np.zeros(6, dtype=np.int64), 1)
        ar = ClusterAssignment(np.zeros(5, dtype=np.int64), 1)
        result = mult_associate(fv, fr, av, ar, PipelineConfig(kappa=4))
        for subset in (result.intra_v, result.cross_r, result.intra_r, result.cross_v):
            assert np.allclose(subset.labels.probs, 1.0)

    @pytest.mark.parametrize(
        "method, per_id_v, per_id_r, noise_v",
        [pytest.param(method, *case, id=name if method == "mult" else f"{method}-{name}")
         for method in METHODS for name, case in SWAP_CASES.items()],
    )
    def test_swapped_modalities_swap_outputs_bitwise(self, method, per_id_v, per_id_r,
                                                     noise_v):
        # mult solves the plan once, with the subset that sorts first by (row
        # count, bytes) on the rows; each case sees both orientations.
        fv, fr, av, ar, _ = blob_instance(seed=11, gap=0.2, per_id_v=per_id_v,
                                          per_id_r=per_id_r)
        if noise_v:
            labels_v = av.labels.copy()
            labels_v[3] = NOISE
            av = ClusterAssignment(labels_v, av.k)
        cfg = PipelineConfig(kappa=8)
        ab = METHODS[method](fv, fr, av, ar, cfg, Direction.BOTH)
        ba = METHODS[method](fr, fv, ar, av, cfg, Direction.BOTH)
        for mine, theirs in ((ab.intra_v, ba.intra_r), (ab.cross_r, ba.cross_v),
                             (ab.intra_r, ba.intra_v), (ab.cross_v, ba.cross_r)):
            assert np.array_equal(mine.indices, theirs.indices)
            assert np.array_equal(mine.labels.probs, theirs.labels.probs)

    @pytest.mark.parametrize("gap, std, gap_mode, per_id", [
        (0.3, 0.03, GapMode.SHARED_OFFSET, 10),
        (1.2, 0.08, GapMode.PER_ID_OFFSET, 20),
    ], ids=["easy", "hard"])
    def test_matches_allocating_oracles_bitwise(self, monkeypatch, gap, std, gap_mode, per_id):
        spec = SynthSpec(num_ids=10, per_id_v=per_id, per_id_r=per_id, dim=32,
                         blob_std=std, modality_gap=gap, gap_mode=gap_mode, seed=4)
        fv, fr, gt = generate(spec)
        av = ClusterAssignment(gt.ids_v.astype(np.int64), 10)
        ar = ClusterAssignment(gt.ids_r.astype(np.int64), 10)
        cfg = PipelineConfig(kappa=12)
        fast = mult_associate(fv, fr, av, ar, cfg)
        calls = []

        def patch(module, name, oracle):
            def counted(*args):
                calls.append(name)
                return oracle(*args)
            monkeypatch.setattr(module, name, counted)

        patch(affinity, "k_reciprocal_sets", oracles.k_reciprocal_sets_argsort)
        patch(affinity, "jaccard_affinity", oracles.jaccard_affinity_dense)
        patch(transport, "pairwise_sq_dists", oracles.pairwise_sq_dists_broadcast)
        patch(transport, "sinkhorn", oracles.sinkhorn_allocating)
        patch(transfer, "transfer_step", oracles.transfer_step_allocating)
        slow = mult_associate(fv, fr, av, ar, cfg)
        assert set(calls) == {"k_reciprocal_sets", "jaccard_affinity", "pairwise_sq_dists",
                              "sinkhorn", "transfer_step"}
        for name in ("intra_v", "cross_r", "intra_r", "cross_v"):
            assert np.array_equal(getattr(fast, name).labels.probs,
                                  getattr(slow, name).labels.probs)

    def test_each_affinity_built_once(self, monkeypatch):
        calls = {"homogeneous": 0, "heterogeneous": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(transfer, "homogeneous_affinity",
                            counted("homogeneous", transfer.homogeneous_affinity))
        monkeypatch.setattr(transfer, "heterogeneous_affinity",
                            counted("heterogeneous", transfer.heterogeneous_affinity))
        fv, fr, av, ar, _ = blob_instance(seed=3)
        mult_associate(fv, fr, av, ar, PipelineConfig(kappa=8), Direction.BOTH)
        assert calls == {"homogeneous": 2, "heterogeneous": 1}

    @pytest.mark.parametrize("swap", [False, True], ids=["v-fewer", "r-fewer"])
    def test_plan_rows_are_the_side_with_fewer_rows_before_bytes(self, monkeypatch, swap):
        # 21 visible rows against 27 infrared, and the visible rows have the
        # larger bytes: keying on bytes alone would put the infrared side on rows
        fv, fr, av, ar, _ = blob_instance(seed=1, gap=0.2, per_id_v=7, per_id_r=9)
        assert fv.data.tobytes() > fr.data.tobytes()
        shapes = []

        def recording(rows, cols, lam):
            shapes.append((len(rows), len(cols)))
            return heterogeneous_plan(rows, cols, lam)

        monkeypatch.setattr(transport, "heterogeneous_plan", recording)
        args = (fr, fv, ar, av) if swap else (fv, fr, av, ar)
        mult_associate(*args, PipelineConfig(kappa=8))
        # the cross-modal plan is the one without K = 3 columns; the other two
        # are the OTLA plans, one per direction
        assert sorted(shapes) == [(21, 3), (21, 27), (27, 3)]

    @pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
    def test_each_composite_built_once(self, monkeypatch, direction):
        built, used = [], []

        def counted(ho, he):
            built.append(he.shape)
            return smoothed_transport(ho, he)

        def recorded(state, aff, cfg, anchors, on_step=None):
            used.append(aff)
            return run_transfer(state, aff, cfg, anchors, on_step)

        monkeypatch.setattr(transfer, "smoothed_transport", counted)
        monkeypatch.setattr(transfer, "run_transfer", recorded)
        fv, fr, av, ar, _ = blob_instance(seed=3, per_id_v=9, per_id_r=7)
        mult_associate(fv, fr, av, ar, PipelineConfig(kappa=8), direction)
        assert built == [(27, 21), (21, 27)]
        if direction is Direction.BOTH:
            v2r, r2v = used
            assert r2v.a_st is v2r.a_ts and r2v.a_ts is v2r.a_st

    @pytest.mark.parametrize("collect_trace", [False, True], ids=["untraced", "traced"])
    def test_graphs_are_dropped_before_the_loops_unless_traced(self, monkeypatch,
                                                               collect_trace):
        graphs, alive = [], []

        def recorded_graph(rows, kappa):
            ho = homogeneous_affinity(rows, kappa)
            graphs.append(weakref.ref(ho))
            return ho

        def recorded_run(state, aff, cfg, anchors, on_step=None):
            alive.append([ref() is not None for ref in graphs])
            alive.append([aff.ho_src is not None, aff.ho_tgt is not None])
            return run_transfer(state, aff, cfg, anchors, on_step)

        monkeypatch.setattr(transfer, "homogeneous_affinity", recorded_graph)
        monkeypatch.setattr(transfer, "run_transfer", recorded_run)
        fv, fr, av, ar, _ = blob_instance(seed=3, per_id_v=9, per_id_r=7)
        cfg = PipelineConfig(kappa=8)
        result = mult_associate(fv, fr, av, ar, cfg, collect_trace=collect_trace)
        assert len(graphs) == 2
        assert alive == [[collect_trace, collect_trace]] * 4
        # keeping the graphs changes no label bit
        other = mult_associate(fv, fr, av, ar, cfg, collect_trace=not collect_trace)
        for name in ("intra_v", "cross_r", "intra_r", "cross_v"):
            assert np.array_equal(getattr(result, name).labels.probs,
                                  getattr(other, name).labels.probs)

    @pytest.mark.parametrize("num_ids, per_id, budget", [(30, 20, 3.3), (120, 5, 3.15)],
                             ids=["k30", "k120"])
    def test_untraced_peak_memory_budget(self, num_ids, per_id, budget):
        # 600 + 600 rows, in 8-byte units: measured 3.24 N² + 8NK at K = 30
        # and 3.06 N² + 8NK at K = 120 (3.64 and 4.66 N² in all). The peak is
        # the second Jaccard graph's build (~1.76 N²) beside the two float32
        # plan factors (1 N²), the first float32 composite and the N×K start
        # labels and anchors. A float64 Jaccard product and a two-array
        # distance build took them to 3.63 and 3.33 (+ 8NK); float64 factors
        # and composites to 5.53 and 6.66 N² in all, and keeping both graphs
        # through the loops to 6.61 and 8.26.
        fv, fr, av, ar, _ = blob_instance(seed=5, gap=0.3, num_ids=num_ids,
                                          per_id_v=per_id, per_id_r=per_id)
        n, k = 600, num_ids
        assert (fv.n, fr.n) == (n, n)
        tracemalloc.start()
        try:
            mult_associate(fv, fr, av, ar, PipelineConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (budget * n * n + 8.0 * n * k)

    @pytest.mark.parametrize("direction", [Direction.V2R, Direction.R2V], ids=["v2r", "r2v"])
    @pytest.mark.parametrize("method", METHODS)
    def test_single_direction_leaves_other_empty(self, method, direction):
        fv, fr, av, ar, _ = blob_instance(seed=3)
        result = METHODS[method](fv, fr, av, ar, PipelineConfig(kappa=8), direction)
        run = (result.intra_v, result.cross_r)
        idle = (result.intra_r, result.cross_v)
        if direction is Direction.R2V:
            run, idle = idle, run
        assert all(subset is not None for subset in run)
        assert all(subset is None for subset in idle)

    def test_noise_instances_sit_out(self):
        fv, fr, av, ar, _ = blob_instance(seed=7)
        labels_v = av.labels.copy()
        labels_v[[0, 5]] = NOISE
        noisy = ClusterAssignment(labels_v, av.k)
        result = mult_associate(fv, fr, noisy, ar, PipelineConfig(kappa=6))
        hard = result.intra_v.hard_full(fv.n)
        assert hard[0] == NOISE and hard[5] == NOISE
        assert (hard[1:5] != NOISE).all()
        soft = result.intra_v.soft_full(fv.n)
        assert np.all(soft[0] == 0.0) and np.all(soft[5] == 0.0)
        assert np.allclose(soft[1].sum(), 1.0)

    def test_trace_collection(self):
        fv, fr, av, ar, _ = blob_instance(seed=2)
        for direction in Direction:
            result = mult_associate(fv, fr, av, ar, PipelineConfig(kappa=8), direction,
                                    collect_trace=True)
            ran = ["v2r", "r2v"] if direction is Direction.BOTH else [direction.value]
            assert list(result.traces) == ran
            for trace in result.traces.values():
                assert trace[0]["t"] == 0
                assert trace[0]["epsilon"] is None
                assert trace[0]["self_src"] == 0.0
                assert [e["t"] for e in trace] == list(range(len(trace)))
                assert all("weighted_total" in e for e in trace)

    def test_no_trace_by_default(self):
        fv, fr, av, ar, _ = blob_instance(seed=2)
        for method in METHODS.values():
            result = method(fv, fr, av, ar, PipelineConfig(kappa=8))
            assert result.traces is None
            assert isinstance(result, AssociationResult)

    @pytest.mark.parametrize("per_id_v, per_id_r", [(8, 8), (9, 7)],
                             ids=["equal-sizes", "unequal-sizes"])
    @pytest.mark.parametrize("direction", [Direction.V2R, Direction.R2V], ids=lambda d: d.value)
    def test_matches_the_one_direction_run_assembled_by_hand(self, direction,
                                                              per_id_v, per_id_r):
        # Equal sizes, so composites or anchors assembled in the wrong roles
        # pass every shape check; a gap and a small ε0, so the loop runs
        # several steps.
        fv, fr, av, ar, _ = blob_instance(seed=6, gap=0.4, gap_mode=GapMode.PER_ID_OFFSET,
                                          per_id_v=per_id_v, per_id_r=per_id_r)
        cfg = PipelineConfig(kappa=6, epsilon0=1e-9)
        result = mult_associate(fv, fr, av, ar, cfg, direction, collect_trace=True)
        names = ["intra_v", "cross_r"]
        if direction is Direction.R2V:
            fv, fr, av, names = fr, fv, ar, ["intra_r", "cross_v"]
        start = init_labels(fv.data, fr.data, av, cfg)
        aff = one_way_affinities(homogeneous_affinity(fv.data, cfg.kappa),
                                 homogeneous_affinity(fr.data, cfg.kappa),
                                 *heterogeneous_affinity(fv.data, fr.data, cfg.ot_lambda))
        trace = [dict(inconsistency(start, aff, cfg.alpha), t=0, epsilon=None)]

        def on_step(st):
            trace.append(dict(inconsistency(st, aff, cfg.alpha), t=st.t,
                              epsilon=float(st.epsilon)))

        final = run_transfer(start, aff, cfg, one_way_anchors(start, aff, cfg.alpha), on_step)
        assert final.t > 3
        assert result.traces == {direction.value: trace}
        for name, labels in zip(names, fuse_labels(final, cfg.beta)):
            assert getattr(result, name).labels.probs.tobytes() == labels.probs.tobytes()


class TestLabelTable:
    """AssociationResult.hard/soft give each matrix over its whole modality."""

    def test_names_in_file_order_with_their_modality(self):
        v, r = Modality.VISIBLE, Modality.INFRARED
        assert list(LABELS.items()) == [("intra_v", v), ("cross_r", r),
                                        ("intra_r", r), ("cross_v", v)]

    @pytest.mark.parametrize("direction, noise", [
        (Direction.V2R, False), (Direction.R2V, False), (Direction.BOTH, True),
    ], ids=["v2r", "r2v", "noise-rows"])
    @pytest.mark.parametrize("method", METHODS)
    def test_accessors_are_the_subsets_over_their_modality(self, method, direction, noise):
        # unequal sides, so a matrix placed over the wrong modality shows
        fv, fr, av, ar, _ = blob_instance(seed=4, per_id_v=9, per_id_r=7)
        if noise:
            labels_v, labels_r = av.labels.copy(), ar.labels.copy()
            labels_v[[0, 5]] = NOISE
            labels_r[3] = NOISE
            av, ar = ClusterAssignment(labels_v, av.k), ClusterAssignment(labels_r, ar.k)
        result = METHODS[method](fv, fr, av, ar, PipelineConfig(kappa=6), direction)
        sides = {Modality.VISIBLE: (fv.n, av), Modality.INFRARED: (fr.n, ar)}
        ran = []
        for name, modality in LABELS.items():
            subset = getattr(result, name)
            if subset is None:
                assert result.hard(name) is None and result.soft(name) is None
                continue
            ran.append(name)
            total, assign = sides[modality]
            assert np.array_equal(subset.indices, assign.clustered_indices())
            hard, soft = result.hard(name), result.soft(name)
            assert hard.shape == (total,) and soft.shape == (total, subset.labels.space_size)
            assert np.array_equal(hard, subset.hard_full(total))
            assert soft.tobytes() == subset.soft_full(total).tobytes()
            assert np.array_equal(hard == NOISE, assign.labels == NOISE)
        expected = {Direction.V2R: ["intra_v", "cross_r"], Direction.R2V: ["intra_r", "cross_v"],
                    Direction.BOTH: list(LABELS)}
        assert ran == expected[direction]


class TestStationarity:
    def test_residual_small_at_tight_convergence(self):
        # the update alternation settles where the smoothed anchor pull
        # balances; on well separated blobs the stationarity residual of the
        # weighted objective vanishes entrywise
        fv, fr, av, ar, _ = blob_instance(seed=13, gap=0.3)
        cfg = PipelineConfig(kappa=8, epsilon0=1e-6, max_transfer_iters=10_000)
        idx_v = av.clustered_indices()
        state = init_labels(fv.data, fr.data, av, cfg)
        ho_s = homogeneous_affinity(fv.data, cfg.kappa)
        ho_t = homogeneous_affinity(fr.data, cfg.kappa)
        he_st, he_ts = heterogeneous_affinity(fv.data, fr.data, cfg.ot_lambda)
        aff = one_way_affinities(ho_s, ho_t, he_st, he_ts)
        out = run(state, aff, cfg)
        assert not out.cap_hit
        resid = (
            2.0 * cfg.alpha * (out.intra - out.intra0)
            + 2.0 * (1.0 - cfg.alpha) * (out.intra - aff.he_st @ out.cross)
            + 2.0 * (out.intra - aff.ho_src @ out.intra)
        )
        assert np.abs(resid).max() <= 1e-4


FIXED_POINT_SETS = {
    "easy": SynthSpec(num_ids=10, per_id_v=20, per_id_r=20, dim=64, blob_std=0.03,
                      modality_gap=0.3, gap_mode=GapMode.SHARED_OFFSET, seed=1),
    "hard": SynthSpec(num_ids=10, per_id_v=20, per_id_r=20, dim=32, blob_std=0.08,
                      modality_gap=1.2, gap_mode=GapMode.PER_ID_OFFSET, seed=4),
    "cli": SynthSpec(num_ids=40, per_id_v=5, per_id_r=5, dim=64, blob_std=0.03,
                     modality_gap=0.3, gap_mode=GapMode.SHARED_OFFSET, seed=1),
}


class TestFixedPoint:
    """Without its clamp a step is the sweep intra <- (1 - alpha) A_st cross + b,
    then cross <- (1 - alpha) A_ts intra + b from the intra just computed. It
    contracts by 1 - alpha in max-row-L1 and has the fixed point of
    x <- (1 - alpha) M x + b, and it is stepped with float32 composites. So it
    ends within the certificate B of the fixed point of the float64 operator,
    which oracles.transfer_fixed_point solves from float64 plan factors."""

    @staticmethod
    def one_direction(spec, cfg):
        """V2R's start, affinities and anchors on spec's data, clustered by
        its ground truth."""
        fv, fr, gt = generate(spec)
        av = ClusterAssignment(gt.ids_v.astype(np.int64), spec.num_ids)
        start = init_labels(fv.data, fr.data, av, cfg)
        aff = one_way_affinities(homogeneous_affinity(fv.data, cfg.kappa),
                                 homogeneous_affinity(fr.data, cfg.kappa),
                                 *heterogeneous_affinity(fv.data, fr.data, cfg.ot_lambda))
        return fv, fr, start, aff, one_way_anchors(start, aff, cfg.alpha)

    def certified_run(self, monkeypatch, spec, epsilon0):
        """Run one direction to epsilon0 and check it against x*: within B,
        and with x*'s hard label on every row whose top-two gap exceeds B."""
        cfg = PipelineConfig(kappa=10, epsilon0=epsilon0, max_transfer_iters=1000)
        alpha = cfg.alpha
        fv, fr, start, aff, anchors = self.one_direction(spec, cfg)
        plan = heterogeneous_plan(fv, fr, cfg.ot_lambda).plan
        he_ts = affinity.row_normalize(plan.T.copy())
        he_st = affinity.row_normalize(plan)
        fired = []
        clamp = transfer._clamp_renorm

        def counting(out):
            fired.append(int(((out > 0.0) & (out < transfer._CLAMP)).sum()))
            return clamp(out)

        states = [start]
        monkeypatch.setattr(transfer, "_clamp_renorm", counting)
        final = run_transfer(start, aff, cfg, anchors, on_step=states.append)
        monkeypatch.undo()
        assert not final.cap_hit and fired and sum(fired) == 0

        bound = certificate(final, states[-2], aff, anchors, alpha, he_st, he_ts)
        exact = one_way_affinities(aff.ho_src, aff.ho_tgt, he_st, he_ts)
        x_intra, x_cross = transfer_fixed_point(exact, anchors, alpha)
        dist = max(row_l1(final.intra - x_intra), row_l1(final.cross - x_cross))
        print(f"{final.t} steps: distance {dist:.3e}, bound {bound:.3e}")
        assert dist <= bound

        fused = fuse_labels(final, cfg.beta)
        fused_star = fuse_labels(replace(final, intra=x_intra, cross=x_cross), cfg.beta)
        for got, want, x in zip(fused, fused_star, (x_intra, x_cross)):
            top2 = np.sort(x, axis=1)[:, -2:]
            clear = top2[:, 1] - top2[:, 0] >= bound
            assert np.array_equal(got.probs.argmax(axis=1)[clear],
                                  want.probs.argmax(axis=1)[clear])
        return final

    @pytest.mark.parametrize("name, epsilon0", [
        pytest.param(name, epsilon0, id=name if epsilon0 == 1e-7 else f"{name}-eps{epsilon0:.0e}")
        for name in FIXED_POINT_SETS for epsilon0 in (1e-2, 1e-7, 1e-12)])
    def test_loop_ends_at_the_fixed_point(self, monkeypatch, name, epsilon0):
        self.certified_run(monkeypatch, FIXED_POINT_SETS[name], epsilon0)

    def test_a_run_below_the_float32_precision_goes_to_the_cap(self, monkeypatch):
        # On this hard-epoch-shaped 400 + 400 set the float32 operator's
        # updates settle between 3e-8 and 4e-7, so ε0 = 1e-12 is never met:
        # each direction runs to the cap and says so, as any run that cannot
        # reach ε0 does.
        spec = SynthSpec(num_ids=20, per_id_v=20, per_id_r=20, dim=32, blob_std=0.08,
                         modality_gap=1.2, gap_mode=GapMode.PER_ID_OFFSET)
        fv, fr, gt = generate(spec)
        cfg = PipelineConfig(epsilon0=1e-12, max_transfer_iters=60)
        finals = []

        def recording(*args, **kwargs):
            finals.append(run_transfer(*args, **kwargs))
            return finals[-1]

        monkeypatch.setattr(transfer, "run_transfer", recording)
        mult_associate(fv, fr, ClusterAssignment(gt.ids_v, spec.num_ids),
                       ClusterAssignment(gt.ids_r, spec.num_ids), cfg)
        assert len(finals) == 2
        for final in finals:
            assert final.t == 60 and final.cap_hit and final.epsilon > cfg.epsilon0

    @pytest.mark.parametrize("name", FIXED_POINT_SETS)
    def test_takes_at_most_six_tenths_of_the_jacobi_steps(self, monkeypatch, name):
        # A step whose cross half reads the intra labels it has just computed
        # contracts at the square of the rate of one whose halves both read
        # the previous labels (the block 2-cyclic map), so a Jacobi-order loop
        # under the same stop rules needs well over 1/0.6 as many steps.
        cfg = PipelineConfig(kappa=10, epsilon0=1e-4, max_transfer_iters=1000)
        _, _, start, aff, anchors = self.one_direction(FIXED_POINT_SETS[name], cfg)

        def jacobi_step(state, aff, alpha, anchors):
            intra = transfer._pull(aff.a_st, state.cross, alpha, anchors[0])
            cross = transfer._pull(aff.a_ts, state.intra, alpha, anchors[1])
            eps = max(transfer._l1_gap(intra, state.intra),
                      transfer._l1_gap(cross, state.cross))
            return replace(state, intra=intra, cross=cross, t=state.t + 1, epsilon=eps)

        sweeps = run_transfer(start, aff, cfg, anchors)
        monkeypatch.setattr(transfer, "transfer_step", jacobi_step)
        jacobi = run_transfer(start, aff, cfg, anchors)
        print(f"{name}: {sweeps.t} steps against Jacobi's {jacobi.t}")
        assert max(sweeps.epsilon, jacobi.epsilon) <= cfg.epsilon0
        assert sweeps.t <= 0.6 * jacobi.t
