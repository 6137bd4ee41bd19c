import numpy as np
import pytest

from xmod import transfer
from xmod.core import NOISE, PipelineConfig, SoftLabelMatrix
from xmod.clustering import ClusterAssignment
from xmod.affinity import homogeneous_affinity
from xmod.metrics import full_report
from xmod.synth import SynthSpec, generate
from xmod.transfer import (
    AssociationResult,
    Direction,
    DirectionAffinities,
    TransferState,
    fuse_labels,
    inconsistency,
    init_labels,
    mult_associate,
    run_transfer,
    transfer_step,
)
from xmod.transport import heterogeneous_affinity, otla_init

from conftest import random_unit_rows


def random_stochastic(rng, n, m):
    a = rng.random((n, m)) + 0.05
    return a / a.sum(axis=1, keepdims=True)


def random_soft_labels(rng, n, k):
    return random_stochastic(rng, n, k)


def random_instance(rng, ns=7, nt=5, k=3):
    aff = DirectionAffinities(
        ho_src=random_stochastic(rng, ns, ns),
        ho_tgt=random_stochastic(rng, nt, nt),
        he_st=random_stochastic(rng, ns, nt),
        he_ts=random_stochastic(rng, nt, ns),
    )
    intra0 = random_soft_labels(rng, ns, k)
    cross0 = random_soft_labels(rng, nt, k)
    state = TransferState(intra0.copy(), cross0.copy(), intra0, cross0)
    return state, aff


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
    w = (1.0 - alpha) * matvec(aff.he_ts, state.intra) + alpha * state.cross0
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
        state, bank = init_labels(f_src, f_tgt, assign, PipelineConfig())
        assert np.allclose(state.intra0, 1.0)
        assert np.allclose(state.cross0, 1.0)
        assert bank.k == 1

    def test_orthonormal_prototypes_give_one_hot_intra(self, rng):
        f_src = np.eye(3)
        f_tgt = random_unit_rows(rng, 4, 3)
        assign = ClusterAssignment(np.arange(3, dtype=np.int64), 3)
        state, _ = init_labels(f_src, f_tgt, assign, PipelineConfig(tau=0.05))
        assert np.abs(state.intra0 - np.eye(3)).max() < 1e-8

    def test_intra_rows_sum_to_one(self, rng):
        f_src = random_unit_rows(rng, 20, 6)
        f_tgt = random_unit_rows(rng, 15, 6)
        assign = ClusterAssignment(rng.integers(0, 4, size=20).astype(np.int64), 4)
        state, _ = init_labels(f_src, f_tgt, assign, PipelineConfig())
        assert np.abs(state.intra0.sum(axis=1) - 1.0).max() < 1e-9

    def test_cross_matches_transport_init(self, rng):
        f_src = random_unit_rows(rng, 12, 5)
        f_tgt = random_unit_rows(rng, 9, 5)
        assign = ClusterAssignment(rng.integers(0, 3, size=12).astype(np.int64), 3)
        cfg = PipelineConfig()
        state, bank = init_labels(f_src, f_tgt, assign, cfg)
        expect = otla_init(f_tgt, bank, cfg.ot_lambda).probs
        assert np.array_equal(state.cross0, expect)

    def test_state_starts_fresh(self, rng):
        f = random_unit_rows(rng, 6, 4)
        assign = ClusterAssignment(rng.integers(0, 2, size=6).astype(np.int64), 2)
        state, _ = init_labels(f, f, assign, PipelineConfig())
        assert state.t == 0
        assert state.epsilon == 1e6
        assert not state.cap_hit
        assert np.array_equal(state.intra, state.intra0)
        assert np.array_equal(state.cross, state.cross0)


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
        aff = DirectionAffinities(swap, swap, np.eye(2), np.eye(2))
        rep = inconsistency(state, aff, alpha=0.2)
        assert rep["homogeneous_src"] == pytest.approx(4.0, abs=1e-12)

    def test_matches_triple_loop_oracle(self, rng):
        for _ in range(5):
            state, aff = random_instance(rng)
            state = transfer_step(state, aff, alpha=0.2)  # so self terms are live
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
        aff = DirectionAffinities(np.eye(29), np.eye(2), he_st, he_st.T.copy())
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


class TestTransferStep:
    def test_matches_loop_oracle(self, rng):
        state, aff = random_instance(rng)
        new = transfer_step(state, aff, alpha=0.2)
        intra_e, cross_e = step_oracle(state, aff, 0.2)
        assert np.abs(new.intra - intra_e).max() < 1e-12
        assert np.abs(new.cross - cross_e).max() < 1e-12
        eps_e = max(np.abs(intra_e - state.intra).sum(),
                    np.abs(cross_e - state.cross).sum())
        assert new.epsilon == pytest.approx(eps_e, abs=1e-12)
        assert new.t == 1

    def test_alpha_one_ignores_cross(self, rng):
        state, aff = random_instance(rng)
        other_cross = random_soft_labels(rng, state.cross.shape[0], state.cross.shape[1])
        poked = TransferState(state.intra, other_cross, state.intra0, state.cross0)
        a = transfer_step(state, aff, alpha=1.0)
        b = transfer_step(poked, aff, alpha=1.0)
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
        aff = DirectionAffinities(np.eye(n), np.eye(n), p, p.T)
        state = TransferState(intra0.copy(), cross0.copy(), intra0, cross0)
        new = transfer_step(state, aff, alpha=0.2)
        assert new.epsilon < 1e-12
        assert np.abs(new.intra - intra0).max() < 1e-12
        assert np.abs(new.cross - cross0).max() < 1e-12

    def test_rows_stay_stochastic(self, rng):
        state, aff = random_instance(rng, ns=11, nt=8, k=4)
        for _ in range(5):
            state = transfer_step(state, aff, alpha=0.2)
            assert np.abs(state.intra.sum(axis=1) - 1.0).max() < 1e-9
            assert np.abs(state.cross.sum(axis=1) - 1.0).max() < 1e-9
            assert state.intra.min() >= 0.0
            assert state.cross.min() >= 0.0

    def test_tiny_probabilities_snap_to_zero(self):
        # he pulls everything onto label 0; the 1e-30 leak must not survive
        intra0 = np.array([[1.0 - 1e-30, 1e-30], [1.0, 0.0]])
        cross0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        aff = DirectionAffinities(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        state = TransferState(intra0.copy(), cross0.copy(), intra0, cross0)
        new = transfer_step(state, aff, alpha=0.2)
        assert new.intra[0, 1] == 0.0
        assert new.intra[0, 0] == 1.0


class TestRunTransfer:
    def test_fixed_point_stops_after_one_step(self, rng):
        k, n = 2, 4
        intra0 = np.zeros((n, k))
        intra0[np.arange(n), np.arange(n) % k] = 1.0
        aff = DirectionAffinities(np.eye(n), np.eye(n), np.eye(n), np.eye(n))
        state = TransferState(intra0.copy(), intra0.copy(), intra0, intra0.copy())
        out = run_transfer(state, aff, PipelineConfig())
        assert out.t == 1
        assert out.epsilon < 1e-12
        assert not out.cap_hit

    def test_epsilon_trace_settles(self, rng):
        state, aff = random_instance(rng, ns=12, nt=9, k=4)
        eps = []
        cfg = PipelineConfig(epsilon0=1e-13, max_transfer_iters=30)
        out = run_transfer(state, aff, cfg, on_step=lambda s: eps.append(s.epsilon))
        assert out.cap_hit
        assert len(eps) == 30
        assert all(np.isfinite(e) for e in eps)
        assert max(eps[-3:]) <= eps[0]

    def test_weighted_total_descends(self, rng):
        for _ in range(5):
            state, aff = random_instance(rng, ns=10, nt=10, k=3)
            before = inconsistency(state, aff, 0.2)["weighted_total"]
            out = run_transfer(state, aff, PipelineConfig(epsilon0=1e-6,
                                                          max_transfer_iters=500))
            after = inconsistency(out, aff, 0.2)["weighted_total"]
            assert after <= before + 1e-12

    def test_cap_hit_flag(self, rng):
        state, aff = random_instance(rng)
        cfg = PipelineConfig(epsilon0=1e-15, max_transfer_iters=2)
        out = run_transfer(state, aff, cfg)
        assert out.cap_hit
        assert out.t == 2

    def test_alpha_zero_rows_collapse_together(self, rng):
        # without the self anchor, smoothing over connected graphs drags
        # every row toward a common distribution
        state, aff = random_instance(rng, ns=9, nt=9, k=3)
        cfg = PipelineConfig(alpha=0.0, epsilon0=1e-15, max_transfer_iters=50)
        out = run_transfer(state, aff, cfg)

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
        state = transfer_step(state, aff, alpha=0.2)
        intra, _ = fuse_labels(state, beta=0.0)
        expect = state.intra / state.intra.sum(axis=1, keepdims=True)
        assert np.abs(intra.probs - expect).max() < 1e-12

    def test_hand_row(self):
        row = np.array([[0.2, 0.6, 0.2]])
        state = TransferState(row.copy(), row.copy(), row, row.copy())
        intra, cross = fuse_labels(state, beta=0.7)
        assert np.allclose(intra.probs, [[0.06, 0.88, 0.06]], atol=1e-12)
        assert np.allclose(cross.probs, [[0.06, 0.88, 0.06]], atol=1e-12)

    def test_outputs_are_soft_label_matrices(self, rng):
        state, _ = random_instance(rng)
        intra, cross = fuse_labels(state, beta=0.7)
        assert isinstance(intra, SoftLabelMatrix)
        assert isinstance(cross, SoftLabelMatrix)


def blob_instance(seed, gap=0.0, num_ids=3, per_id_v=8, per_id_r=8):
    spec = SynthSpec(num_ids=num_ids, per_id_v=per_id_v, per_id_r=per_id_r, dim=16,
                     blob_std=0.03, modality_gap=gap, seed=seed)
    fv, fr, gt = generate(spec)
    assign_v = ClusterAssignment(gt.ids_v.astype(np.int64), num_ids)
    assign_r = ClusterAssignment(gt.ids_r.astype(np.int64), num_ids)
    return fv, fr, assign_v, assign_r, gt


class TestMultAssociate:
    def test_zero_gap_blobs_associate_perfectly(self):
        fv, fr, av, ar, gt = blob_instance(seed=5)
        cfg = PipelineConfig(kappa=8)
        result = mult_associate(fv, fr, av, ar, cfg)
        report = full_report(result, gt)
        assert report.cross_acc_v == 1.0
        assert report.cross_acc_r == 1.0

    def test_single_cluster_everything_one(self, rng):
        fv = random_unit_rows(rng, 6, 4)
        fr = random_unit_rows(rng, 5, 4)
        av = ClusterAssignment(np.zeros(6, dtype=np.int64), 1)
        ar = ClusterAssignment(np.zeros(5, dtype=np.int64), 1)
        result = mult_associate(fv, fr, av, ar, PipelineConfig(kappa=4))
        for subset in (result.intra_v, result.cross_r, result.intra_r, result.cross_v):
            assert np.allclose(subset.labels.probs, 1.0)

    @pytest.mark.parametrize(
        "per_id_v, per_id_r, noise_v",
        [(8, 8, False), (9, 7, False), (8, 8, True)],
        ids=["equal-sizes", "unequal-sizes", "noise-row"],
    )
    def test_swapped_modalities_swap_outputs_bitwise(self, per_id_v, per_id_r, noise_v):
        # The plan is solved once, with the subset that sorts first by (row
        # count, bytes) on the rows; each case sees both orientations.
        fv, fr, av, ar, _ = blob_instance(seed=11, gap=0.2, per_id_v=per_id_v,
                                          per_id_r=per_id_r)
        if noise_v:
            labels_v = av.labels.copy()
            labels_v[3] = NOISE
            av = ClusterAssignment(labels_v, av.k)
        cfg = PipelineConfig(kappa=8)
        ab = mult_associate(fv, fr, av, ar, cfg, Direction.BOTH)
        ba = mult_associate(fr, fv, ar, av, cfg, Direction.BOTH)
        for mine, theirs in ((ab.intra_v, ba.intra_r), (ab.cross_r, ba.cross_v),
                             (ab.intra_r, ba.intra_v), (ab.cross_v, ba.cross_r)):
            assert np.array_equal(mine.indices, theirs.indices)
            assert np.array_equal(mine.labels.probs, theirs.labels.probs)

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

    def test_single_direction_leaves_other_empty(self):
        fv, fr, av, ar, _ = blob_instance(seed=3)
        result = mult_associate(fv, fr, av, ar, PipelineConfig(kappa=8),
                                Direction.V2R)
        assert result.intra_v is not None and result.cross_r is not None
        assert result.intra_r is None and result.cross_v is None

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
        result = mult_associate(fv, fr, av, ar, PipelineConfig(kappa=8),
                                collect_trace=True)
        for tag in ("v2r", "r2v"):
            trace = result.traces[tag]
            assert trace[0]["t"] == 0
            assert trace[0]["epsilon"] is None
            assert trace[0]["self_src"] == 0.0
            assert [e["t"] for e in trace] == list(range(len(trace)))
            assert all("weighted_total" in e for e in trace)

    def test_no_trace_by_default(self):
        fv, fr, av, ar, _ = blob_instance(seed=2)
        result = mult_associate(fv, fr, av, ar, PipelineConfig(kappa=8))
        assert result.traces is None
        assert isinstance(result, AssociationResult)


class TestStationarity:
    def test_residual_small_at_tight_convergence(self):
        # the update alternation settles where the smoothed anchor pull
        # balances; on well separated blobs the stationarity residual of the
        # weighted objective vanishes entrywise
        fv, fr, av, ar, _ = blob_instance(seed=13, gap=0.3)
        cfg = PipelineConfig(kappa=8, epsilon0=1e-6, max_transfer_iters=10_000)
        idx_v = av.clustered_indices()
        state, _ = init_labels(fv.data, fr.data, av, cfg)
        ho_s = homogeneous_affinity(fv.data, cfg.kappa)
        ho_t = homogeneous_affinity(fr.data, cfg.kappa)
        he_st, he_ts = heterogeneous_affinity(fv.data, fr.data, cfg.ot_lambda)
        aff = DirectionAffinities(ho_s, ho_t, he_st, he_ts)
        out = run_transfer(state, aff, cfg)
        assert not out.cap_hit
        resid = (
            2.0 * cfg.alpha * (out.intra - out.intra0)
            + 2.0 * (1.0 - cfg.alpha) * (out.intra - aff.he_st @ out.cross)
            + 2.0 * (out.intra - aff.ho_src @ out.intra)
        )
        assert np.abs(resid).max() <= 1e-4
