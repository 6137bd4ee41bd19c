import math
import re

import numpy as np
import pytest

from xmod import losses
from xmod.core import NOISE, FeatureMatrix, Modality, PipelineConfig, XmodError
from xmod.cli import main
from xmod.clustering import MemoryBank, dbscan, memory_probabilities
from xmod.fileio import write_features, write_labels
from xmod.losses import (
    LossReport,
    ModeBanks,
    TrainingMode,
    loss_report,
    mean_reports,
    pass_batches,
    soft_cross_entropy,
)
from xmod.pipeline import make_banks, run_epoch
from xmod.synth import GapMode, SynthSpec, generate
from xmod.transfer import LABELS

import oracles
from conftest import random_unit_rows


def random_soft(rng, n, k):
    a = rng.random((n, k)) + 0.05
    return a / a.sum(axis=1, keepdims=True)


def make_bank(rng, k, d):
    return MemoryBank(random_unit_rows(rng, k, d))


def random_batch(rng, b=8, d=6, kv=3, kr=4):
    """A batch as pass_batches yields it: (visible rows, infrared rows, soft
    label rows by name)."""
    fv, fr = random_unit_rows(rng, b, d), random_unit_rows(rng, b, d)
    return fv, fr, {"intra_v": random_soft(rng, b, kv), "intra_r": random_soft(rng, b, kr),
                    "cross_v": random_soft(rng, b, kr), "cross_r": random_soft(rng, b, kv)}


def uniform_batch(features_v, features_r, k):
    """A batch whose four label matrices are uniform over k clusters."""
    return features_v, features_r, dict.fromkeys(LABELS, np.full((features_v.shape[0], k), 1 / k))


def banks_for(rng, mode, d=6, kv=3, kr=4):
    src_k = kv if mode is TrainingMode.V_BASED else kr
    return ModeBanks(
        mode=mode,
        intra_v=make_bank(rng, kv, d),
        intra_r=make_bank(rng, kr, d),
        shared=make_bank(rng, src_k, d),
        intra_cross=make_bank(rng, src_k, d),
    )


class TestSoftCrossEntropy:
    def test_one_hot_against_logistic_prob(self):
        p_k = math.e / (math.e + 1.0)
        val = soft_cross_entropy(np.array([p_k, 1.0 - p_k]), np.array([1.0, 0.0]))
        assert val == pytest.approx(-math.log(p_k), abs=1e-12)
        assert val == pytest.approx(0.31326, abs=1e-5)

    def test_uniform_self_entropy(self):
        u = np.full(4, 0.25)
        assert soft_cross_entropy(u, u) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_perfect_prediction_goes_to_zero(self):
        y = np.array([0.0, 1.0, 0.0])
        for p1 in (0.999, 0.999999, 1.0 - 1e-12):
            rest = (1.0 - p1) / 2.0
            loss = soft_cross_entropy(np.array([rest, p1, rest]), y)
            assert 0.0 <= loss <= 2.0 * (1.0 - p1) + 1e-11

    def test_zero_prediction_stays_finite(self):
        val = soft_cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(val)
        assert val == pytest.approx(-math.log(1e-30))

    def test_rowwise_on_matrices(self, rng):
        p = random_soft(rng, 5, 3)
        y = random_soft(rng, 5, 3)
        rows = soft_cross_entropy(p, y)
        assert rows.shape == (5,)
        for i in range(5):
            assert rows[i] == pytest.approx(oracles.cross_entropy_row(p[i], y[i]), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(XmodError, match="^prediction and target shapes differ$"):
            soft_cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))

    def test_gibbs_inequality(self, rng):
        for _ in range(200):
            p = random_soft(rng, 1, 5)[0]
            y = random_soft(rng, 1, 5)[0]
            entropy = -(y * np.log(y)).sum()
            assert soft_cross_entropy(p, y) >= entropy - 1e-9
            assert soft_cross_entropy(y, y) == pytest.approx(entropy, abs=1e-12)


class TestLossIm:
    def test_single_instance_matching_prototype(self):
        banks = ModeBanks(
            mode=TrainingMode.V_BASED,
            intra_v=MemoryBank(np.eye(2)),
            intra_r=MemoryBank(np.eye(2)),
            shared=MemoryBank(np.eye(2)),
            intra_cross=MemoryBank(np.eye(2)),
        )
        one = np.array([[1.0, 0.0]])
        batch = (one, one, dict.fromkeys(LABELS, one))
        l_v = loss_report(batch, banks, tau=1.0, sharpen_divisor=5.0).l_im_v
        assert l_v == pytest.approx(0.31326, abs=1e-5)

    def test_uniform_everything(self, rng):
        # identical prototypes predict uniformly whatever the feature is
        proto = random_unit_rows(rng, 1, 5)
        bank = MemoryBank(np.tile(proto, (4, 1)))
        banks = ModeBanks(TrainingMode.V_BASED, bank, bank, bank, bank)
        batch = uniform_batch(random_unit_rows(rng, 3, 5), random_unit_rows(rng, 3, 5), 4)
        rep = loss_report(batch, banks, tau=0.05, sharpen_divisor=5.0)
        l_v, l_r = rep.l_im_v, rep.l_im_r
        assert l_v == pytest.approx(math.log(4.0), abs=1e-9)
        assert l_r == pytest.approx(2.0 * math.log(4.0), abs=1e-9)

    def test_v_based_infrared_has_two_terms(self, rng):
        batch = random_batch(rng)
        _, fr, y = batch
        banks = banks_for(rng, TrainingMode.V_BASED)
        l_r = loss_report(batch, banks, tau=0.05, sharpen_divisor=5.0).l_im_r
        expect = (
            oracles.mean_ce(fr, banks.intra_r.prototypes, 0.05, y["intra_r"])
            + oracles.mean_ce(fr, banks.intra_cross.prototypes, 0.05, y["cross_r"])
        )
        assert l_r == pytest.approx(expect, abs=1e-9)

    def test_r_based_visible_terms(self, rng):
        batch = random_batch(rng)
        fv, fr, y = batch
        banks = banks_for(rng, TrainingMode.R_BASED)
        rep = loss_report(batch, banks, tau=0.05, sharpen_divisor=5.0)
        l_v, l_r = rep.l_im_v, rep.l_im_r
        expect_v = (
            oracles.mean_ce(fr, banks.intra_v.prototypes, 0.05, y["intra_v"])
            + oracles.mean_ce(fv, banks.intra_cross.prototypes, 0.05, y["cross_v"])
        )
        expect_r = oracles.mean_ce(fr, banks.intra_r.prototypes, 0.05, y["intra_r"])
        assert l_v == pytest.approx(expect_v, abs=1e-9)
        assert l_r == pytest.approx(expect_r, abs=1e-9)

    def test_wrong_label_space_raises(self, rng):
        fv, fr, y = random_batch(rng, kv=3, kr=4)
        y["intra_v"] = random_soft(rng, 8, 5)  # five columns against a K=3 bank
        with pytest.raises(XmodError, match="^bank space 3 does not match label space 5$"):
            loss_report((fv, fr, y), banks_for(rng, TrainingMode.V_BASED), tau=0.05,
                        sharpen_divisor=5.0)

    # each mode reads three of the four matrices
    @pytest.mark.parametrize("mode,name", [
        (TrainingMode.V_BASED, "intra_v"), (TrainingMode.V_BASED, "intra_r"),
        (TrainingMode.V_BASED, "cross_r"), (TrainingMode.R_BASED, "intra_v"),
        (TrainingMode.R_BASED, "intra_r"), (TrainingMode.R_BASED, "cross_v"),
    ], ids=lambda x: getattr(x, "value", x))
    def test_label_rows_past_their_features_are_refused(self, rng, mode, name):
        fv, fr, y = random_batch(rng)
        y[name] = np.vstack([y[name], y[name][:2]])
        with pytest.raises(XmodError, match="^prediction and target shapes differ$"):
            loss_report((fv, fr, y), banks_for(rng, mode), tau=0.05, sharpen_divisor=5.0)


class TestLossCm:
    def test_identical_modalities_sharp_tau(self):
        protos = np.eye(3)
        bank = MemoryBank(protos)
        banks = ModeBanks(TrainingMode.V_BASED, bank, bank, bank, bank)
        batch = (protos.copy(), protos.copy(), dict.fromkeys(LABELS, np.eye(3)))
        assert loss_report(batch, banks, tau=0.01, sharpen_divisor=5.0).l_cm < 1e-6

    def test_uniform_k3(self, rng):
        proto = random_unit_rows(rng, 1, 4)
        bank = MemoryBank(np.tile(proto, (3, 1)))
        banks = ModeBanks(TrainingMode.V_BASED, bank, bank, bank, bank)
        batch = uniform_batch(random_unit_rows(rng, 2, 4), random_unit_rows(rng, 2, 4), 3)
        l_cm = loss_report(batch, banks, tau=0.05, sharpen_divisor=5.0).l_cm
        assert l_cm == pytest.approx(2.0 * math.log(3.0), abs=1e-9)
        assert l_cm == pytest.approx(2.19722, abs=1e-5)

    def test_matches_oracle_both_modes(self, rng):
        for mode in TrainingMode:
            batch = random_batch(rng)
            fv, fr, y = batch
            banks = banks_for(rng, mode)
            got = loss_report(batch, banks, tau=0.05, sharpen_divisor=5.0).l_cm
            sh = banks.shared.prototypes
            if mode is TrainingMode.V_BASED:
                expect = (oracles.mean_ce(fv, sh, 0.05, y["intra_v"])
                          + oracles.mean_ce(fr, sh, 0.05, y["cross_r"]))
            else:
                expect = (oracles.mean_ce(fv, sh, 0.05, y["cross_v"])
                          + oracles.mean_ce(fr, sh, 0.05, y["intra_r"]))
            assert got == pytest.approx(expect, abs=1e-9)


class TestLossOclr:
    def test_identical_banks_divisor_one_gives_entropy(self, rng):
        bank = make_bank(rng, 3, 5)
        banks = ModeBanks(TrainingMode.V_BASED, bank, bank, bank, bank)
        batch = uniform_batch(random_unit_rows(rng, 4, 5), random_unit_rows(rng, 4, 5), 3)
        rep = loss_report(batch, banks, tau=0.05, sharpen_divisor=1.0)
        l_v, l_r = rep.l_oclr_v, rep.l_oclr_r
        for feats, got in ((batch[0], l_v), (batch[1], l_r)):
            pred = memory_probabilities(feats, bank, 0.05)
            entropy = float((-(pred * np.log(pred)).sum(axis=1)).mean())
            assert got == pytest.approx(2.0 * entropy, abs=1e-9)

    def test_huge_divisor_hits_argmax_limit(self, rng):
        banks = banks_for(rng, TrainingMode.V_BASED, kv=3, kr=3)
        batch = uniform_batch(random_unit_rows(rng, 4, 6), random_unit_rows(rng, 4, 6), 3)
        l_v = loss_report(batch, banks, tau=0.05, sharpen_divisor=1e6).l_oclr_v
        fv = batch[0]
        base = memory_probabilities(fv, banks.shared, 0.05)
        t1 = np.argmax(memory_probabilities(fv, banks.intra_v, 0.05), axis=1)
        t2 = np.argmax(memory_probabilities(fv, banks.intra_cross, 0.05), axis=1)
        rows = np.arange(4)
        expect = float((-np.log(base[rows, t1]) - np.log(base[rows, t2])).mean())
        assert l_v == pytest.approx(expect, abs=1e-9)

    def test_matches_two_softmax_oracle(self, rng):
        for mode in TrainingMode:
            batch = random_batch(rng)
            banks = banks_for(rng, mode)
            rep = loss_report(batch, banks, tau=0.05, sharpen_divisor=5.0)
            got_v, got_r = rep.l_oclr_v, rep.l_oclr_r
            *_, exp_v, exp_r = oracles.loss_report_oracle(batch, banks, 0.05, 5.0)
            assert got_v == pytest.approx(exp_v, abs=1e-9)
            assert got_r == pytest.approx(exp_r, abs=1e-9)

    def test_sharpening_monotonicity(self, rng):
        feats = random_unit_rows(rng, 6, 5)
        bank = make_bank(rng, 4, 5)
        last = np.zeros(6)
        for divisor in (1.0, 2.0, 5.0, 10.0, 100.0):
            target = memory_probabilities(feats, bank, 0.05 / divisor)
            peak = target.max(axis=1)
            assert (peak >= last - 1e-12).all()
            last = peak


class TestLossReport:
    def test_total_is_exact_sum(self, rng):
        for mode in TrainingMode:
            batch = random_batch(rng)
            banks = banks_for(rng, mode)
            rep = loss_report(batch, banks, tau=0.05, sharpen_divisor=5.0)
            assert rep.total == rep.l_im_v + rep.l_im_r + rep.l_cm + rep.l_oclr_v + rep.l_oclr_r
            assert all(v >= 0.0 for v in rep.to_dict().values())

    def test_matches_full_oracle_both_modes(self, rng):
        for mode in TrainingMode:
            batch = random_batch(rng)
            banks = banks_for(rng, mode)
            rep = loss_report(batch, banks, tau=0.05, sharpen_divisor=5.0)
            expect = oracles.loss_report_oracle(batch, banks, 0.05, 5.0)
            got = (rep.l_im_v, rep.l_im_r, rep.l_cm, rep.l_oclr_v, rep.l_oclr_r)
            assert np.allclose(got, expect, atol=1e-9)

    @pytest.mark.parametrize("mode", list(TrainingMode), ids=lambda m: m.value)
    def test_each_prediction_computed_once(self, rng, monkeypatch, mode):
        # three intra-modality, two shared-bank and four sharpened predictions;
        # each shared-bank one feeds both l_cm and its modality's l_oclr
        calls = []

        def counted(features, bank, tau):
            calls.append(tau)
            return memory_probabilities(features, bank, tau)

        monkeypatch.setattr(losses, "memory_probabilities", counted)
        loss_report(random_batch(rng), banks_for(rng, mode), tau=0.05, sharpen_divisor=5.0)
        assert len(calls) == 9
        assert calls.count(0.05) == 5 and calls.count(0.05 / 5.0) == 4

    def test_mean_reports(self):
        a = LossReport.assemble(1.0, 2.0, 3.0, 4.0, 5.0)
        b = LossReport.assemble(3.0, 2.0, 1.0, 0.0, 5.0)
        m = mean_reports([a, b])
        assert m.l_im_v == 2.0 and m.l_cm == 2.0 and m.l_oclr_v == 2.0
        assert m.total == pytest.approx(m.l_im_v + m.l_im_r + m.l_cm + m.l_oclr_v + m.l_oclr_r)
        with pytest.raises(XmodError, match="^cannot average zero loss reports$"):
            mean_reports([])

    def test_bank_space_validation(self, rng):
        with pytest.raises(XmodError, match=r"^shared \(4 clusters\) and intra_cross \(3\) "
                                            r"must match the source bank intra_v \(3 clusters\)$"):
            ModeBanks(
                mode=TrainingMode.V_BASED,
                intra_v=make_bank(rng, 3, 5),
                intra_r=make_bank(rng, 4, 5),
                shared=make_bank(rng, 4, 5),  # must match K=3 of intra_v
                intra_cross=make_bank(rng, 3, 5),
            )


def hard_set_with_noise(seed=3):
    """A hard-regime set (per-identity gap, wide blobs), 8 identities, with
    random unit rows spliced in among each side's rows as DBSCAN noise."""
    visible, infrared, _ = generate(SynthSpec(
        num_ids=8, per_id_v=10, per_id_r=9, blob_std=0.08, modality_gap=1.2,
        gap_mode=GapMode.PER_ID_OFFSET, seed=seed,
    ))
    rng = np.random.default_rng(seed)
    sides = []
    for features, modality in ((visible, Modality.VISIBLE), (infrared, Modality.INFRARED)):
        at = np.sort(rng.choice(features.n, size=3, replace=False))
        outliers = random_unit_rows(rng, 3, features.data.shape[1])
        data = np.insert(features.data, at, outliers, axis=0)
        sides.append(FeatureMatrix(data, modality))
    return sides


def subset_batches(result, features_v, features_r, batch_size):
    """The pass built from LabeledSubset.indices and .labels.probs, each
    side's cross matrix taken to cover its intra matrix's rows."""
    v = (features_v.data[result.intra_v.indices],
         result.intra_v.labels.probs, result.cross_v.labels.probs)
    r = (features_r.data[result.intra_r.indices],
         result.intra_r.labels.probs, result.cross_r.labels.probs)
    n = min(v[0].shape[0], r[0].shape[0])
    return [(v[0][sl], r[0][sl], {"intra_v": v[1][sl], "intra_r": r[1][sl],
                                  "cross_v": v[2][sl], "cross_r": r[2][sl]})
            for sl in (slice(s, min(s + batch_size, n)) for s in range(0, n, batch_size))]


class TestPassBatches:
    CFG = PipelineConfig().with_overrides({"batch_size": 16})

    @pytest.fixture(scope="class")
    def epochs(self):
        fv, fr = hard_set_with_noise()
        return fv, fr, {epoch: run_epoch(fv, fr, epoch, self.CFG) for epoch in (0, 1)}

    def test_rows_match_the_subsets_bitwise(self, epochs):
        fv, fr, runs = epochs
        result = runs[0].labels
        assert all((result.hard(name) == NOISE).any() for name in ("intra_v", "intra_r"))
        assert result.intra_v.indices.size != result.intra_r.indices.size
        labels = {name: (result.hard(name), result.soft(name)) for name in LABELS}
        got = list(pass_batches(fv, fr, labels, self.CFG.batch_size))
        want = subset_batches(result, fv, fr, self.CFG.batch_size)
        assert len(got) == len(want) > 1
        for (fv_a, fr_a, y_a), (fv_b, fr_b, y_b) in zip(got, want):
            assert y_a.keys() == y_b.keys() == LABELS.keys()
            pairs = [("features_v", fv_a, fv_b), ("features_r", fr_a, fr_b)]
            for name, x, y in pairs + [(name, y_a[name], y_b[name]) for name in LABELS]:
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name

    @pytest.mark.parametrize("epoch", [0, 1], ids=["v-based", "r-based"])
    def test_run_epoch_losses_are_the_subset_pass_mean_bitwise(self, epochs, epoch):
        fv, fr, runs = epochs
        run, cfg = runs[epoch], self.CFG
        assigns = [dbscan(f, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
                   for f in (fv, fr)]
        banks = make_banks(run.mode, fv, fr, *assigns)
        want = mean_reports([loss_report(b, banks, cfg.tau, cfg.sharpen_divisor)
                             for b in subset_batches(run.labels, fv, fr, cfg.batch_size)])
        assert run.losses == want

    def test_cross_labeling_other_rows_is_refused(self, epochs):
        fv, fr, runs = epochs
        result = runs[0].labels
        labels = {name: (result.hard(name), result.soft(name)) for name in LABELS}
        hard, soft = labels["cross_r"]
        row = int(np.flatnonzero(hard != NOISE)[-1])
        hard, soft = hard.copy(), soft.copy()
        hard[row], soft[row] = NOISE, 0.0
        labels["cross_r"] = (hard, soft)
        with pytest.raises(XmodError, match=(
                f"^intra_r and cross_r label different infrared rows, first at row {row}$")):
            next(pass_batches(fv, fr, labels, self.CFG.batch_size))

    # case: (the matrix edited, its (hard, soft) edit, the error given the
    # row count n of the matrix's modality)
    OFF_MODALITY = {
        "longer": ("intra_v", lambda h, s: (np.append(h, h[:2]), np.vstack([s, s[:2]])),
                   lambda n: f"intra_v has {n + 2} rows, but the visible features have {n}"),
        "shorter": ("cross_r", lambda h, s: (h[:-2], s[:-2]),
                    lambda n: f"cross_r has {n - 2} rows, but the infrared features have {n}"),
        "no-soft": ("cross_v", lambda h, s: (h, None),
                    lambda n: "cross_v has no soft labels for the visible features"),
        "soft-shorter": ("intra_r", lambda h, s: (h, s[:-1]), lambda n: (
            f"intra_r has {n - 1} soft rows, but the infrared features have {n}")),
    }

    def off_modality(self, epochs, case):
        """run_epoch's label table with one matrix edited by the case, and
        the error pass_batches must raise for it."""
        fv, fr, runs = epochs
        result = runs[0].labels
        labels = {name: (result.hard(name), result.soft(name)) for name in LABELS}
        name, edit, message = self.OFF_MODALITY[case]
        labels[name] = edit(*labels[name])
        n = (fv if LABELS[name] is Modality.VISIBLE else fr).n
        return labels, message(n)

    @pytest.mark.parametrize("case", sorted(OFF_MODALITY))
    def test_a_matrix_off_its_modality_is_refused(self, epochs, case):
        fv, fr, _ = epochs
        labels, message = self.off_modality(epochs, case)
        with pytest.raises(XmodError, match=f"^{re.escape(message)}$"):
            next(pass_batches(fv, fr, labels, self.CFG.batch_size))

    # a label file cannot hold soft rows apart from its hard ones
    @pytest.mark.parametrize("case", sorted(set(OFF_MODALITY) - {"soft-shorter"}))
    def test_loss_report_exits_2_with_one_error_line_and_no_report(
        self, epochs, tmp_path, capsys, case
    ):
        fv, fr, _ = epochs
        labels, message = self.off_modality(epochs, case)
        banks = make_banks(TrainingMode.V_BASED, fv, fr, *(
            dbscan(f, self.CFG.dbscan_eps, self.CFG.dbscan_min_samples, kappa=self.CFG.kappa)
            for f in (fv, fr)))
        argv = ["loss-report", "--mode", "v", "--out", str(tmp_path / "losses.json")]
        for flag, features in (("features-v", fv), ("features-r", fr),
                               ("bank-intra-v", banks.intra_v.prototypes),
                               ("bank-intra-r", banks.intra_r.prototypes),
                               ("bank-shared", banks.shared.prototypes),
                               ("bank-intra-cross", banks.intra_cross.prototypes)):
            write_features(tmp_path / f"{flag}.mfv1", features)
            argv += [f"--{flag}", str(tmp_path / f"{flag}.mfv1")]
        for name, (hard, soft) in labels.items():
            write_labels(tmp_path / f"{name}.csv", hard, soft)
            argv += [f"--labels-{name.replace('_', '-')}", str(tmp_path / f"{name}.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "losses.json").exists()
