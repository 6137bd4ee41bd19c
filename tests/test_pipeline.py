import dataclasses
import hashlib
import os
import re

import numpy as np
import pytest

from xmod.core import FeatureMatrix, Modality, PipelineConfig, XmodError
from xmod.fileio import write_features
from xmod.losses import TrainingMode
from xmod.metrics import GroundTruth, MetricsReport
from xmod.pipeline import (
    discover_snapshots,
    make_banks,
    run_epoch,
    run_trace,
    trace_csv_text,
)
from xmod.clustering import dbscan
from xmod.synth import GapMode, SynthSpec, generate

# small instances with tight blobs so DBSCAN recovers the identities exactly
CFG = PipelineConfig(kappa=8, dbscan_min_samples=3, batch_size=16,
                     epsilon0=1e-4, max_transfer_iters=500)


def make_instance(seed, gap=0.0, num_ids=4, per_v=10, per_r=10, std=0.03,
                  gap_mode=GapMode.SHARED_OFFSET):
    spec = SynthSpec(num_ids=num_ids, per_id_v=per_v, per_id_r=per_r, dim=16,
                     blob_std=std, modality_gap=gap, seed=seed, gap_mode=gap_mode)
    fv, fr, gt = generate(spec)
    return fv, fr, GroundTruth(gt.ids_v, gt.ids_r)


def write_snapshot(dirname, epoch, fv, fr):
    write_features(os.path.join(dirname, f"epoch{epoch:03d}_visible.mfv1"), fv)
    write_features(os.path.join(dirname, f"epoch{epoch:03d}_infrared.mfv1"), fr)


class TestRunEpoch:
    def test_mode_alternates_with_epoch_parity(self):
        fv, fr, gt = make_instance(seed=3)
        for epoch in range(4):
            result = run_epoch(fv, fr, epoch, CFG, gt)
            expect = TrainingMode.V_BASED if epoch % 2 == 0 else TrainingMode.R_BASED
            assert result.mode is expect
            assert result.epoch == epoch

    def test_zero_gap_metrics_all_one(self):
        fv, fr, gt = make_instance(seed=3, gap=0.0)
        report = run_epoch(fv, fr, 0, CFG, gt).metrics
        assert all(v == 1.0 for v in report.to_dict().values())

    def test_no_ground_truth_no_metrics(self):
        fv, fr, _ = make_instance(seed=3)
        assert run_epoch(fv, fr, 0, CFG).metrics is None

    def test_swapped_modalities_mirror(self):
        # Feeding (infrared, visible) to an infrared-based epoch mirrors a
        # visible-based epoch on (visible, infrared). The single-term intra
        # loss, the shared-bank loss, and both refinement losses swap exactly;
        # the two-term intra loss does not, because its first term scores the
        # opposite modality's features on purpose.
        fv, fr, gt = make_instance(seed=7, gap=0.5, per_v=9, per_r=11, std=0.05)
        a = run_epoch(fv, fr, 0, CFG, gt)
        b = run_epoch(fr, fv, 1, CFG, GroundTruth(gt.ids_r, gt.ids_v))
        assert a.mode is TrainingMode.V_BASED and b.mode is TrainingMode.R_BASED
        assert a.losses.l_im_v == b.losses.l_im_r
        assert a.losses.l_cm == b.losses.l_cm
        assert a.losses.l_oclr_v == b.losses.l_oclr_r
        assert a.losses.l_oclr_r == b.losses.l_oclr_v

        ma, mb = a.metrics.to_dict(), b.metrics.to_dict()
        for name in MetricsReport.NAMES:
            tail = name[-2:]
            mirrored = name[:-2] + ("_r" if tail == "_v" else "_v")
            assert ma[name] == mb[mirrored]

    def test_batch_size_invariant_when_it_divides(self):
        fv, fr, gt = make_instance(seed=3)
        whole = run_epoch(fv, fr, 0, PipelineConfig(
            kappa=8, dbscan_min_samples=3, batch_size=40,
            epsilon0=1e-4, max_transfer_iters=500), gt).losses
        split = run_epoch(fv, fr, 0, PipelineConfig(
            kappa=8, dbscan_min_samples=3, batch_size=10,
            epsilon0=1e-4, max_transfer_iters=500), gt).losses
        assert whole.total == pytest.approx(split.total, rel=1e-9)
        assert whole.l_cm == pytest.approx(split.l_cm, rel=1e-9)


def duplicated(fv, fr, where):
    """Copies of (fv, fr) with exact duplicate rows: within each modality
    (visible rows 1, 2 repeat row 0, infrared row 5 repeats row 4), across
    the two (infrared rows 0-2 repeat visible rows 0-2), both, or everywhere
    (the infrared rows are a copy of the visible ones)."""
    v, r = fv.data.copy(), fr.data.copy()
    if where == "identical":
        r = v.copy()
    if where in ("within", "both"):
        v[[1, 2]] = v[0]
        r[5] = r[4]
    if where in ("across", "both"):
        r[:3] = v[:3]
    return FeatureMatrix(v, fv.modality), FeatureMatrix(r, fr.modality)


def assert_finite_row_stochastic(labels):
    for name in ("intra_v", "cross_r", "intra_r", "cross_v"):
        probs = getattr(labels, name).labels.probs
        assert np.isfinite(probs).all() and probs.min() >= 0.0
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestDuplicateRows:
    @pytest.mark.parametrize("where", ["within", "across", "both", "identical"])
    def test_finite_stochastic_and_swap_bitwise(self, where):
        fv, fr = duplicated(*make_instance(seed=7, gap=0.5, per_v=9, per_r=11, std=0.05)[:2],
                            where)
        a = run_epoch(fv, fr, 0, CFG).labels
        b = run_epoch(fr, fv, 0, CFG).labels
        assert_finite_row_stochastic(a)
        for mine, theirs in ((a.intra_v, b.intra_r), (a.cross_r, b.cross_v),
                             (a.intra_r, b.intra_v), (a.cross_v, b.cross_r)):
            assert np.array_equal(mine.indices, theirs.indices)
            assert np.array_equal(mine.labels.probs, theirs.labels.probs)


# One non-default value per PipelineConfig field, each chosen to move the
# epoch below. A new field without an entry here fails the test.
PERTURBED = {
    "tau": 0.1, "kappa": 5, "ot_lambda": 10.0, "alpha": 0.5, "beta": 0.3,
    "dbscan_eps": 0.9, "dbscan_min_samples": 1, "epsilon0": 0.5,
    "max_transfer_iters": 1, "sharpen_divisor": 2.0, "batch_size": 7,
}


def epoch_digest(fv, fr, gt, cfg):
    """Hash of one epoch's labels, losses and metrics."""
    result = run_epoch(fv, fr, 0, cfg, gt)
    h = hashlib.sha256()
    totals = {"intra_v": fv.n, "cross_v": fv.n, "intra_r": fr.n, "cross_r": fr.n}
    for name, total in totals.items():
        subset = getattr(result.labels, name)
        h.update(subset.hard_full(total).tobytes())
        h.update(subset.soft_full(total).tobytes())
    h.update(repr(sorted(result.losses.to_dict().items())).encode())
    h.update(repr(sorted(result.metrics.to_dict().items())).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def sensitive_instance():
    """Per-identity gap plus one visible outlier row, so noise handling, the
    transfer loop and every loss term all have work to do."""
    spec = SynthSpec(num_ids=4, per_id_v=10, per_id_r=12, dim=16, blob_std=0.05,
                     modality_gap=0.5, gap_mode=GapMode.PER_ID_OFFSET, seed=3)
    fv, fr, raw = generate(spec)
    outlier = -fv.data.mean(axis=0)
    fv = FeatureMatrix(np.vstack([fv.data, outlier / np.linalg.norm(outlier)]),
                       Modality.VISIBLE)
    gt = GroundTruth(np.append(raw.ids_v, 99), raw.ids_r)
    return fv, fr, gt, epoch_digest(fv, fr, gt, PipelineConfig())


class TestConfigFieldsMatter:
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PipelineConfig)])
    def test_field_moves_epoch_output(self, field, sensitive_instance):
        assert field in PERTURBED, f"no perturbation for config field {field!r}"
        fv, fr, gt, default = sensitive_instance
        assert PERTURBED[field] != getattr(PipelineConfig(), field)
        cfg = PipelineConfig(**{field: PERTURBED[field]})
        assert epoch_digest(fv, fr, gt, cfg) != default


class TestMakeBanks:
    def test_shared_bank_tracks_mode(self):
        fv, fr, _ = make_instance(seed=3)
        av = dbscan(fv, CFG.dbscan_eps, CFG.dbscan_min_samples, kappa=CFG.kappa)
        ar = dbscan(fr, CFG.dbscan_eps, CFG.dbscan_min_samples, kappa=CFG.kappa)
        for mode, source_features in ((TrainingMode.V_BASED, fv),
                                      (TrainingMode.R_BASED, fr)):
            banks = make_banks(mode, fv, fr, av, ar)
            source = banks.intra_v if mode is TrainingMode.V_BASED else banks.intra_r
            assert np.array_equal(banks.shared.prototypes, source.prototypes)
            assert np.array_equal(banks.intra_cross.prototypes, source.prototypes)


class TestDiscoverSnapshots:
    def test_returns_epochs_in_order(self, tmp_path):
        fv, fr, _ = make_instance(seed=3)
        for epoch in (2, 0, 1):
            write_snapshot(tmp_path, epoch, fv, fr)
        found = discover_snapshots(tmp_path)
        assert [epoch for epoch, _, _ in found] == [0, 1, 2]
        for epoch, path_v, path_r in found:
            assert path_v.endswith(f"epoch{epoch:03d}_visible.mfv1")
            assert path_r.endswith(f"epoch{epoch:03d}_infrared.mfv1")

    def test_gap_in_epoch_sequence_raises(self, tmp_path):
        fv, fr, _ = make_instance(seed=3)
        write_snapshot(tmp_path, 0, fv, fr)
        write_snapshot(tmp_path, 2, fv, fr)
        with pytest.raises(XmodError, match="^incomplete or missing snapshot pair for epoch 1$"):
            discover_snapshots(tmp_path)

    def test_epoch_1000_counts_toward_the_sequence(self, tmp_path):
        fv, fr, _ = make_instance(seed=3)
        for epoch in (0, 1, 2, 1000):
            write_snapshot(tmp_path, epoch, fv, fr)
        assert os.path.exists(tmp_path / "epoch1000_visible.mfv1")
        with pytest.raises(XmodError, match="^incomplete or missing snapshot pair for epoch 3$"):
            discover_snapshots(tmp_path)

    def test_zero_padded_past_three_digits_is_ignored(self, tmp_path):
        # one name per epoch: epoch0001 is not a second spelling of epoch001
        fv, fr, _ = make_instance(seed=3)
        write_snapshot(tmp_path, 0, fv, fr)
        write_features(os.path.join(tmp_path, "epoch0001_visible.mfv1"), fv)
        write_features(os.path.join(tmp_path, "epoch0001_infrared.mfv1"), fr)
        found = discover_snapshots(tmp_path)
        assert [epoch for epoch, _, _ in found] == [0]

    def test_missing_modality_raises(self, tmp_path):
        fv, fr, _ = make_instance(seed=3)
        write_features(os.path.join(tmp_path, "epoch000_visible.mfv1"), fv)
        with pytest.raises(XmodError, match="^incomplete or missing snapshot pair for epoch 0$"):
            discover_snapshots(tmp_path)

    def test_empty_dir_raises(self, tmp_path):
        want = ("incomplete or missing snapshot pair for epoch 0: "
                f"no epochNNN_*.mfv1 files in {tmp_path}")
        with pytest.raises(XmodError, match=f"^{re.escape(want)}$"):
            discover_snapshots(tmp_path)

    def test_ignores_unrelated_files(self, tmp_path):
        fv, fr, _ = make_instance(seed=3)
        write_snapshot(tmp_path, 0, fv, fr)
        (tmp_path / "notes.txt").write_text("scratch")
        write_features(os.path.join(tmp_path, "epoch01_visible.mfv1"), fv)
        found = discover_snapshots(tmp_path)
        assert [epoch for epoch, _, _ in found] == [0]


class TestRunTrace:
    def test_one_row_per_snapshot(self, tmp_path):
        gt = None
        for epoch, seed in enumerate((3, 4, 5)):
            fv, fr, gt = make_instance(seed=seed)
            write_snapshot(tmp_path, epoch, fv, fr)
        rows = run_trace(tmp_path, CFG, gt)
        assert [epoch for epoch, _ in rows] == [0, 1, 2]
        assert all(isinstance(report, MetricsReport) for _, report in rows)

    def test_identical_snapshots_identical_rows(self, tmp_path):
        fv, fr, gt = make_instance(seed=6, gap=0.4)
        write_snapshot(tmp_path, 0, fv, fr)
        write_snapshot(tmp_path, 1, fv, fr)
        rows = run_trace(tmp_path, CFG, gt)
        assert rows[0][1].to_dict() == rows[1][1].to_dict()

    def test_csv_output_is_deterministic(self, tmp_path):
        fv, fr, gt = make_instance(seed=6)
        write_snapshot(tmp_path, 0, fv, fr)
        out_a = tmp_path / "trace_a.csv"
        out_b = tmp_path / "trace_b.csv"
        run_trace(tmp_path, CFG, gt, out_a)
        run_trace(tmp_path, CFG, gt, out_b)
        blob = out_a.read_bytes()
        assert blob == out_b.read_bytes()
        assert blob.startswith(b"epoch,intra_acc_v,")

    def test_shrinking_gap_improves_cross_accuracy(self, tmp_path):
        # snapshots emulate training progress: the modality gap shrinks epoch
        # over epoch, so the cross-modality score must not get worse
        gt = None
        for epoch, gap in enumerate((2.0, 1.6, 1.0, 0.0)):
            spec = SynthSpec(num_ids=5, per_id_v=10, per_id_r=10, dim=16,
                             blob_std=0.05, modality_gap=gap, seed=1,
                             gap_mode=GapMode.PER_ID_OFFSET)
            fv, fr, raw = generate(spec)
            gt = GroundTruth(raw.ids_v, raw.ids_r)
            write_snapshot(tmp_path, epoch, fv, fr)
        rows = run_trace(tmp_path, CFG, gt)
        accs = [report.cross_acc_v for _, report in rows]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[0] < 1.0
        assert accs[-1] == 1.0


class TestTraceCsvText:
    def test_exact_layout(self):
        full = MetricsReport(1.0, 0.5, 0.25, 1.0, 0.75, 1.0, 1.0, 0.125)
        holes = MetricsReport(1.0, None, 0.5, None, None, None, None, None)
        text = trace_csv_text([(0, full), (1, holes)])
        lines = text.split("\n")
        assert lines[0] == "epoch," + ",".join(MetricsReport.NAMES)
        assert lines[1] == "0,1.0,0.5,0.25,1.0,0.75,1.0,1.0,0.125"
        assert lines[2] == "1,1.0,,0.5,,,,,"
        assert lines[3] == ""

    def test_floats_use_repr(self):
        value = 1.0 / 3.0
        report = MetricsReport(value, None, None, None, None, None, None, None)
        text = trace_csv_text([(7, report)])
        assert repr(value) in text
