"""Metamorphic relations: an input transform whose effect on the outputs is
known, checked at a tolerance instead of bit for bit, so the relations
still mean something after a deliberate byte change.

Rotation: every stage reads the features only through inner products and
distances, so one orthogonal Q applied to both modalities must leave the
partitions, the soft labels, the losses and the metrics of run_epoch as they
were, up to rounding.

Far noise row: a unit row along the negated mean of one modality's rows lies
beyond DBSCAN's eps of every other row, so it is noise, and every associator
drops noise rows before it reads any feature. Every original row's labels
must stay bitwise as they were.

Row permutation: no stage reads a row's index, so permuting each modality's
rows permutes the clusters, their ids and the labels with them. Pair metrics
count pairs, so they stay bitwise equal. Hard labels stay equal up to one
renumbering of each cluster space, shared by the two matrices that live in
it (a direction's intra and cross matrices, transfer.DIRECTIONS), and soft
labels whose columns follow that renumbering stay equal up to rounding. The
same holds for ``xmod associate`` on row-permuted MFV1 files, and ``xmod
eval`` of its label files writes the plain run's JSON bytes.
"""
import json

import numpy as np
import pytest

from xmod.baselines import associate_greedy_centroid, associate_otla_only
from xmod.cli import main
from xmod.clustering import dbscan
from xmod.core import NOISE, FeatureMatrix, Modality, PipelineConfig
from xmod.fileio import read_labels, write_features, write_ground_truth
from xmod.metrics import GroundTruth, full_report
from xmod.pipeline import run_epoch
from xmod.synth import GapMode, SynthSpec, generate
from xmod.transfer import DIRECTIONS, LABELS, mult_associate
from xmod.transport import _row_order

SETS = {
    "easy": dict(num_ids=10, per_id_v=10, per_id_r=10, dim=16, blob_std=0.03,
                 modality_gap=0.3, gap_mode=GapMode.SHARED_OFFSET),
    "hard": dict(num_ids=8, per_id_v=12, per_id_r=10, dim=16, blob_std=0.08,
                 modality_gap=1.2, gap_mode=GapMode.PER_ID_OFFSET),
}

# Soft labels and losses of a rotated run stay within 1e-9 of the plain
# run's while the transport plan keeps its orientation. heterogeneous_affinity
# puts the set that sorts first by (row count, bytes) on the plan's rows, and
# a rotation changes the bytes, so on equal-sized sets it may solve the
# transposed problem instead. Both solves stop within the marginal tolerance
# (1e-9 in L1) of the same plan, and row normalization scales rows of mass
# 1/N by N = 100 here, so a flipped run is held to 100 times that. Over 12
# rotations per easy seed, the 19 that flipped reached 6.5e-9 on soft labels
# and 2.0e-8 on losses, the 17 that kept it 4e-15. Here seed 7's Q flips the
# easy set; the hard set's sides differ in size, so its orientation is fixed.
KEPT_TOL = 1e-9
FLIPPED_TOL = 1e-7


def random_rotation(seed: int, dim: int) -> np.ndarray:
    """A random orthogonal matrix (QR of a Gaussian, signs fixed by R's diagonal)."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def partition(hard: np.ndarray) -> list[int]:
    """Cluster ids renumbered by first appearance; NOISE stays as it is."""
    first: dict[int, int] = {}
    return [first.setdefault(h, len(first)) if h >= 0 else h for h in hard.tolist()]


def first_seen(hard: np.ndarray) -> np.ndarray:
    """The cluster ids of hard in order of first appearance, NOISE left out."""
    ids, at = np.unique(hard[hard != NOISE], return_index=True)
    return ids[np.argsort(at)]


@pytest.mark.parametrize("seed", [7, 8, 9])
@pytest.mark.parametrize("name", sorted(SETS))
def test_a_rotation_of_both_modalities_changes_nothing(name, seed):
    fv, fr, gt = generate(SynthSpec(seed=seed, **SETS[name]))
    q = random_rotation(seed, fv.data.shape[1])
    rv = FeatureMatrix(fv.data @ q, Modality.VISIBLE)
    rr = FeatureMatrix(fr.data @ q, Modality.INFRARED)
    flipped = _row_order(fv.data, fr.data) != _row_order(rv.data, rr.data)
    tol = FLIPPED_TOL if flipped else KEPT_TOL
    truth, cfg = GroundTruth(gt.ids_v, gt.ids_r), PipelineConfig()
    for epoch in (0, 1):  # V-based, then R-based losses
        plain = run_epoch(fv, fr, epoch, cfg, truth)
        rotated = run_epoch(rv, rr, epoch, cfg, truth)
        for label in LABELS:
            assert partition(plain.labels.hard(label)) == partition(rotated.labels.hard(label))
            gap = np.abs(plain.labels.soft(label) - rotated.labels.soft(label)).max()
            assert gap <= tol, label
        want, got = plain.losses.to_dict(), rotated.losses.to_dict()
        assert got == pytest.approx(want, rel=0, abs=tol)
        assert rotated.metrics == plain.metrics


ASSOCIATORS = {"mult": mult_associate, "otla": associate_otla_only,
               "greedy": associate_greedy_centroid}


def with_far_row(features: FeatureMatrix) -> FeatureMatrix:
    """features with one unit row appended along the negated mean of its rows."""
    far = -features.data.mean(axis=0)
    return FeatureMatrix(np.vstack([features.data, far / np.linalg.norm(far)]),
                         features.modality)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("side", list(Modality), ids=lambda m: m.value)
@pytest.mark.parametrize("gap_mode", list(GapMode), ids=lambda g: g.value)
def test_a_far_noise_row_leaves_every_other_label_as_it_was(gap_mode, side, seed):
    fv, fr, _ = generate(SynthSpec(num_ids=10, per_id_v=10, per_id_r=12, dim=16,
                                   modality_gap=0.3, gap_mode=gap_mode, seed=seed))
    cfg = PipelineConfig(kappa=8)
    plain = {Modality.VISIBLE: fv, Modality.INFRARED: fr}
    grown = {**plain, side: with_far_row(plain[side])}

    def cluster(features):
        return dbscan(features, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)

    assign = {m: cluster(f) for m, f in plain.items()}
    assign_grown = {**assign, side: cluster(grown[side])}
    n = plain[side].data.shape[0]
    assert assign[side].k > 0 and assign_grown[side].labels[n] == NOISE
    assert np.array_equal(assign_grown[side].labels[:n], assign[side].labels)
    for name, associate in ASSOCIATORS.items():
        want = associate(plain[Modality.VISIBLE], plain[Modality.INFRARED],
                         assign[Modality.VISIBLE], assign[Modality.INFRARED], cfg)
        got = associate(grown[Modality.VISIBLE], grown[Modality.INFRARED],
                        assign_grown[Modality.VISIBLE], assign_grown[Modality.INFRARED], cfg)
        for label, modality in LABELS.items():
            hard, soft = got.hard(label), got.soft(label)
            if modality is side:
                assert hard[n] == NOISE and not soft[n].any(), (name, label)
                hard, soft = hard[:n], soft[:n]
            assert np.array_equal(hard, want.hard(label)), (name, label)
            assert np.array_equal(soft, want.soft(label)), (name, label)


def label_table(result) -> dict:
    """{name: (hard, soft)} over every instance of each matrix's modality."""
    return {name: (result.hard(name), result.soft(name)) for name in LABELS}


def assert_permuted(want: dict, got: dict, back: dict, context) -> None:
    """got's label table is want's with each modality's rows moved (back[m][i]
    is the moved row of plain row i) and each cluster space renumbered once:
    the space's two matrices, a direction's intra and cross (DIRECTIONS),
    share the renumbering. Hard labels must match exactly, soft labels whose
    columns follow the renumbering within KEPT_TOL."""
    for space in DIRECTIONS.values():
        moved_hard = np.concatenate([got[label][0][back[LABELS[label]]] for label in space])
        plain_hard = np.concatenate([want[label][0] for label in space])
        assert partition(moved_hard) == partition(plain_hard), (context, space)
        # the same renumbering orders the soft columns
        cols, moved_cols = first_seen(plain_hard), first_seen(moved_hard)
        assert cols.size == want[space[0]][1].shape[1], (context, space)
        for label in space:
            moved_soft = got[label][1][back[LABELS[label]]][:, moved_cols]
            assert np.abs(moved_soft - want[label][1][:, cols]).max() <= KEPT_TOL, (
                context, label)


def permuted_instance(gap_mode, seed):
    """A set with unequal sides (so the plan's orientation is fixed), the
    same set with each modality's rows permuted, and back (see assert_permuted)."""
    fv, fr, gt = generate(SynthSpec(num_ids=10, per_id_v=10, per_id_r=12, dim=16,
                                    modality_gap=0.3, gap_mode=gap_mode, seed=seed))
    rng = np.random.default_rng(seed)
    perm = {Modality.VISIBLE: rng.permutation(fv.n), Modality.INFRARED: rng.permutation(fr.n)}
    pv, pr = (FeatureMatrix(f.data[perm[f.modality]], f.modality) for f in (fv, fr))
    moved = GroundTruth(gt.ids_v[perm[Modality.VISIBLE]], gt.ids_r[perm[Modality.INFRARED]])
    back = {m: np.argsort(p) for m, p in perm.items()}
    return (fv, fr, GroundTruth(gt.ids_v, gt.ids_r)), (pv, pr, moved), back


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("gap_mode", list(GapMode), ids=lambda g: g.value)
def test_permuting_each_modalitys_rows_permutes_the_labels(gap_mode, seed):
    (fv, fr, truth), (pv, pr, moved), back = permuted_instance(gap_mode, seed)
    cfg = PipelineConfig(kappa=8)

    def cluster(features):
        return dbscan(features, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)

    for name, associate in ASSOCIATORS.items():
        want = associate(fv, fr, cluster(fv), cluster(fr), cfg)
        got = associate(pv, pr, cluster(pv), cluster(pr), cfg)
        assert full_report(got, moved) == full_report(want, truth), name
        assert_permuted(label_table(want), label_table(got), back, name)


@pytest.mark.parametrize("gap_mode", list(GapMode), ids=lambda g: g.value)
def test_the_cli_on_row_permuted_files_permutes_the_label_files(tmp_path, gap_mode):
    plain, permuted, back = permuted_instance(gap_mode, seed=0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kappa": 8}))

    def write_set(name, features_v, features_r, truth):
        d = tmp_path / name
        d.mkdir()
        write_features(d / "visible.mfv1", features_v)
        write_features(d / "infrared.mfv1", features_r)
        write_ground_truth(d / "ground_truth.csv", truth.ids_v, truth.ids_r)
        return d

    sets = {"plain": write_set("plain", *plain), "permuted": write_set("permuted", *permuted)}
    for method in ASSOCIATORS:
        tables, reports = {}, {}
        for kind, d in sets.items():
            out = d / method
            assert main(["associate", "--features-v", str(d / "visible.mfv1"),
                         "--features-r", str(d / "infrared.mfv1"), "--method", method,
                         "--config", str(config), "--out", str(out)]) == 0
            label_args = [arg for name in LABELS for arg in (
                f"--labels-{name.replace('_', '-')}", str(out / f"{name}.csv"))]
            assert main(["eval", *label_args, "--gt", str(d / "ground_truth.csv"),
                         "--out", str(out / "metrics.json")]) == 0
            tables[kind] = {name: read_labels(out / f"{name}.csv") for name in LABELS}
            reports[kind] = (out / "metrics.json").read_bytes()
        assert_permuted(tables["plain"], tables["permuted"], back, method)
        assert reports["permuted"] == reports["plain"], method
