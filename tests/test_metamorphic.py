"""Metamorphic relations: an input transform whose effect on the outputs is
known, checked at a tolerance instead of bit for bit, so the relations
still mean something after a deliberate byte change.

Rotation: every stage reads the features only through inner products and
distances, so one orthogonal Q applied to both modalities must leave the
partitions, the soft labels, the losses and the metrics of run_epoch as they
were, up to rounding.
"""
import numpy as np
import pytest

from xmod.core import FeatureMatrix, Modality, PipelineConfig
from xmod.metrics import GroundTruth
from xmod.pipeline import run_epoch
from xmod.synth import GapMode, SynthSpec, generate
from xmod.transfer import LABELS
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
