import math

import numpy as np
import pytest

from xmod.core import NOISE, XmodError
from xmod.clustering import (
    ClusterAssignment,
    DistanceMetric,
    MemoryBank,
    centroids,
    dbscan,
    memory_probabilities,
)
from xmod.synth import SynthSpec, generate

from conftest import alloc_peak, random_unit_rows, with_duplicates
from oracles import dbscan_queue


def embed_1d(points) -> np.ndarray:
    """Place scalar points on a 2-d line so distances survive unchanged."""
    pts = np.asarray(points, dtype=np.float64)
    return np.stack([pts, np.zeros_like(pts)], axis=1)


class TestDbscan:
    def test_two_clusters_hand_enumerated(self):
        # Neighborhood radius 0.2 links {0, 0.05, 0.1} and {5, 5.05, 5.1};
        # each point sees all 3 of its group, so all are core.
        pts = embed_1d([0.0, 0.05, 0.1, 5.0, 5.05, 5.1])
        assign = dbscan(pts, eps=0.2, min_samples=3)
        assert assign.k == 2
        assert assign.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_far_point_is_noise(self):
        pts = embed_1d([0.0, 0.05, 0.1, 5.0, 5.05, 5.1, 100.0])
        assign = dbscan(pts, eps=0.2, min_samples=3)
        assert assign.k == 2
        assert assign.labels.tolist() == [0, 0, 0, 1, 1, 1, NOISE]

    def test_single_point_min_samples_one(self):
        assign = dbscan(embed_1d([3.0]), eps=0.5, min_samples=1)
        assert assign.k == 1
        assert assign.labels.tolist() == [0]

    def test_cluster_ids_follow_discovery_order(self):
        # The first scanned point belongs to the right-hand blob, so that
        # blob must take id 0 even though it sits at larger coordinates.
        pts = embed_1d([5.0, 0.0, 0.05, 0.1, 5.05, 5.1])
        assign = dbscan(pts, eps=0.2, min_samples=3)
        assert assign.labels.tolist() == [0, 1, 1, 1, 0, 0]

    def test_border_point_goes_to_first_cluster(self):
        # 0.3 is within eps of both blobs' cores but is not core itself
        # (its neighborhood holds only 2 points + itself with min_samples=4).
        # Blob A is discovered first, so the border point keeps its label.
        pts = embed_1d([0.0, 0.05, 0.1, 0.15, 0.3, 0.45, 0.5, 0.55, 0.6])
        assign = dbscan(pts, eps=0.16, min_samples=4)
        assert assign.k == 2
        assert assign.labels[4] == 0
        assert assign.labels.tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1]

    def test_border_point_passed_as_noise_is_claimed_later(self):
        # The scan reaches 0.3 first and finds it is not core (it sees only
        # itself and 0.15), so it stays noise; the cluster started at 0.0
        # then reaches it from the core point 0.15 and must claim it.
        pts = embed_1d([0.3, 0.0, 0.05, 0.1, 0.15])
        assign = dbscan(pts, eps=0.16, min_samples=4)
        assert assign.k == 1
        assert assign.labels.tolist() == [0, 0, 0, 0, 0]

    def test_point_outside_its_own_eps_ball_founds_its_cluster(self):
        # With a negative eps every point sees nothing, itself included, and
        # with min_samples=0 every point is core: each founds its own cluster.
        pts = embed_1d([0.0, 1.0, 2.0])
        assign = dbscan(pts, eps=-1.0, min_samples=0)
        assert assign.labels.tolist() == [0, 1, 2]
        assert assign.labels.tolist() == dbscan_queue(pts, -1.0, 0).labels.tolist()

    def test_determinism(self, rng):
        pts = rng.standard_normal((60, 3))
        a = dbscan(pts, eps=0.8, min_samples=4)
        b = dbscan(pts, eps=0.8, min_samples=4)
        assert np.array_equal(a.labels, b.labels) and a.k == b.k

    def test_jaccard_metric_separates_blobs(self, rng):
        fv, _, gt = generate(SynthSpec(num_ids=3, per_id_v=8, per_id_r=8, dim=8,
                                       blob_std=0.03, seed=5))
        # Mutual 8-NN sets of separated blobs are disjoint, so the Jaccard
        # distance between blobs is exactly 1.
        assign = dbscan(fv, eps=0.5, min_samples=4,
                        metric=DistanceMetric.JACCARD_DISTANCE, kappa=8)
        assert assign.k == 3
        assert (assign.labels == NOISE).sum() == 0
        for c in range(3):
            assert len(set(gt.ids_v[assign.members(c)])) == 1

    def test_recovers_synthetic_identities(self):
        fv, fr, gt = generate(SynthSpec(num_ids=3, per_id_v=20, per_id_r=20,
                                        dim=16, blob_std=0.05, modality_gap=0.5,
                                        seed=11))
        for feats, ids in ((fv, gt.ids_v), (fr, gt.ids_r)):
            assign = dbscan(feats, eps=0.6, min_samples=4)
            assert assign.k == 3
            assert (assign.labels == NOISE).sum() == 0
            # clusters coincide with identities up to relabeling
            for c in range(assign.k):
                assert len(set(ids[assign.members(c)])) == 1

    def test_holds_one_distance_matrix(self):
        # 600 rows, in 8-byte units: measured 1.14 N², the float64 distances
        # and the boolean ε-mask beside them while it is formed. A distance
        # build that formed the norm sum and the product whole took it to 2.0.
        fv, _, _ = generate(SynthSpec(num_ids=30, per_id_v=20, per_id_r=20, dim=32,
                                      blob_std=0.03, seed=2))
        n = fv.n
        assert n == 600
        assert alloc_peak(dbscan, fv, 0.6, 4) <= 1.2 * n * n * 8


def chains(rng) -> np.ndarray:
    """Three 1-d chains of points 0.04 to 0.05 apart, shuffled, so an eps of
    0.05 links each chain only through many BFS levels."""
    steps = rng.uniform(0.04, 0.05, size=36)
    steps[[12, 24]] = 0.3
    pts = np.cumsum(steps)
    return embed_1d(pts[rng.permutation(pts.size)])


DBSCAN_INPUTS = {
    "random": lambda rng: random_unit_rows(rng, 40, 3),
    "duplicates": with_duplicates,
    "chains": chains,
}


class TestMatchesQueueOracle:
    """The boolean-front DBSCAN gives the labels and k of the queue BFS."""

    @pytest.mark.parametrize("metric", list(DistanceMetric), ids=lambda m: m.value)
    @pytest.mark.parametrize("kind", DBSCAN_INPUTS)
    def test_labels_equal_over_grid(self, rng, kind, metric):
        feats = DBSCAN_INPUTS[kind](rng)
        for eps in (1e-9, 0.05, 0.2, 0.5, 1.0, 2.5):
            for min_samples in range(1, 8):
                got = dbscan(feats, eps, min_samples, metric, kappa=6)
                want = dbscan_queue(feats, eps, min_samples, metric, kappa=6)
                assert got.k == want.k, (eps, min_samples)
                assert got.labels.tolist() == want.labels.tolist(), (eps, min_samples)


class TestClusterAssignment:
    def test_rejects_inconsistent_k(self):
        with pytest.raises(Exception):
            ClusterAssignment(np.array([0, 1, 2]), 2)

    def test_members_and_clustered(self):
        assign = ClusterAssignment(np.array([0, NOISE, 1, 0]), 2)
        assert assign.members(0).tolist() == [0, 3]
        assert assign.clustered_indices().tolist() == [0, 2, 3]


class TestCentroids:
    def test_two_member_example(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        bank = centroids(feats, ClusterAssignment(np.array([0, 0]), 1))
        assert np.allclose(bank.prototypes, [[math.sqrt(0.5), math.sqrt(0.5)]], atol=1e-12)

    def test_single_member_equals_feature(self, rng):
        feats = random_unit_rows(rng, 3, 4)
        bank = centroids(feats, ClusterAssignment(np.array([0, 1, 2]), 3))
        assert np.allclose(bank.prototypes, feats, atol=1e-12)

    def test_matches_mean_then_normalize_oracle(self, rng):
        feats = random_unit_rows(rng, 9, 5)
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        bank = centroids(feats, ClusterAssignment(labels, 3))
        for c in range(3):
            mean = feats[labels == c].sum(axis=0) / 3.0
            want = mean / math.sqrt(float((mean ** 2).sum()))
            assert np.allclose(bank.prototypes[c], want, atol=1e-9)

    def test_noise_excluded(self, rng):
        feats = random_unit_rows(rng, 5, 4)
        labels = np.array([0, 0, NOISE, 0, 0])
        bank = centroids(feats, ClusterAssignment(labels, 1))
        mean = feats[[0, 1, 3, 4]].mean(axis=0)
        assert np.allclose(bank.prototypes[0], mean / np.linalg.norm(mean), atol=1e-12)

    def test_empty_cluster_error(self, rng):
        feats = random_unit_rows(rng, 2, 3)
        with pytest.raises(XmodError, match="^every instance is noise; there is no cluster$"):
            # all points are noise
            centroids(feats, ClusterAssignment(np.array([NOISE, NOISE]), 0))


class TestMemoryProbability:
    def test_orthogonal_feature_is_uniform(self):
        bank = MemoryBank(np.eye(3)[:2])
        p = memory_probabilities(np.array([[0.0, 0.0, 1.0]]), bank, 0.5)
        assert np.allclose(p, [[0.5, 0.5]], atol=1e-15)

    def test_exact_prototype_tau_one(self):
        bank = MemoryBank(np.eye(2))
        p = memory_probabilities(np.array([[1.0, 0.0]]), bank, 1.0)[0]
        e = math.exp(1.0)
        assert np.allclose(p, [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-12)
        assert abs(p[0] - 0.73106) < 1e-5

    def test_sharp_tau_dominates(self):
        bank = MemoryBank(np.eye(2))
        p = memory_probabilities(np.array([[1.0, 0.0]]), bank, 0.05)
        assert p[0, 0] >= 1.0 - 1e-8

    def test_matches_scalar_softmax_oracle(self, rng):
        feats = random_unit_rows(rng, 6, 4)
        bank = MemoryBank(random_unit_rows(rng, 3, 4))
        got = memory_probabilities(feats, bank, 0.07)
        for i in range(6):
            logits = [float(feats[i] @ bank.prototypes[k]) / 0.07 for k in range(3)]
            z = sum(math.exp(v) for v in logits)
            want = [math.exp(v) / z for v in logits]
            assert np.allclose(got[i], want, atol=1e-12)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_temperature_stays_finite(self, rng):
        feats = random_unit_rows(rng, 4, 8)
        bank = MemoryBank(random_unit_rows(rng, 5, 8))
        p = memory_probabilities(feats, bank, 1e-4)
        assert np.isfinite(p).all()
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_dim_mismatch(self, rng):
        bank = MemoryBank(random_unit_rows(rng, 2, 4))
        with pytest.raises(XmodError, match="^feature dim does not match bank dim$"):
            memory_probabilities(np.zeros((1, 3)), bank, 0.05)
