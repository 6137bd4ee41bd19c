import math

import numpy as np
import pytest

from xmod.core import PipelineConfig, NOISE
from xmod.baselines import associate_greedy_centroid, associate_otla_only, _greedy_match
from xmod.clustering import ClusterAssignment, MemoryBank, centroids
from xmod.metrics import full_report
from xmod.synth import SynthSpec, generate
from xmod.transfer import init_labels
from xmod.transport import otla_init

import oracles
from conftest import random_unit_rows


def blob_instance(seed, gap=0.0, num_ids=3, per_id=8):
    spec = SynthSpec(num_ids=num_ids, per_id_v=per_id, per_id_r=per_id, dim=16,
                     blob_std=0.03, modality_gap=gap, seed=seed)
    fv, fr, gt = generate(spec)
    av = ClusterAssignment(gt.ids_v.astype(np.int64), num_ids)
    ar = ClusterAssignment(gt.ids_r.astype(np.int64), num_ids)
    return fv, fr, av, ar, gt


class TestOtlaOnly:
    def test_zero_gap_near_perfect(self):
        fv, fr, av, ar, gt = blob_instance(seed=4)
        rep = full_report(associate_otla_only(fv, fr, av, ar, PipelineConfig()), gt)
        assert rep.cross_acc_v == 1.0
        assert rep.cross_acc_r == 1.0

    def test_intra_is_one_hot_cluster_ids(self):
        fv, fr, av, ar, _ = blob_instance(seed=8)
        result = associate_otla_only(fv, fr, av, ar, PipelineConfig())
        assert np.array_equal(
            np.argmax(result.intra_v.labels.probs, axis=1), av.labels
        )
        assert set(np.unique(result.intra_v.labels.probs)) <= {0.0, 1.0}

    def test_cross_equals_transfer_initialization(self):
        fv, fr, av, ar, _ = blob_instance(seed=8, gap=0.2)
        cfg = PipelineConfig()
        result = associate_otla_only(fv, fr, av, ar, cfg)
        state = init_labels(fv.data, fr.data, av, cfg)
        assert np.array_equal(result.cross_r.labels.probs, state.cross0)

    def test_occupancy_stays_near_balanced(self, rng):
        # balanced column marginals keep argmax counts within the rounding
        # slack of N/K on generic instances (fixed seeds; the plan's column
        # mass is exactly 1/K, argmax adds at most the rounding slack here)
        for _ in range(8):
            n = int(rng.integers(8, 41))
            k = int(rng.integers(2, 7))
            f = random_unit_rows(rng, n, 8)
            protos = random_unit_rows(rng, k, 8)
            bank = MemoryBank(protos)
            hard = np.argmax(otla_init(f, bank, lam=25.0).probs, axis=1)
            counts = np.bincount(hard, minlength=k)
            slack = math.ceil(n / k) - math.floor(n / k) + 1
            assert np.abs(counts - n / k).max() <= slack


class TestGreedyMatch:
    def test_recovers_permutation_of_identical_centroids(self, rng):
        protos = random_unit_rows(rng, 5, 8)
        perm = rng.permutation(5)
        dist = np.sqrt(((protos[perm][:, None] - protos[None, :]) ** 2).sum(-1))
        assert np.array_equal(_greedy_match(dist), perm)

    def test_more_rows_than_cols_reuses_columns(self):
        dist = np.array([
            [0.1, 5.0],
            [5.0, 0.2],
            [0.3, 5.0],  # leftover row; nearest column 0 already taken
        ])
        match = _greedy_match(dist)
        assert match.tolist() == [0, 1, 0]
        assert (match >= 0).all()

    def test_ties_break_by_row_then_col(self):
        dist = np.zeros((2, 2))
        assert _greedy_match(dist).tolist() == [0, 1]

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(10):
            dist = rng.random((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            assert _greedy_match(dist).tolist() == oracles.greedy_match_tuples(dist)

    @pytest.mark.parametrize("kind", ["integer", "zero"])
    def test_tied_distances_match_the_tuple_sort(self, rng, kind):
        # ties are the case a sort key can get wrong: both break by (row, column)
        for _ in range(60):
            shape = tuple(int(v) for v in rng.integers(1, 12, size=2))
            dist = (rng.integers(0, 3, size=shape).astype(float) if kind == "integer"
                    else np.zeros(shape))
            assert _greedy_match(dist).tolist() == oracles.greedy_match_tuples(dist)

    @pytest.mark.parametrize("shape", [(1, 30), (30, 1), (25, 4), (4, 25), (40, 40)])
    @pytest.mark.parametrize("kind", ["random", "tied"])
    def test_rectangular_and_tied_match_the_tuple_sort(self, rng, shape, kind):
        # the walk stops at the min(rows, columns)-th match; every pair after
        # it would have been skipped, and leftover rows still take their
        # nearest column
        for _ in range(5):
            dist = (rng.random(shape) if kind == "random"
                    else rng.integers(0, 2, size=shape).astype(float))
            assert _greedy_match(dist).tolist() == oracles.greedy_match_tuples(dist)


class TestGreedyCentroid:
    def test_zero_gap_perfect(self):
        fv, fr, av, ar, gt = blob_instance(seed=10)
        rep = full_report(associate_greedy_centroid(fv, fr, av, ar, PipelineConfig()), gt)
        assert all(v == 1.0 for v in rep.to_dict().values())

    def test_instances_inherit_cluster_match(self):
        fv, fr, av, ar, _ = blob_instance(seed=15, gap=0.2)
        cfg = PipelineConfig()
        result = associate_greedy_centroid(fv, fr, av, ar, cfg)
        bank_v = centroids(fv.data, av)
        bank_r = centroids(fr.data, ar)
        d = np.sqrt(((bank_r.prototypes[:, None] - bank_v.prototypes[None, :]) ** 2).sum(-1))
        match = _greedy_match(d)
        hard = np.argmax(result.cross_r.labels.probs, axis=1)
        assert np.array_equal(hard, match[ar.labels])

    def test_more_infrared_clusters_all_labeled(self, rng):
        # 4 infrared clusters vs 2 visible ones; totality means every
        # instance still gets a visible label
        fv_data = random_unit_rows(rng, 12, 8)
        fr_data = random_unit_rows(rng, 20, 8)
        av = ClusterAssignment(np.repeat(np.arange(2), 6).astype(np.int64), 2)
        ar = ClusterAssignment(np.repeat(np.arange(4), 5).astype(np.int64), 4)
        result = associate_greedy_centroid(fv_data, fr_data, av, ar, PipelineConfig())
        hard = result.cross_r.labels.probs.argmax(axis=1)
        assert result.cross_r.labels.probs.shape == (20, 2)
        assert np.allclose(result.cross_r.labels.probs.sum(axis=1), 1.0)
        assert (result.cross_r.hard_full(20) != NOISE).all()
        assert set(hard.tolist()) <= {0, 1}

    def test_row_stochastic_outputs(self):
        fv, fr, av, ar, _ = blob_instance(seed=19, gap=0.4)
        for method in (associate_otla_only, associate_greedy_centroid):
            result = method(fv, fr, av, ar, PipelineConfig())
            for subset in (result.intra_v, result.cross_r, result.intra_r, result.cross_v):
                assert np.allclose(subset.labels.probs.sum(axis=1), 1.0, atol=1e-9)
