import numpy as np
import pytest

from xmod.core import NOISE, Modality, PipelineConfig, XmodError
from xmod.clustering import ClusterAssignment
from xmod.metrics import (
    GroundTruth,
    MetricsReport,
    full_report,
    pair_accuracy_recall,
    report_from_hard,
)
from xmod.synth import SynthSpec, generate
from xmod.transfer import LABELS, mult_associate

import oracles


def ids(*values):
    return np.asarray(values, dtype=np.int64)


def pair_accuracy(pred_a, pred_b, gt_a, gt_b, include_self=True):
    return pair_accuracy_recall(pred_a, pred_b, gt_a, gt_b, include_self)[0]


def pair_recall(pred_a, pred_b, gt_a, gt_b, include_self=True):
    return pair_accuracy_recall(pred_a, pred_b, gt_a, gt_b, include_self)[1]


class TestPairAccuracy:
    def test_gt_isomorphic_labeling(self):
        gt = ids(3, 3, 7, 7, 9)
        pred = ids(0, 0, 1, 1, 2)  # same partition, renamed ids
        assert pair_accuracy(pred, pred, gt, gt) == 1.0

    def test_two_plus_two_total_miss(self):
        gt_v = ids(0, 1)
        gt_r = ids(0, 1)
        intra_v = ids(0, 1)
        cross_r = ids(1, 0)
        assert pair_accuracy(intra_v, cross_r, gt_v, gt_r) == 0.0

    def test_three_plus_three_one_mislabeled(self):
        gt_v = ids(0, 0, 1)
        gt_r = ids(0, 1, 1)
        pred_v = ids(0, 1, 1)  # middle visible instance strayed
        pred_r = ids(0, 1, 1)
        got = pair_accuracy(pred_v, pred_r, gt_v, gt_r)
        expect = oracles.pair_accuracy(pred_v, pred_r, gt_v, gt_r)
        assert got == expect
        # gt pairs: (0,0), (1,0), (2,1), (2,2); the (1,0) pair is the miss
        assert got == pytest.approx(3 / 4)

    def test_noise_counts_in_denominator_only(self):
        gt = ids(0, 0)
        pred = ids(0, NOISE)
        # four gt pairs, only the (0,0) self pair predicted together
        assert pair_accuracy(pred, pred, gt, gt) == 0.25

    def test_undefined_when_no_gt_pairs(self):
        assert pair_accuracy(ids(0, 0), ids(0, 0), ids(0, 1), ids(2, 3)) is None

    def test_exclude_self_flag(self):
        gt = ids(0, 1)
        pred = ids(0, 0)
        assert pair_accuracy(pred, pred, gt, gt) == 1.0  # only self pairs match gt
        assert pair_accuracy(pred, pred, gt, gt, include_self=False) is None

    def test_label_permutation_invariance(self, rng):
        gt = rng.integers(0, 3, size=12).astype(np.int64)
        pred = rng.integers(0, 4, size=12).astype(np.int64)
        perm = rng.permutation(4)
        assert pair_accuracy(pred, pred, gt, gt) == pair_accuracy(
            perm[pred], perm[pred], gt, gt
        )


class TestPairCountsMatchTheDoubleLoop:
    """The per-code counts give the quadratic oracle's exact fractions."""

    @pytest.mark.parametrize("include_self", [True, False], ids=["self", "no-self"])
    def test_random_labels_with_noise(self, rng, include_self):
        for _ in range(20):
            na = int(rng.integers(1, 25))
            nb = na if not include_self else int(rng.integers(1, 25))
            pa, pb = rng.integers(-1, 4, size=na), rng.integers(-1, 4, size=nb)
            ga, gb = rng.integers(0, 3, size=na), rng.integers(0, 3, size=nb)
            got = pair_accuracy_recall(pa, pb, ga, gb, include_self)
            assert got == (oracles.pair_accuracy(pa, pb, ga, gb, include_self),
                           oracles.pair_recall(pa, pb, ga, gb, include_self))

    def test_extreme_ids_and_labels(self):
        # codes, not the values themselves, form the joint (label, id) key
        big = np.iinfo(np.int64).max
        pa, pb = ids(big, 0, big, NOISE), ids(big, big, 5, 0)
        ga, gb = ids(-big, 2, -big, 2), ids(-big, -big, 2, 2)
        for include_self in (True, False):
            assert pair_accuracy_recall(pa, pb, ga, gb, include_self) == (
                oracles.pair_accuracy(pa, pb, ga, gb, include_self),
                oracles.pair_recall(pa, pb, ga, gb, include_self))

    def test_no_self_needs_equal_lengths(self):
        with pytest.raises(XmodError, match="^self pairs only exist between equal-length sides$"):
            pair_accuracy_recall(ids(0, 1), ids(0), ids(0, 1), ids(0), include_self=False)


class TestPairRecall:
    def test_one_cluster_two_ids(self):
        gt = ids(0, 0, 1, 1)
        pred = ids(0, 0, 0, 0)
        assert pair_recall(pred, pred, gt, gt) == 0.5

    def test_perfect_labeling(self):
        gt = ids(0, 1, 0, 1)
        assert pair_recall(gt, gt, gt, gt) == 1.0

    def test_all_distinct_labels_leave_self_pairs(self):
        gt = ids(0, 0, 1)
        pred = ids(0, 1, 2)
        # only self pairs are predicted together and they always match gt
        assert pair_recall(pred, pred, gt, gt) == 1.0

    def test_undefined_when_all_noise(self):
        gt = ids(0, 0)
        pred = ids(NOISE, NOISE)
        assert pair_recall(pred, pred, gt, gt) is None

    def test_accuracy_equals_recall_on_matching_partitions(self, rng):
        gt = rng.integers(0, 3, size=15).astype(np.int64)
        relabel = rng.permutation(3)
        pred = relabel[gt]
        assert pair_accuracy(pred, pred, gt, gt) == pair_recall(pred, pred, gt, gt) == 1.0


class TestReportFromHard:
    def test_matches_double_loop_oracle(self, rng):
        for _ in range(8):
            nv = int(rng.integers(3, 30))
            nr = int(rng.integers(3, 30))
            gt = GroundTruth(rng.integers(0, 4, nv), rng.integers(0, 4, nr))
            k = int(rng.integers(2, 6))

            def labels(n):
                out = rng.integers(0, k, size=n).astype(np.int64)
                out[rng.random(n) < 0.15] = NOISE
                return out

            intra_v, cross_v = labels(nv), labels(nv)
            intra_r, cross_r = labels(nr), labels(nr)
            hard = dict(intra_v=intra_v, cross_r=cross_r, intra_r=intra_r, cross_v=cross_v)
            rep = report_from_hard(hard, gt)
            expect = oracles.metrics_report_oracle(hard, gt)
            for got_val, exp_val, name in zip(
                (getattr(rep, n) for n in MetricsReport.NAMES), expect, MetricsReport.NAMES
            ):
                assert got_val == exp_val, name

    def test_exclude_self_matches_oracle(self, rng):
        nv = nr = 10
        gt = GroundTruth(rng.integers(0, 3, nv), rng.integers(0, 3, nr))
        mk = lambda n: rng.integers(0, 3, size=n).astype(np.int64)
        hard = dict(intra_v=mk(nv), cross_r=mk(nr), intra_r=mk(nr), cross_v=mk(nv))
        rep = report_from_hard(hard, gt, include_self=False)
        expect = oracles.metrics_report_oracle(hard, gt, include_self=False)
        assert tuple(rep.to_dict().values()) == expect

    def test_random_labels_score_near_chance(self, rng):
        k = 4
        gt_ids = np.repeat(np.arange(k), 20)
        gt = GroundTruth(gt_ids, gt_ids)
        vals = []
        for _ in range(20):
            mk = lambda: rng.integers(0, k, size=gt_ids.size).astype(np.int64)
            rep = report_from_hard({name: mk() for name in LABELS}, gt)
            vals.append(rep.cross_acc_v)
        assert abs(float(np.mean(vals)) - 1.0 / k) < 0.1

    def test_single_identity_single_cluster(self):
        gt = GroundTruth(ids(5, 5, 5), ids(5, 5))
        zeros_v, zeros_r = ids(0, 0, 0), ids(0, 0)
        rep = report_from_hard(
            dict(intra_v=zeros_v, cross_r=zeros_r, intra_r=zeros_r, cross_v=zeros_v), gt)
        assert all(v == 1.0 for v in rep.to_dict().values())

    def test_the_table_is_read_by_name_not_by_order(self, rng):
        nv, nr = 12, 9
        gt = GroundTruth(rng.integers(0, 3, nv), rng.integers(0, 3, nr))
        hard = {name: rng.integers(-1, 3, size=nv if m is Modality.VISIBLE else nr)
                for name, m in LABELS.items()}
        reversed_table = dict(reversed(list(hard.items())))
        assert list(reversed_table) == list(reversed(LABELS))
        for include_self in (True, False):
            want = report_from_hard(hard, gt, include_self)
            assert report_from_hard(reversed_table, gt, include_self) == want
            assert tuple(want.to_dict().values()) == oracles.metrics_report_oracle(
                hard, gt, include_self)

    def test_length_mismatch_raises(self):
        gt = GroundTruth(ids(0, 1), ids(0, 1))
        with pytest.raises(XmodError, match="^per-modality label vectors must have equal length$"):
            report_from_hard(dict.fromkeys(LABELS, ids(0, 1)) | {"cross_v": ids(0, 1, 2)}, gt)


class TestFullReport:
    def test_zero_gap_mult_is_perfect(self):
        spec = SynthSpec(num_ids=3, per_id_v=8, per_id_r=8, dim=16,
                         blob_std=0.03, modality_gap=0.0, seed=21)
        fv, fr, gt = generate(spec)
        av = ClusterAssignment(gt.ids_v.astype(np.int64), 3)
        ar = ClusterAssignment(gt.ids_r.astype(np.int64), 3)
        result = mult_associate(fv, fr, av, ar, PipelineConfig(kappa=8))
        rep = full_report(result, gt)
        assert all(v == 1.0 for v in rep.to_dict().values())

    def test_size_mismatch_raises(self):
        spec = SynthSpec(num_ids=2, per_id_v=4, per_id_r=4, dim=8, seed=3)
        fv, fr, gt = generate(spec)
        av = ClusterAssignment(gt.ids_v.astype(np.int64), 2)
        ar = ClusterAssignment(gt.ids_r.astype(np.int64), 2)
        result = mult_associate(fv, fr, av, ar, PipelineConfig(kappa=4))
        bad = GroundTruth(gt.ids_v[:-1], gt.ids_r)
        with pytest.raises(XmodError, match="^ground-truth sizes do not match the association$"):
            full_report(result, bad)

    def test_report_dict_order(self):
        gt = GroundTruth(ids(0), ids(0))
        rep = report_from_hard(dict.fromkeys(LABELS, ids(0)), gt)
        assert tuple(rep.to_dict().keys()) == MetricsReport.NAMES
