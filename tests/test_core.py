import re
from types import SimpleNamespace

import numpy as np
import pytest

from xmod.affinity import k_reciprocal_sets
from xmod.clustering import (
    DistanceMetric,
    MemoryBank,
    centroids,
    dbscan,
    memory_probabilities,
)
from xmod.core import (
    FeatureMatrix,
    Modality,
    PipelineConfig,
    SoftLabelMatrix,
    XmodError,
    finite_matrix,
    l2_normalize_rows,
    pairwise_sq_dists,
)
from xmod.fileio import write_features
from xmod.synth import SynthSpec, generate
from xmod.transfer import mult_associate
from xmod.transport import TransportProblem, heterogeneous_plan, otla_init

from conftest import alloc_peak
from oracles import pairwise_sq_dists_broadcast


class TestFiniteMatrix:
    def test_returns_float64(self):
        out = finite_matrix([[1, 2], [3, 4]], "m")
        assert out.dtype == np.float64 and out.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (3, 0), (1, 1, 1)],
                             ids=["1-d", "no-rows", "no-columns", "3-d"])
    def test_rejects_a_shape(self, shape):
        want = f"m must be a nonempty 2-d matrix, got shape {shape}"
        with pytest.raises(XmodError, match=f"^{re.escape(want)}$"):
            finite_matrix(np.ones(shape), "m")

    def test_names_the_first_non_finite_entry(self):
        m = np.ones((3, 4))
        m[2, 0], m[1, 3] = np.nan, -np.inf
        with pytest.raises(XmodError, match=r"^non-finite value in m at \(1, 3\)$"):
            finite_matrix(m, "m")

    @pytest.mark.parametrize("build, what", [
        (l2_normalize_rows, "feature matrix"),
        (lambda m: FeatureMatrix(m, Modality.VISIBLE), "feature matrix"),
        (SoftLabelMatrix, "label matrix"),
        (MemoryBank, "prototype matrix"),
        (lambda m: TransportProblem(m, np.ones(1), np.ones(2), 1.0), "transport cost"),
    ], ids=["l2_normalize_rows", "FeatureMatrix", "SoftLabelMatrix", "MemoryBank",
            "TransportProblem"])
    def test_every_matrix_input_shares_the_wording(self, build, what):
        with pytest.raises(XmodError, match=rf"^non-finite value in {what} at \(0, 1\)$"):
            build(np.array([[1.0, np.nan]]))
        want = f"{what} must be a nonempty 2-d matrix, got shape (0, 2)"
        with pytest.raises(XmodError, match=f"^{re.escape(want)}$"):
            build(np.zeros((0, 2)))


class TestL2NormalizeRows:
    def test_three_four_five_triangle(self):
        out = l2_normalize_rows([[3.0, 4.0]])
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_already_unit_rows_unchanged(self):
        eye = np.eye(2)
        assert np.allclose(l2_normalize_rows(eye), eye, atol=1e-15)

    def test_idempotent(self, rng):
        m = rng.standard_normal((17, 5))
        once = l2_normalize_rows(m)
        twice = l2_normalize_rows(once)
        assert np.allclose(once, twice, atol=1e-15)

    def test_unit_norms(self, rng):
        out = l2_normalize_rows(rng.standard_normal((30, 7)) * 100.0)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_row(self):
        with pytest.raises(XmodError, match=r"^row 0 has \(near-\)zero L2 norm$"):
            l2_normalize_rows([[0.0, 0.0]])

    def test_nonfinite(self):
        with pytest.raises(XmodError, match=r"^non-finite value in feature matrix at \(0, 1\)$"):
            l2_normalize_rows([[1.0, np.nan]])

    def test_empty(self):
        with pytest.raises(XmodError, match=r"^feature matrix must be a nonempty 2-d matrix, "
                                            r"got shape \(0, 3\)$"):
            l2_normalize_rows(np.zeros((0, 3)))


class TestSoftLabelMatrix:
    def test_rejects_bad_row_sum(self):
        with pytest.raises(XmodError, match="^label row 0 sums to 1.100000000, expected 1$"):
            SoftLabelMatrix(np.array([[0.5, 0.6]]))

    def test_rejects_negative(self):
        with pytest.raises(XmodError, match=r"^label entries outside \[0, 1\]$"):
            SoftLabelMatrix(np.array([[-0.1, 1.1]]))

    def test_one_hot(self):
        m = SoftLabelMatrix.one_hot(np.array([2, 0]), 3)
        assert m.probs.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        assert m.space_size == 3

    def test_one_hot_range_check(self):
        with pytest.raises(XmodError, match=r"^hard labels outside \[0, k\)$"):
            SoftLabelMatrix.one_hot(np.array([3]), 3)


class TestFeatureMatrix:
    def test_from_raw_normalizes(self, rng):
        fm = FeatureMatrix.from_raw(rng.standard_normal((4, 6)) * 3.0, Modality.VISIBLE)
        assert np.allclose(np.linalg.norm(fm.data, axis=1), 1.0, atol=1e-12)
        assert fm.data.shape == (4, 6)

    def test_rejects_unnormalized(self):
        with pytest.raises(XmodError, match="^feature rows are not unit-normalized$"):
            FeatureMatrix(np.array([[3.0, 4.0]]), Modality.VISIBLE)


class TestPairwiseSqDists:
    def test_matches_direct_loop(self, rng):
        a = rng.standard_normal((9, 4))
        b = rng.standard_normal((7, 4))
        got = pairwise_sq_dists(a, b)
        want = np.array([[((ra - rb) ** 2).sum() for rb in b] for ra in a])
        assert np.allclose(got, want, atol=1e-10)

    def test_nonnegative_on_duplicates(self):
        a = np.ones((3, 5))
        assert pairwise_sq_dists(a, a).min() >= 0.0

    @pytest.mark.parametrize("n, m, d", [(1, 1, 1), (399, 20, 32), (20, 399, 32), (64, 64, 7)])
    def test_in_place_matches_broadcast_bitwise(self, rng, n, m, d):
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((m, d))
        for x, y in ((a, b), (a, a)):
            assert np.array_equal(pairwise_sq_dists(x, y), pairwise_sq_dists_broadcast(x, y))

    # One row block holds 1 << 15 entries: (40000, 1) and (1, 40000) span
    # more than one block of rows or of columns, (250, 300) and (130, 257)
    # end on a short block, and (20, 30) fits in one.
    @pytest.mark.parametrize("n, m", [(1, 7), (1, 40000), (7, 1), (40000, 1), (250, 300),
                                      (130, 257), (20, 30)])
    def test_row_blocks_match_the_two_array_formula_bitwise(self, rng, n, m):
        a = rng.standard_normal((n, 3))
        b = rng.standard_normal((m, 3))
        assert np.array_equal(pairwise_sq_dists(a, b), pairwise_sq_dists_broadcast(a, b))
        if n == m:
            assert np.array_equal(pairwise_sq_dists(a, a), pairwise_sq_dists_broadcast(a, a))

    def test_holds_one_array_of_the_output_size(self, rng):
        # measured 1.06 N·M at 1000 x 800: the output, one row block of the
        # outer norm sum and numpy's broadcast buffers; forming the sum and
        # the product whole took 2.0
        a = rng.standard_normal((1000, 32))
        b = rng.standard_normal((800, 32))
        assert alloc_peak(pairwise_sq_dists, a, b) <= 1.2 * 1000 * 800 * 8


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.tau == 0.05
        assert cfg.kappa == 30
        assert cfg.ot_lambda == 25.0
        assert cfg.alpha == 0.2
        assert cfg.beta == 0.7
        assert cfg.dbscan_eps == 0.6
        assert cfg.dbscan_min_samples == 4
        assert cfg.epsilon0 == 1e-2
        assert cfg.max_transfer_iters == 100
        assert cfg.sharpen_divisor == 5.0
        assert cfg.batch_size == 144

    def test_overrides_set_fields(self):
        cfg = PipelineConfig().with_overrides({"ot_lambda": 50.0, "tau": 0.1})
        assert cfg.ot_lambda == 50.0 and cfg.tau == 0.1

    @pytest.mark.parametrize(
        "overrides", [{"lambda": 10.0}, {"lambda": 10.0, "ot_lambda": 20.0}]
    )
    def test_lambda_is_not_a_field(self, overrides):
        with pytest.raises(ValueError, match="'lambda'"):
            PipelineConfig().with_overrides(overrides)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig().with_overrides({"bogus": 1})

    @pytest.mark.parametrize(
        "field,value",
        [("tau", 0.0), ("alpha", -0.1), ("beta", 2.0),
         ("kappa", 0), ("ot_lambda", 0.0), ("epsilon0", 0.0),
         ("sharpen_divisor", 0.0), ("batch_size", 0),
         ("kappa", "30"), ("kappa", 2.5), ("kappa", True), ("batch_size", None),
         ("tau", "0.05"), ("tau", False), ("ot_lambda", [25.0]),
         ("dbscan_eps", float("nan")), ("epsilon0", float("inf")),
         ("tau", 1e-320), ("tau", 2.2e-308)],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            PipelineConfig(**{field: value})

    # A subnormal softmax temperature overflows the logits; the smallest
    # normal float64 does not.
    @pytest.mark.parametrize("overrides, named", [
        ({"tau": 1e-320}, "tau"),
        ({"tau": 1e-307, "sharpen_divisor": 1e3}, "tau / sharpen_divisor"),
    ], ids=["tau", "sharp-tau"])
    def test_temperature_below_the_normal_range_names_its_setting(self, overrides, named):
        with pytest.raises(ValueError, match=f"^{re.escape(named)} must be at least "):
            PipelineConfig(**overrides)

    def test_smallest_normal_temperature_accepted(self):
        tiny = float(np.finfo(np.float64).tiny)
        assert PipelineConfig(tau=tiny, sharpen_divisor=1.0).tau == tiny

    def test_int_accepted_for_float_field(self):
        assert PipelineConfig(ot_lambda=25).ot_lambda == 25


def _mult_arrays(fv, fr, ctx):
    res = mult_associate(fv, fr, ctx.assign_v, ctx.assign_r, PipelineConfig(kappa=5))
    out = [np.array([res.n_visible, res.n_infrared])]
    for name in ("intra_v", "cross_r", "intra_r", "cross_v"):
        subset = getattr(res, name)
        out += [subset.indices, subset.labels.probs]
    return out


def _written_bytes(fv, fr, ctx):
    path = ctx.tmp / f"{type(fv).__name__}.mfv1"
    write_features(path, fv)
    return [np.frombuffer(path.read_bytes(), dtype=np.uint8)]


# Every function that accepts a FeatureMatrix or a plain array, called on
# (visible, infrared) inputs; each returns the list of arrays it produced.
FEATURE_SITES = {
    "dbscan": lambda fv, fr, ctx: [
        dbscan(fv, 0.6, 3).labels,
        dbscan(fv, 0.6, 3, DistanceMetric.JACCARD_DISTANCE, kappa=5).labels,
    ],
    "centroids": lambda fv, fr, ctx: [centroids(fv, ctx.assign_v).prototypes],
    "memory_probabilities": lambda fv, fr, ctx: [
        memory_probabilities(fv, ctx.bank_v, 0.05)
    ],
    "k_reciprocal_sets": lambda fv, fr, ctx: [k_reciprocal_sets(fv, 5)],
    "heterogeneous_plan": lambda fv, fr, ctx: [heterogeneous_plan(fv, fr, 25.0).plan],
    "otla_init": lambda fv, fr, ctx: [otla_init(fr, ctx.bank_v, 25.0).probs],
    "mult_associate": _mult_arrays,
    "write_features": _written_bytes,
}


@pytest.mark.parametrize("site", sorted(FEATURE_SITES))
def test_feature_matrix_and_its_data_agree_bitwise(site, tmp_path):
    fv, fr, _ = generate(SynthSpec(
        num_ids=3, per_id_v=8, per_id_r=8, dim=16, blob_std=0.02,
        modality_gap=0.3, seed=5,
    ))
    assign_v = dbscan(fv.data, 0.6, 3)
    ctx = SimpleNamespace(
        assign_v=assign_v,
        assign_r=dbscan(fr.data, 0.6, 3),
        bank_v=centroids(fv.data, assign_v),
        tmp=tmp_path,
    )
    assert ctx.assign_v.k == 3 and ctx.assign_r.k == 3
    wrapped = FEATURE_SITES[site](fv, fr, ctx)
    plain = FEATURE_SITES[site](fv.data, fr.data, ctx)
    assert len(wrapped) == len(plain)
    for a, b in zip(wrapped, plain):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
