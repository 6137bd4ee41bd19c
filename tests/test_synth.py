import math

import numpy as np
import pytest

from oracles import generate_scalar
from xmod.core import InfeasibleSeparationError
from xmod.synth import GapMode, SplitMix64, SynthSpec, generate

GAMMA = 0x9E3779B97F4A7C15


def zero_at(k):
    """A seed whose draw k (0-based) is exactly 0: mix(0) == 0."""
    return -(k + 1) * GAMMA % 2 ** 64


def assert_same_bytes(spec):
    fv, fr, gt = generate(spec)
    ov, orr, ogt = generate_scalar(spec)
    assert fv.data.tobytes() == ov.data.tobytes()
    assert fr.data.tobytes() == orr.data.tobytes()
    assert gt.ids_v.tobytes() == ogt.ids_v.tobytes()
    assert gt.ids_r.tobytes() == ogt.ids_r.tobytes()


class TestSplitMix64:
    def test_reference_outputs_seed_zero(self):
        # published reference sequence for the standard splitmix64 constants
        s = SplitMix64(0)
        assert s.next_u64() == 0xE220A8397B1DCDAF
        assert s.next_u64() == 0x6E789E6AA1B965F4
        assert s.next_u64() == 0x06C45D188009454F

    def test_mask_wraps_state(self):
        s = SplitMix64((1 << 64) - 1)
        assert 0 <= s.next_u64() < (1 << 64)

    def test_uniform_range_and_determinism(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        va = [a.uniform() for _ in range(100)]
        vb = [b.uniform() for _ in range(100)]
        assert va == vb
        assert all(0.0 <= v < 1.0 for v in va)

    def test_normal_moments(self):
        s = SplitMix64(7)
        draws = [s.normal() for _ in range(4000)]
        assert abs(float(np.mean(draws))) < 0.05
        assert abs(float(np.var(draws)) - 1.0) < 0.1

    def test_normal_vector_shape(self):
        v = SplitMix64(1).normal_vector(5)
        assert v.shape == (5,)
        assert v.dtype == np.float64

    @pytest.mark.parametrize(
        "seed,n",
        [(0, 1), (7, 64), (2 ** 64 - 1, 33), (-12345, 1000),
         (zero_at(0), 5), (zero_at(1), 5), (zero_at(6), 5), (zero_at(9), 5)],
        ids=["seed0", "seed7", "max", "negative", "u1-first", "u2-first",
             "u1-inside", "u2-last"],
    )
    def test_normal_vector_equals_scalar_draws_and_state(self, seed, n):
        batch, scalar = SplitMix64(seed), SplitMix64(seed)
        drawn = batch.normal_vector(n)
        expected = np.array([scalar.normal() for _ in range(n)])
        assert drawn.tobytes() == expected.tobytes()
        assert batch._state == scalar._state
        assert batch.next_u64() == scalar.next_u64()

    def test_zero_seed_draws_zero(self):
        s = SplitMix64(zero_at(4))
        assert [s.next_u64() == 0 for _ in range(6)] == [False] * 4 + [True, False]


class TestSynthSpecValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SynthSpec(num_ids=0)
        with pytest.raises(ValueError):
            SynthSpec(num_ids=2, per_id_v=0)

    def test_rejects_low_dim(self):
        with pytest.raises(ValueError):
            SynthSpec(num_ids=2, dim=1)

    def test_rejects_negative_scales(self):
        with pytest.raises(ValueError):
            SynthSpec(num_ids=2, blob_std=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(num_ids=2, modality_gap=-1.0)

    def test_separation_beyond_diameter(self):
        with pytest.raises(InfeasibleSeparationError):
            SynthSpec(num_ids=2, id_separation=2.5)

    @pytest.mark.parametrize("field", ["id_separation", "blob_std", "modality_gap"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_scales_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SynthSpec(num_ids=2, **{field: value})


class TestGenerate:
    def test_bitwise_deterministic(self):
        spec = SynthSpec(num_ids=4, per_id_v=6, per_id_r=5, dim=16,
                         modality_gap=0.3, seed=9)
        fv1, fr1, gt1 = generate(spec)
        fv2, fr2, gt2 = generate(spec)
        assert np.array_equal(fv1.data, fv2.data)
        assert np.array_equal(fr1.data, fr2.data)
        assert np.array_equal(gt1.ids_v, gt2.ids_v)

    def test_seeds_differ(self):
        a = generate(SynthSpec(num_ids=3, per_id_v=4, per_id_r=4, dim=8, seed=0))
        b = generate(SynthSpec(num_ids=3, per_id_v=4, per_id_r=4, dim=8, seed=1))
        assert not np.array_equal(a[0].data, b[0].data)

    def test_shapes_counts_and_ids(self):
        spec = SynthSpec(num_ids=3, per_id_v=5, per_id_r=2, dim=8, seed=2)
        fv, fr, gt = generate(spec)
        assert fv.data.shape == (15, 8)
        assert fr.data.shape == (6, 8)
        assert gt.ids_v.tolist() == [0] * 5 + [1] * 5 + [2] * 5
        assert gt.ids_r.tolist() == [0, 0, 1, 1, 2, 2]

    def test_rows_are_unit(self):
        fv, fr, _ = generate(SynthSpec(num_ids=3, per_id_v=4, per_id_r=4,
                                       dim=12, blob_std=0.2, seed=5))
        for mat in (fv.data, fr.data):
            assert np.abs(np.linalg.norm(mat, axis=1) - 1.0).max() < 1e-12

    def test_zero_gap_zero_std_modalities_coincide(self):
        spec = SynthSpec(num_ids=4, per_id_v=3, per_id_r=3, dim=8,
                         blob_std=0.0, modality_gap=0.0, seed=11)
        fv, fr, gt = generate(spec)
        assert np.array_equal(fv.data, fr.data)
        # within an identity every instance is the (unit) center itself
        for g in range(4):
            rows = fv.data[gt.ids_v == g]
            assert np.abs(rows - rows[0]).max() < 1e-15

    def test_id_separation_respected(self):
        spec = SynthSpec(num_ids=5, per_id_v=2, per_id_r=2, dim=8,
                         blob_std=0.0, id_separation=1.2, seed=3)
        fv, _, gt = generate(spec)
        centers = fv.data[::2]  # one row per identity, std 0
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(centers[i] - centers[j]) >= 1.2 - 1e-12

    def test_crowded_sphere_raises(self):
        spec = SynthSpec(num_ids=40, per_id_v=1, per_id_r=1, dim=2,
                         id_separation=1.9, seed=0)
        with pytest.raises(InfeasibleSeparationError):
            generate(spec)

    def test_gap_pushes_modalities_apart(self):
        base = dict(num_ids=3, per_id_v=4, per_id_r=4, dim=8, blob_std=0.0, seed=6)
        _, fr0, _ = generate(SynthSpec(modality_gap=0.0, **base))
        _, fr1, _ = generate(SynthSpec(modality_gap=0.5, **base))
        fv, _, _ = generate(SynthSpec(modality_gap=0.5, **base))
        assert not np.array_equal(fr0.data, fr1.data)
        assert np.abs(fv.data - fr1.data).max() > 0.01

    def test_gap_modes_differ(self):
        base = dict(num_ids=3, per_id_v=4, per_id_r=4, dim=8,
                    modality_gap=0.4, seed=6)
        _, fr_shared, _ = generate(SynthSpec(gap_mode=GapMode.SHARED_OFFSET, **base))
        _, fr_per_id, _ = generate(SynthSpec(gap_mode=GapMode.PER_ID_OFFSET, **base))
        assert not np.array_equal(fr_shared.data, fr_per_id.data)

    @pytest.mark.parametrize("gap_mode", [GapMode.SHARED_OFFSET, GapMode.PER_ID_OFFSET])
    def test_matches_independent_reimplementation(self, gap_mode):
        # rebuild the documented draw order from scratch: splitmix64 stream,
        # Box-Muller cosine branch, center rejection, one or G gap offsets,
        # visible noise then infrared noise in instance order
        spec = SynthSpec(num_ids=3, per_id_v=4, per_id_r=2, dim=8,
                         blob_std=0.07, modality_gap=0.3,
                         id_separation=1.0, gap_mode=gap_mode, seed=13)

        state = [spec.seed]

        def next_u64():
            state[0] = (state[0] + 0x9E3779B97F4A7C15) % 2 ** 64
            z = state[0]
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
            return z ^ (z >> 31)

        def normal():
            u1 = (next_u64() >> 11) * 2.0 ** -53
            while u1 <= 0.0:
                u1 = (next_u64() >> 11) * 2.0 ** -53
            u2 = (next_u64() >> 11) * 2.0 ** -53
            return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

        def nvec():
            return np.array([normal() for _ in range(spec.dim)])

        def unit(v):
            return v / np.linalg.norm(v)

        centers = []
        for _ in range(spec.num_ids):
            while True:
                cand = unit(nvec())
                if all(np.linalg.norm(cand - c) >= spec.id_separation for c in centers):
                    centers.append(cand)
                    break
        n_off = 1 if gap_mode is GapMode.SHARED_OFFSET else spec.num_ids
        offsets = [spec.modality_gap * unit(nvec()) for _ in range(n_off)]
        vis = [unit(centers[g] + spec.blob_std * nvec())
               for g in range(3) for _ in range(spec.per_id_v)]
        infra = [unit(centers[g] + offsets[g % n_off] + spec.blob_std * nvec())
                 for g in range(3) for _ in range(spec.per_id_r)]

        fv, fr, _ = generate(spec)
        assert np.abs(fv.data - np.stack(vis)).max() < 1e-15
        assert np.abs(fr.data - np.stack(infra)).max() < 1e-15


XBENCH_SPECS = {
    "easy-epoch": SynthSpec(num_ids=50, per_id_v=20, per_id_r=20, dim=64, blob_std=0.03,
                            modality_gap=0.3, gap_mode=GapMode.SHARED_OFFSET, seed=101),
    "hard-epoch": SynthSpec(num_ids=20, per_id_v=20, per_id_r=20, dim=32, blob_std=0.08,
                            modality_gap=1.2, gap_mode=GapMode.PER_ID_OFFSET, seed=102),
    "cli-roundtrip": SynthSpec(num_ids=120, per_id_v=5, per_id_r=5, dim=64, blob_std=0.03,
                               modality_gap=0.3, gap_mode=GapMode.SHARED_OFFSET, seed=103),
}


class TestMatchesScalarOracle:
    """``generate`` against the one-normal-at-a-time route, byte for byte."""

    @pytest.mark.parametrize("name", sorted(XBENCH_SPECS))
    def test_benchmark_workload_specs(self, name):
        assert_same_bytes(XBENCH_SPECS[name])

    @pytest.mark.parametrize("gap_mode", list(GapMode))
    def test_crowded_rejection(self, gap_mode):
        # 6 centers in dim 4 at separation 1.2 take 34 candidates
        assert_same_bytes(SynthSpec(num_ids=6, per_id_v=3, per_id_r=2, dim=4,
                                    id_separation=1.2, blob_std=0.2, modality_gap=0.5,
                                    gap_mode=gap_mode, seed=4))

    # Separation 0 accepts every candidate, so the draw index of each normal is
    # known. 2 ids x dim 3: draws 0-11 are the centers, 12-17 the shared offset,
    # 18-41 the visible noise (2 x 2 x 3 normals) and 42-65 the infrared noise.
    # Even draws are u1 (a zero is redrawn), odd draws u2 (cos(0) = 1).
    @pytest.mark.parametrize(
        "k", [0, 13, 18, 32, 33, 41, 42, 64, 65],
        ids=["center-u1", "offset-u2", "visible-first-u1", "visible-u1", "visible-u2",
             "visible-last-u2", "infrared-first-u1", "infrared-last-u1", "infrared-last-u2"],
    )
    def test_zero_draw(self, k):
        spec = SynthSpec(num_ids=2, per_id_v=2, per_id_r=2, dim=3, id_separation=0.0,
                         blob_std=0.5, modality_gap=0.4, seed=zero_at(k))
        assert_same_bytes(spec)

    @pytest.mark.parametrize("seed", range(6))
    def test_separation_tie(self, seed):
        # Set id_separation to the first two candidates' exact distance, then
        # one ulp above it: the second is accepted, then rejected, as
        # np.linalg.norm's own rounding decides.
        rng = SplitMix64(seed)
        first, second = (v / np.linalg.norm(v) for v in (rng.normal_vector(64),
                                                         rng.normal_vector(64)))
        dist = float(np.linalg.norm(second - first))
        base = dict(num_ids=2, per_id_v=1, per_id_r=1, dim=64, blob_std=0.0, seed=seed)
        for separation in (dist, np.nextafter(dist, 3.0)):
            assert_same_bytes(SynthSpec(id_separation=float(separation), **base))
