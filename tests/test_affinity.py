import numpy as np
import pytest

from xmod.affinity import (
    homogeneous_affinity,
    jaccard_affinity,
    k_reciprocal_sets,
    row_normalize,
)
from xmod.synth import SynthSpec, generate

from conftest import alloc_peak, random_unit_rows, with_duplicates
from oracles import jaccard_affinity_dense, k_reciprocal_sets_argsort


def embed_1d(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return np.stack([pts, np.zeros_like(pts)], axis=1)


def rows(mask: np.ndarray) -> list[list[int]]:
    """The column indices of each row's True entries, ascending."""
    return [np.flatnonzero(row).tolist() for row in mask]


def from_rows(sets) -> np.ndarray:
    """The square boolean mask whose row i holds the indices in sets[i]."""
    mask = np.zeros((len(sets), len(sets)), dtype=bool)
    for i, s in enumerate(sets):
        mask[i, s] = True
    return mask


class TestKReciprocalSets:
    def test_kappa_one_is_self_only(self, rng):
        feats = rng.standard_normal((6, 3))
        assert np.array_equal(k_reciprocal_sets(feats, 1), np.eye(6, dtype=bool))

    def test_kappa_n_is_everything(self, rng):
        feats = rng.standard_normal((5, 3))
        mask = k_reciprocal_sets(feats, 5)
        assert mask.shape == (5, 5) and mask.all()

    def test_two_pairs_hand_enumerated(self):
        mask = k_reciprocal_sets(embed_1d([0.0, 0.1, 10.0, 10.1]), 2)
        assert rows(mask) == [[0, 1], [0, 1], [2, 3], [2, 3]]

    def test_self_always_included(self, rng):
        feats = rng.standard_normal((20, 4))
        for kappa in (1, 3, 7):
            assert k_reciprocal_sets(feats, kappa).diagonal().all()

    def test_self_included_even_with_duplicates(self):
        # three identical points: every kNN list must still contain self
        feats = np.zeros((3, 2))
        feats[:, 0] = 1.0
        assert k_reciprocal_sets(feats, 2).diagonal().all()

    def test_tie_at_cutoff_breaks_low_index(self):
        # Point 0 sits equidistant from 1 and 2; with kappa=2 only one
        # neighbor fits and the lower index must win.
        feats = embed_1d([0.0, 1.0, -1.0, 50.0])
        mask = k_reciprocal_sets(feats, 2)
        # kNN(0) = {0, 1}; kNN(1) = {1, 0}; mutual for 0 is {0, 1}
        assert rows(mask)[0] == [0, 1]

    def test_mutuality_filter(self):
        # 1 is nearest to 0, but 0's slot is taken by 2 which is closer;
        # mutual filter must drop the one-sided edge 1 -> 0.
        feats = embed_1d([0.0, 0.3, 0.1, 1000.0, 1000.1])
        sets = rows(k_reciprocal_sets(feats, 2))
        assert sets[0] == [0, 2]
        assert sets[1] == [1]  # nobody reciprocates
        assert sets[2] == [0, 2]

    def test_kappa_larger_than_n_clamped(self, rng):
        feats = rng.standard_normal((4, 2))
        mask = k_reciprocal_sets(feats, 99)
        assert mask.shape == (4, 4) and mask.all()


def lattice(side: int) -> np.ndarray:
    """The side x side integer grid: every point has up to four neighbors
    tied at distance 1, eight within distance 2, so kappa cuts through ties."""
    return np.array([(i, j) for i in range(side) for j in range(side)], dtype=np.float64)


INPUTS = {
    "random": lambda rng: random_unit_rows(rng, 40, 6),
    "duplicates": with_duplicates,
    "lattice": lambda rng: lattice(6),
}
KAPPAS = {
    "1": lambda n: 1, "3": lambda n: 3, "5": lambda n: 5, "9": lambda n: 9,
    "n-1": lambda n: n - 1, "n": lambda n: n, "n+5": lambda n: n + 5,
}


class TestMatchesArgsortOracle:
    """The partition k-NN and the exact-count Jaccard give the bits of a full
    stable argsort and a dense float64 product."""

    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_sets_and_jaccard_bitwise(self, rng, kind, kappa):
        feats = INPUTS[kind](rng)
        n = feats.shape[0]
        k = KAPPAS[kappa](n)
        got = k_reciprocal_sets(feats, k)
        want = k_reciprocal_sets_argsort(feats, k)
        assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.bool_, (n, n))
        assert np.array_equal(got, want)
        assert np.array_equal(jaccard_affinity(got), jaccard_affinity_dense(want))

    def test_lattice_ties_reach_the_cutoff(self):
        # kappa=3 on the grid: an interior point has four neighbors at
        # distance 1 and room for two, so the tie rule decides its set
        d = ((lattice(6)[:, None] - lattice(6)[None]) ** 2).sum(axis=2)
        assert (np.sort(d, axis=1)[:, 2] == np.sort(d, axis=1)[:, 3]).any()


class TestJaccardAffinity:
    def test_identical_sets_give_one(self):
        aff = jaccard_affinity(from_rows([[0, 1], [0, 1]]))
        assert np.allclose(aff, 1.0)

    def test_disjoint_sets_give_zero(self):
        aff = jaccard_affinity(from_rows([[0], [1]]))
        assert aff[0, 1] == 0.0 and aff[1, 0] == 0.0

    def test_quarter_overlap_example(self):
        # |{0,1} n {1,2,3}| = 1, union has 4 members -> 1/4
        aff = jaccard_affinity(from_rows([[0, 1], [1], [1, 2, 3], [3]]))
        assert aff[0, 2] == 0.25 and aff[2, 0] == 0.25

    def test_matches_python_set_oracle(self, rng):
        feats = rng.standard_normal((15, 4))
        mask = k_reciprocal_sets(feats, 5)
        aff = jaccard_affinity(mask)
        pysets = [set(s) for s in rows(mask)]
        for i in range(15):
            for j in range(15):
                want = len(pysets[i] & pysets[j]) / len(pysets[i] | pysets[j])
                assert abs(aff[i, j] - want) < 1e-12

    def test_symmetric_unit_diag_in_range(self, rng):
        v = jaccard_affinity(k_reciprocal_sets(rng.standard_normal((12, 3)), 4))
        assert np.allclose(v, v.T, atol=0)
        assert np.allclose(np.diag(v), 1.0)
        assert v.min() >= 0.0 and v.max() <= 1.0

    # A float32 panel product must give the float64 product's exact counts
    # on any mask: one that is not symmetric, with more or fewer columns than
    # rows, one row, and row counts that leave a short last panel.
    @pytest.mark.parametrize("n, p", [(1, 1), (1, 9), (7, 7), (13, 5), (9, 40), (250, 250)])
    def test_any_mask_matches_the_float64_product_bitwise(self, rng, n, p):
        mask = rng.random((n, p)) < 0.3
        mask[np.arange(n), rng.integers(0, p, size=n)] = True  # no empty set
        if n == p:
            assert not np.array_equal(mask, mask.T) or n == 1
        assert np.array_equal(jaccard_affinity(mask), jaccard_affinity_dense(mask))

    def test_homogeneous_affinity_memory(self, rng):
        # 1000 rows, in 8-byte units: measured 1.76 N² above entry, the mask
        # and its float32 transpose beside the output and one float32 panel.
        # A float64 membership copy and product took it to 2.14.
        n = 1000
        feats = random_unit_rows(rng, n, 32)
        assert alloc_peak(homogeneous_affinity, feats, 30) <= 1.8 * n * n * 8

    def test_k_reciprocal_sets_memory(self, rng):
        # 1000 rows, in 8-byte units: measured 1.25 N² above entry, the
        # distances and the mask beside one block's partition. Slicing the
        # k-th column as a view of the partition kept each block's partition
        # alive until the next one existed, and took it to 1.38.
        n = 1000
        feats = random_unit_rows(rng, n, 32)
        assert alloc_peak(k_reciprocal_sets, feats, 30) <= 1.3 * n * n * 8

    def test_separated_blobs_are_block_diagonal(self):
        fv, _, gt = generate(SynthSpec(num_ids=2, per_id_v=10, per_id_r=10,
                                       dim=8, blob_std=0.02, seed=1))
        aff = jaccard_affinity(k_reciprocal_sets(fv.data, 6))
        cross = aff[gt.ids_v[:, None] != gt.ids_v[None, :]]
        assert np.all(cross == 0.0)


class TestRowNormalize:
    def test_plain_rows(self):
        aff = np.array([[2.0, 2.0], [1.0, 3.0]])
        out = row_normalize(aff)
        assert np.allclose(out, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)

    def test_identity_unchanged(self):
        assert np.allclose(row_normalize(np.eye(4)), np.eye(4), atol=0)

    def test_heterogeneous_zero_row_becomes_uniform(self):
        v = np.ones((2, 4))
        v[1] = 0.0
        out = row_normalize(v)
        assert np.allclose(out[1], 0.25, atol=0)

    def test_row_sums_one(self, rng):
        v = rng.random((8, 8))
        out = row_normalize(v)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_float64_is_scaled_in_place(self, rng):
        v = rng.random((6, 5))
        v[2] = 0.0
        expect = v / np.where(v.sum(axis=1) > 0.0, v.sum(axis=1), 1.0)[:, None]
        expect[2] = 0.2
        assert row_normalize(v) is v
        assert np.array_equal(v, expect)
        ints = np.array([[1, 3]])
        assert row_normalize(ints).tolist() == [[0.25, 0.75]] and ints.tolist() == [[1, 3]]


class TestHomogeneousAffinity:
    def test_row_stochastic_and_self_positive(self, rng):
        feats = random_unit_rows(rng, 25, 6)
        aff = homogeneous_affinity(feats, 5)
        assert np.allclose(aff.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(aff) > 0.0)
