"""Cluster each modality independently and build memory prototypes.

DBSCAN runs on a dense pairwise distance matrix, either plain Euclidean or
the Jaccard distance of mutual reciprocal-neighbor sets. Each recovered
cluster then gets an L2-normalized mean prototype, and instances get soft
memberships from a temperature softmax against those prototypes.
"""

import numpy as np

from xmod.clustering import DistanceMetric, centroids, dbscan, memory_probabilities
from xmod.core import NOISE, PipelineConfig
from xmod.synth import SynthSpec, generate


def purity(labels: np.ndarray, ids: np.ndarray) -> float:
    """Fraction of clustered instances whose cluster is identity-pure."""
    good = 0
    total = 0
    for c in np.unique(labels[labels != NOISE]):
        members = ids[labels == c]
        good += (members == np.bincount(members).argmax()).sum()
        total += members.size
    return good / total if total else 0.0


def main() -> None:
    cfg = PipelineConfig(kappa=10)
    spec = SynthSpec(num_ids=8, per_id_v=15, per_id_r=15, dim=32, blob_std=0.05, seed=3)
    visible, infrared, gt = generate(spec)

    for name, feats, ids in (("visible", visible, gt.ids_v), ("infrared", infrared, gt.ids_r)):
        print(f"{name}:")
        for metric in (DistanceMetric.EUCLIDEAN, DistanceMetric.JACCARD_DISTANCE):
            assign = dbscan(
                feats.data, cfg.dbscan_eps, cfg.dbscan_min_samples,
                metric=metric, kappa=cfg.kappa,
            )
            noise = int((assign.labels == NOISE).sum())
            print(
                f"  {metric.value:<16} -> {assign.k} clusters"
                f" (truth {spec.num_ids}), {noise} noise,"
                f" purity {purity(assign.labels, ids):.3f}"
            )
        print()

    assign_v = dbscan(visible.data, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
    bank = centroids(visible.data, assign_v)
    print(f"prototype bank: {bank.k} rows of dim {bank.prototypes.shape[1]}, tau {cfg.tau}")
    norms = np.linalg.norm(bank.prototypes, axis=1)
    print(f"prototype norms: [{norms.min():.9f}, {norms.max():.9f}]")

    probs = memory_probabilities(visible.data, bank, cfg.tau)
    print(f"membership rows sum to one: {np.allclose(probs.sum(axis=1), 1.0)}")
    print(f"mean top membership {probs.max(axis=1).mean():.4f}"
          f" (sharp because tau {cfg.tau} is small)")


if __name__ == "__main__":
    main()
