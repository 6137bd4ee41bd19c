"""Entropic transport between modalities, and what the regularizer does.

A coupling between the two instance sets is computed with Sinkhorn scaling so
that every row carries exactly 1/N_v of the mass and every column exactly
1/N_r. Small lambda spreads each row across many partners; large lambda
concentrates it on the nearest ones. The same solver also produces the
balanced one-hot initialization onto cluster prototypes.
"""

import numpy as np

from xmod.clustering import ClusterAssignment, centroids
from xmod.synth import SynthSpec, generate
from xmod.transport import heterogeneous_plan, otla_init


def show_plan(plan: np.ndarray, title: str) -> None:
    print(title)
    for row in plan:
        print("   " + " ".join(f"{v:7.4f}" for v in row))
    print(f"   row sums    {np.round(plan.sum(axis=1), 10)}")
    print(f"   column sums {np.round(plan.sum(axis=0), 10)}")
    print()


def main() -> None:
    spec = SynthSpec(num_ids=2, per_id_v=2, per_id_r=3, dim=8, blob_std=0.08,
                     modality_gap=0.3, seed=11)
    visible, infrared, gt = generate(spec)
    print(f"{visible.data.shape[0]} visible instances vs"
          f" {infrared.data.shape[0]} infrared (ids v={gt.ids_v}, r={gt.ids_r})")
    print()

    for lam in (2.0, 25.0, 120.0):
        plan = heterogeneous_plan(visible.data, infrared.data, lam).plan
        show_plan(plan, f"lambda = {lam}: entropy {-np.sum(plan * np.log(plan + 1e-300)):.3f}")

    # The balanced init assigns whole instances to prototypes, keeping the
    # per-cluster head counts as even as the instance count allows.
    spec_big = SynthSpec(num_ids=4, per_id_v=10, per_id_r=10, dim=16,
                         blob_std=0.03, modality_gap=0.2, seed=5)
    fv, fr, gt_big = generate(spec_big)
    bank = centroids(fv.data, ClusterAssignment(gt_big.ids_v, 4))
    hard = otla_init(fr.data, bank, lam=25.0).probs.argmax(axis=1)
    counts = np.bincount(hard, minlength=4)
    print(f"balanced init over 4 prototypes, 40 infrared instances: counts {counts}")
    agree = (hard == gt_big.ids_r).mean()
    print(f"init already matches ground truth on {agree:.0%} of instances here")


if __name__ == "__main__":
    main()
