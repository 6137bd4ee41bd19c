"""Watch one direction of label transfer converge.

Starting from soft memberships on the source side and the balanced transport
assignment on the target side, each iteration pulls both label matrices
toward their cross-modality partners and smooths them over the within-modality
reciprocal-neighbor graph, with a small anchor on the initial labels. Most of
the disagreement energy disappears in the first few iterations; late steps may
wobble by a hair while individual labels settle, but the final energy never
exceeds the initial one. The loop stops once an update moves the entries by
no more than epsilon0 in total, as it does here after 32 iterations at
epsilon0 = 1e-6, or at the iteration cap. The demo reads the V2R half of a
traced mult_associate run, which transfers labels both ways over the true
identities as both sides' clusters.
"""

import numpy as np

from xmod.baselines import associate_otla_only
from xmod.clustering import ClusterAssignment
from xmod.core import PipelineConfig
from xmod.synth import GapMode, SynthSpec, generate
from xmod.transfer import mult_associate


def main() -> None:
    spec = SynthSpec(num_ids=5, per_id_v=12, per_id_r=12, dim=16, blob_std=0.05,
                     modality_gap=2.0, gap_mode=GapMode.PER_ID_OFFSET, seed=3)
    fv, fr, gt = generate(spec)
    cfg = PipelineConfig(kappa=6, ot_lambda=20.0, epsilon0=1e-6, max_transfer_iters=10_000)
    av, ar = ClusterAssignment(gt.ids_v, 5), ClusterAssignment(gt.ids_r, 5)

    result = mult_associate(fv, fr, av, ar, cfg, collect_trace=["v2r"])
    trace = result.traces["v2r"]
    energies = [entry["weighted_total"] for entry in trace]
    steps = trace[1:]
    # the cross labels the transfer starts from
    start = associate_otla_only(fv, fr, av, ar, cfg)
    init_acc = (start.hard("cross_r") == gt.ids_r).mean()
    final_acc = (result.hard("cross_r") == gt.ids_r).mean()

    end = steps[-1]
    why = ("an update at or below epsilon0" if end["epsilon"] <= cfg.epsilon0
           else "the iteration cap")
    print(f"stopped after {end['t']} iterations by {why}")
    print()
    print("  t    update size    disagreement energy")
    shown = list(range(min(6, len(steps)))) + [len(steps) - 1]
    last = None
    for i in shown:
        if i == last:
            continue
        if last is not None and i - last > 1:
            print("  ...")
        print(f"  {steps[i]['t']:<4d}  {steps[i]['epsilon']:11.3e}    {energies[i + 1]:.8f}")
        last = i
    print()
    diffs = np.diff(np.asarray(energies))
    largest_up = float(diffs.max()) if (diffs > 0).any() else 0.0
    print(f"energy at t=0  {energies[0]:.8f}")
    print(f"energy at end  {energies[-1]:.8f}"
          f"  ({100.0 * (1.0 - energies[-1] / energies[0]):.1f}% lower)")
    print(f"largest single-step increase along the way: {largest_up:.1e}"
          " (settling noise, orders below the net drop)")
    print()
    print(f"target-side label accuracy: {init_acc:.2%} at init -> {final_acc:.2%} after transfer")


if __name__ == "__main__":
    main()
