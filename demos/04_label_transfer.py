"""Watch one direction of label transfer converge.

Starting from soft memberships on the source side and the balanced transport
assignment on the target side, each iteration pulls both label matrices
toward their cross-modality partners and smooths them over the within-modality
reciprocal-neighbor graph, with a small anchor on the initial labels. Most of
the disagreement energy disappears in the first few iterations; late steps may
wobble by a hair while individual labels settle, but the final energy never
exceeds the initial one. The loop stops once an update moves no entry by more
than epsilon0 in total.
"""

import numpy as np

from xmod.affinity import homogeneous_affinity
from xmod.clustering import ClusterAssignment
from xmod.core import PipelineConfig
from xmod.synth import GapMode, SynthSpec, generate
from xmod.transfer import DirectionAffinities, inconsistency, init_labels, run_transfer
from xmod.transport import heterogeneous_affinity


def main() -> None:
    spec = SynthSpec(num_ids=5, per_id_v=12, per_id_r=12, dim=16, blob_std=0.05,
                     modality_gap=2.0, gap_mode=GapMode.PER_ID_OFFSET, seed=3)
    fv, fr, gt = generate(spec)
    cfg = PipelineConfig(kappa=6, ot_lambda=20.0, epsilon0=1e-6, max_transfer_iters=10_000)

    he_vr, he_rv = heterogeneous_affinity(fv.data, fr.data, cfg.ot_lambda)
    aff = DirectionAffinities(
        homogeneous_affinity(fv.data, cfg.kappa),
        homogeneous_affinity(fr.data, cfg.kappa),
        he_vr,
        he_rv,
    )
    state, _ = init_labels(fv.data, fr.data, ClusterAssignment(gt.ids_v, 5), cfg)

    energies = [inconsistency(state, aff, cfg.alpha)["weighted_total"]]
    steps = []

    def watch(s):
        energies.append(inconsistency(s, aff, cfg.alpha)["weighted_total"])
        steps.append(s)

    init_acc = (state.cross.argmax(axis=1) == gt.ids_r).mean()
    final = run_transfer(state, aff, cfg, on_step=watch)
    final_acc = (final.cross.argmax(axis=1) == gt.ids_r).mean()

    print(f"converged after {final.t} iterations (cap hit: {final.cap_hit})")
    print()
    print("  t    update size    disagreement energy")
    shown = list(range(min(6, len(steps)))) + [len(steps) - 1]
    last = None
    for i in shown:
        if i == last:
            continue
        if last is not None and i - last > 1:
            print("  ...")
        print(f"  {steps[i].t:<4d}  {steps[i].epsilon:11.3e}    {energies[i + 1]:.8f}")
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
