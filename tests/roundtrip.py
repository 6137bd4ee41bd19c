"""Digest every file of one xmod CLI round trip, to compare two source trees.

    python tests/roundtrip.py SRC

runs the xmod CLI from SRC (the directory that holds the ``xmod`` package,
put on PYTHONPATH) in a fresh temporary directory, and prints one
``sha256  path`` line per file there, paths relative to it and sorted. Two
trees whose lists are equal wrote the same bytes. BLAS threads follow
XMOD_THREADS, so set XMOD_THREADS=1 when the lists are to be compared.

For each of two synthetic shapes (a shared modality gap and a per-identity
one, 200 instances a side) the round trip runs ``synth``, ``cluster`` on
both modalities with both metrics, ``associate`` with every ``--method`` at
``--direction both`` and ``r2v`` (``--trace`` for mult), ``eval`` and
``loss-report --mode v`` and ``r`` on each method's four label files, and
``pipeline`` over two snapshots. A command that exits non-zero stops the
script with its stderr. The file is not named test_*, so pytest does not
collect it; it needs the standard library alone.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

SHAPES = {
    "easy": ["--ids", "20", "--per-id-v", "10", "--per-id-r", "10", "--dim", "32",
             "--std", "0.03", "--gap", "0.3", "--gap-mode", "shared"],
    "hard": ["--ids", "20", "--per-id-v", "10", "--per-id-r", "10", "--dim", "32",
             "--std", "0.08", "--gap", "1.2", "--gap-mode", "per-id"],
}
METHODS = ("mult", "otla", "greedy")
LABELS = ("intra_v", "cross_r", "intra_r", "cross_v")


def commands(shape: str, synth_args: list[str]) -> list[list[str]]:
    """The CLI calls of one shape, every path under the directory ``shape``."""
    data = f"{shape}/data"
    fv, fr, gt = f"{data}/visible.mfv1", f"{data}/infrared.mfv1", f"{data}/ground_truth.csv"
    cmds = [["synth", *synth_args, "--seed", str(seed), "--out", out]
            for seed, out in ((7, data), (8, f"{shape}/data8"))]
    for side, features in (("v", fv), ("r", fr)):
        for metric in ("euclidean", "jaccard"):
            cmds.append(["cluster", "--features", features, "--metric", metric,
                         "--out-labels", f"{shape}/clusters_{side}_{metric}.csv",
                         "--out-prototypes", f"{shape}/protos_{side}_{metric}.mfv1"])
    protos = {side: f"{shape}/protos_{side}_euclidean.mfv1" for side in "vr"}
    for method in METHODS:
        for direction in ("both", "r2v"):
            out = f"{shape}/{method}_{direction}"
            trace = ["--trace", f"{out}_trace"] if method == "mult" else []
            cmds.append(["associate", "--features-v", fv, "--features-r", fr,
                         "--method", method, "--direction", direction, *trace, "--out", out])
        label_args = []
        for name in LABELS:
            label_args += [f"--labels-{name.replace('_', '-')}",
                           f"{shape}/{method}_both/{name}.csv"]
        cmds.append(["eval", *label_args, "--gt", gt,
                     "--out", f"{shape}/{method}_both/metrics.json"])
        for mode in "vr":
            # the mode's shared and auxiliary banks live in its source space
            cmds.append(["loss-report", "--features-v", fv, "--features-r", fr, *label_args,
                         "--bank-intra-v", protos["v"], "--bank-intra-r", protos["r"],
                         "--bank-shared", protos[mode], "--bank-intra-cross", protos[mode],
                         "--mode", mode, "--out", f"{shape}/{method}_both/losses_{mode}.json"])
    cmds.append(["pipeline", "--snapshots", f"{shape}/snaps", "--gt", gt,
                 "--out", f"{shape}/trace.csv"])
    return cmds


def snapshots(work: str, shape: str) -> None:
    """epoch000 is the seed-7 set, epoch001 the seed-8 one (same identities)."""
    os.makedirs(os.path.join(work, shape, "snaps"))
    for epoch, data in ((0, "data"), (1, "data8")):
        for modality in ("visible", "infrared"):
            shutil.copyfile(os.path.join(work, shape, data, f"{modality}.mfv1"),
                            os.path.join(work, shape, "snaps",
                                         f"epoch{epoch:03d}_{modality}.mfv1"))


def run(src: str, work: str) -> None:
    src = os.path.realpath(src)
    env = dict(os.environ, PYTHONPATH=src)
    # An installed xmod found first would make the comparison vacuous.
    probe = subprocess.run([sys.executable, "-c", "import xmod; print(xmod.__file__)"],
                           cwd=work, env=env, capture_output=True, text=True, check=True)
    if not os.path.realpath(probe.stdout.strip()).startswith(os.path.join(src, "xmod")):
        sys.exit(f"xmod is imported from {probe.stdout.strip()}, not from {src}")
    for shape, synth_args in SHAPES.items():
        for cmd in commands(shape, synth_args):
            if cmd[0] == "pipeline":
                snapshots(work, shape)
            done = subprocess.run([sys.executable, "-m", "xmod.cli", *cmd], cwd=work,
                                  env=env, capture_output=True, text=True)
            if done.returncode:
                sys.exit(f"xmod {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")


def digests(work: str) -> list[str]:
    lines = []
    for root, _, files in os.walk(work):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, work)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "xmod")):
        print("usage: python tests/roundtrip.py SRC  (SRC holds the xmod package)",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="xmod-roundtrip-") as work:
        run(argv[0], work)
        print("\n".join(digests(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
