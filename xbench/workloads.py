"""The three workloads: how each draws its pool, runs one operation, and
checks the operation's outputs.

A pool is a list of snapshots whose seeds come from the workload name and
the run seed alone, so every run with one seed sees the same inputs however
many operations fit in its time. An operation's outputs are reduced to a
digest; every operation on a snapshot must reproduce the digest of that
snapshot's warm-up operation (xmod promises byte-identical reruns).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from xmod import cli, pipeline
from xmod.core import Modality, PipelineConfig
from xmod.fileio import read_features, write_features, write_ground_truth
from xmod.synth import GapMode, SynthSpec, generate

NOISE = -1
QUALITY = ("cross_acc_v", "cross_acc_r", "cross_re_v", "cross_re_r")
LABEL_FILES = ("intra_v", "cross_r", "intra_r", "cross_v")
LOSS_KEYS = ("l_im_v", "l_im_r", "l_cm", "l_oclr_v", "l_oclr_r", "total")
METRIC_KEYS = (
    "intra_acc_v", "intra_acc_r", "cross_acc_v", "cross_acc_r",
    "intra_re_v", "intra_re_r", "cross_re_v", "cross_re_r",
)


class CheckError(Exception):
    """An operation's output broke one of the benchmark's checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "epoch": pipeline.run_epoch in memory; "cli": xmod.cli.main on files
    spec: dict         # SynthSpec fields other than the seed


# Four snapshots suffice: the work per snapshot barely moves with the seed
# (Sinkhorn iterations within +-1%, transfer steps within +-3% on hard-epoch),
# while the machine's own noise is far larger, so run time goes to passes
# rather than to a bigger pool.
POOL_SIZE = 4

# Each size keeps one operation near 2 s with one BLAS thread.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "easy-epoch", "epoch",
            dict(num_ids=50, per_id_v=20, per_id_r=20, dim=64, blob_std=0.03,
                 modality_gap=0.3, gap_mode=GapMode.SHARED_OFFSET),
        ),
        Workload(
            "hard-epoch", "epoch",
            dict(num_ids=20, per_id_v=20, per_id_r=20, dim=32, blob_std=0.08,
                 modality_gap=1.2, gap_mode=GapMode.PER_ID_OFFSET),
        ),
        Workload(
            "cli-roundtrip", "cli",
            dict(num_ids=120, per_id_v=5, per_id_r=5, dim=64, blob_std=0.03,
                 modality_gap=0.3, gap_mode=GapMode.SHARED_OFFSET),
        ),
    )
}


def snapshot_seeds(workload: str, seed: int, pool_size: int) -> list[int]:
    """Seeds of the pool's snapshots: a function of (workload, seed, index)."""
    out = []
    for i in range(pool_size):
        digest = hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()
        out.append(int.from_bytes(digest[:8], "little") >> 1)
    return out


def walk(pool_size: int, seconds: float, clock):
    """Pool indices in order, in whole passes, until ``seconds`` have passed.

    The inputs a run sees are a whole number of copies of the pool, so they
    never depend on how many operations fit in the run's time.
    """
    start = clock()
    while True:
        yield from range(pool_size)
        if clock() - start >= seconds:
            return


@dataclass
class Snapshot:
    index: int
    seed: int
    directory: str
    features_v: object
    features_r: object
    gt: object
    commands: list = field(default_factory=list)
    digest: str = ""
    quality: dict = field(default_factory=dict)

    @property
    def instances(self) -> int:
        return self.features_v.n + self.features_r.n


def draw_snapshot(workload: Workload, index: int, seed: int, directory: str) -> tuple[Snapshot, float]:
    """Generate one snapshot and write it as the CLI's input files; return
    it with the seconds spent in ``synth.generate``.

    Both kinds read the features back from MFV1, so the epoch workloads see
    the same float32-rounded inputs that ``xmod pipeline`` would.
    """
    os.makedirs(directory, exist_ok=True)
    t0 = time.perf_counter()
    visible, infrared, gt = generate(SynthSpec(seed=seed, **workload.spec))
    generate_s = time.perf_counter() - t0
    paths = {name: os.path.join(directory, name)
             for name in ("visible.mfv1", "infrared.mfv1", "ground_truth.csv")}
    write_features(paths["visible.mfv1"], visible)
    write_features(paths["infrared.mfv1"], infrared)
    write_ground_truth(paths["ground_truth.csv"], gt.ids_v, gt.ids_r)
    fv = read_features(paths["visible.mfv1"], Modality.VISIBLE)
    fr = read_features(paths["infrared.mfv1"], Modality.INFRARED)
    snap = Snapshot(index, seed, directory, fv, fr, gt)
    if workload.kind == "cli":
        os.makedirs(os.path.join(directory, "out"), exist_ok=True)
        snap.commands = cli_commands(directory, paths)
    return snap, generate_s


def cli_commands(directory: str, paths: dict) -> list[list[str]]:
    """One CLI operation: cluster both sides, associate, eval, loss-report."""
    out = os.path.join(directory, "out")
    labels = {name: os.path.join(out, "labels", f"{name}.csv") for name in LABEL_FILES}
    label_args = []
    for name in LABEL_FILES:
        label_args += [f"--labels-{name.replace('_', '-')}", labels[name]]
    return [
        ["cluster", "--features", paths["visible.mfv1"],
         "--out-labels", os.path.join(out, "clusters_v.csv"),
         "--out-prototypes", os.path.join(out, "protos_v.mfv1")],
        ["cluster", "--features", paths["infrared.mfv1"],
         "--out-labels", os.path.join(out, "clusters_r.csv"),
         "--out-prototypes", os.path.join(out, "protos_r.mfv1")],
        ["associate", "--features-v", paths["visible.mfv1"], "--features-r", paths["infrared.mfv1"],
         "--method", "mult", "--direction", "both", "--out", os.path.join(out, "labels")],
        ["eval", *label_args, "--gt", paths["ground_truth.csv"],
         "--out", os.path.join(out, "metrics.json")],
        ["loss-report", "--features-v", paths["visible.mfv1"], "--features-r", paths["infrared.mfv1"],
         *label_args,
         "--bank-intra-v", os.path.join(out, "protos_v.mfv1"),
         "--bank-intra-r", os.path.join(out, "protos_r.mfv1"),
         "--bank-shared", os.path.join(out, "protos_v.mfv1"),
         "--bank-intra-cross", os.path.join(out, "protos_v.mfv1"),
         "--mode", "v", "--out", os.path.join(out, "losses.json")],
    ]


# Output files of one CLI operation, in digest order.
def cli_outputs(directory: str) -> list[str]:
    out = os.path.join(directory, "out")
    names = ["clusters_v.csv", "protos_v.mfv1", "clusters_r.csv", "protos_r.mfv1"]
    names += [os.path.join("labels", f"{name}.csv") for name in LABEL_FILES]
    names += ["metrics.json", "losses.json"]
    return [os.path.join(out, name) for name in names]


def run_op(workload: Workload, snap: Snapshot, cfg: PipelineConfig):
    """The timed operation. Module attributes are looked up at call time so
    the traced run's hooks take effect."""
    if workload.kind == "epoch":
        return pipeline.run_epoch(snap.features_v, snap.features_r, snap.index, cfg, snap.gt)
    return [cli.main(argv) for argv in snap.commands]


# ---------------------------------------------------------------- checks


def label_totals(n_visible: int, n_infrared: int) -> dict:
    """Row count of each label matrix over all instances."""
    return {"intra_v": n_visible, "cross_v": n_visible,
            "intra_r": n_infrared, "cross_r": n_infrared}


def check_labels(name: str, hard: np.ndarray, soft: np.ndarray) -> None:
    """Soft rows finite, nonnegative and row-stochastic; hard labels equal the
    soft argmax; NOISE rows all zero."""
    if hard.ndim != 1 or soft.ndim != 2 or soft.shape[0] != hard.shape[0]:
        raise CheckError(f"{name}: shapes {hard.shape} and {soft.shape} do not match")
    if not np.isfinite(soft).all():
        raise CheckError(f"{name}: non-finite soft label")
    if (soft < 0.0).any():
        raise CheckError(f"{name}: negative soft label")
    if (hard < NOISE).any() or (hard >= soft.shape[1]).any():
        raise CheckError(f"{name}: hard label out of range")
    noise = hard == NOISE
    if noise.any() and soft[noise].any():
        raise CheckError(f"{name}: NOISE row with nonzero soft labels")
    rows = soft[~noise]
    sums = rows.sum(axis=1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=1e-9):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise CheckError(f"{name}: labeled row {bad} sums to {sums[bad]!r}")
    if not (np.argmax(rows, axis=1) == hard[~noise]).all():
        raise CheckError(f"{name}: hard label differs from the soft argmax")


def check_scores(metrics: dict, losses: dict) -> None:
    for key in METRIC_KEYS:
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            raise CheckError(f"metric {key} = {value!r} is not in [0, 1]")
    for key in LOSS_KEYS:
        value = losses.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckError(f"loss {key} = {value!r} is not finite")


def check_epoch(snap: Snapshot, result) -> tuple[str, dict]:
    """Validate an EpochResult; return (digest, quality metrics)."""
    labels = result.labels
    totals = label_totals(labels.n_visible, labels.n_infrared)
    h = hashlib.sha256()
    for name in LABEL_FILES:
        subset = getattr(labels, name)
        if subset is None:
            raise CheckError(f"{name}: missing from the epoch result")
        hard = subset.hard_full(totals[name])
        soft = subset.soft_full(totals[name])
        check_labels(name, hard, soft)
        h.update(hard.tobytes())
        h.update(soft.tobytes())
    metrics = result.metrics.to_dict()
    losses = result.losses.to_dict()
    check_scores(metrics, losses)
    h.update(json.dumps([metrics, losses], sort_keys=True).encode())
    return h.hexdigest(), {key: metrics[key] for key in QUALITY}


def parse_label_csv(path: str, with_soft: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a label CSV without xmod: rows ``index,hard_label[,p0..]``."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header[:2] != ["index", "hard_label"] or (len(header) > 2) != with_soft:
        raise CheckError(f"{path}: unexpected header {header[:3]}")
    if table.shape[1] != len(header):
        raise CheckError(f"{path}: {table.shape[1]} columns under a {len(header)}-column header")
    if not (table[:, 0] == np.arange(table.shape[0])).all():
        raise CheckError(f"{path}: rows are not indexed 0..N-1")
    hard = table[:, 1].astype(np.int64)
    if not (hard == table[:, 1]).all():
        raise CheckError(f"{path}: non-integer hard label")
    return hard, (table[:, 2:] if with_soft else None)


def check_prototypes(path: str, k: int) -> None:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise CheckError(f"{path}: truncated MFV1 header")
    magic, n, d = struct.unpack_from("<4sII", blob)
    if magic != b"MFV1" or len(blob) != 12 + 4 * n * d or n != k:
        raise CheckError(f"{path}: not an MFV1 file of {k} prototypes")
    rows = np.frombuffer(blob, dtype="<f4", offset=12).reshape(n, d)
    if not np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-5):
        raise CheckError(f"{path}: prototypes are not unit rows")


def check_cli(snap: Snapshot, codes: list[int]) -> tuple[str, dict]:
    """Validate one CLI operation's exit codes and files; return (digest, quality)."""
    if codes != [0] * len(snap.commands):
        raise CheckError(f"exit codes {codes}")
    out = os.path.join(snap.directory, "out")
    for side, n in (("v", snap.features_v.n), ("r", snap.features_r.n)):
        hard, _ = parse_label_csv(os.path.join(out, f"clusters_{side}.csv"), with_soft=False)
        if hard.shape[0] != n or (hard < NOISE).any():
            raise CheckError(f"clusters_{side}.csv: bad cluster ids")
        check_prototypes(os.path.join(out, f"protos_{side}.mfv1"), int(hard.max()) + 1)
    totals = label_totals(snap.features_v.n, snap.features_r.n)
    for name in LABEL_FILES:
        hard, soft = parse_label_csv(os.path.join(out, "labels", f"{name}.csv"), with_soft=True)
        if hard.shape[0] != totals[name]:
            raise CheckError(f"{name}.csv: {hard.shape[0]} rows, expected {totals[name]}")
        check_labels(name, hard, soft)
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    with open(os.path.join(out, "losses.json")) as fh:
        losses = json.load(fh)
    check_scores(metrics, losses)
    h = hashlib.sha256()
    for path in cli_outputs(snap.directory):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest(), {key: metrics[key] for key in QUALITY}


def check_op(workload: Workload, snap: Snapshot, output) -> tuple[str, dict]:
    if workload.kind == "epoch":
        return check_epoch(snap, output)
    return check_cli(snap, output)

