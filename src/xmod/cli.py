"""Command-line interface.

Subcommands: synth, cluster, associate, eval, loss-report, pipeline.
cluster, associate, loss-report and pipeline read their settings from an
optional ``--config`` JSON object whose keys are PipelineConfig fields; an
unknown key or a value of the wrong type is a data error. ``--seed`` belongs
to synth alone: nothing after generation draws random numbers.
Exit codes: 0 success, 1 usage errors, 2 data or numeric errors. Output
files are written atomically (temp file + rename). The XMOD_THREADS
environment variable caps BLAS worker threads; the package __init__ applies
it, since that runs before anything imports numpy.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import Modality, PipelineConfig, XmodError
from .clustering import DistanceMetric, MemoryBank, centroids, dbscan
from .baselines import associate_greedy_centroid, associate_otla_only
from .fileio import (
    read_features,
    read_ground_truth,
    read_labels,
    write_features,
    write_ground_truth,
    write_json,
    write_labels,
)
from .losses import Batch, ModeBanks, TrainingMode, loss_report, mean_reports
from .metrics import GroundTruth, report_from_hard
from .pipeline import run_trace
from .synth import GapMode, SynthSpec, generate
from .transfer import Direction, mult_associate

_METRICS = {"euclidean": DistanceMetric.EUCLIDEAN, "jaccard": DistanceMetric.JACCARD_DISTANCE}
_LABEL_FILES = ("intra_v", "cross_r", "intra_r", "cross_v")


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = cfg.with_overrides(json.load(fh))
    return cfg


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        num_ids=args.ids,
        per_id_v=args.per_id_v,
        per_id_r=args.per_id_r,
        dim=args.dim,
        id_separation=args.separation,
        blob_std=args.std,
        modality_gap=args.gap,
        gap_mode=GapMode(args.gap_mode),
        seed=args.seed,
    )
    visible, infrared, gt = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    write_features(os.path.join(args.out, "visible.mfv1"), visible)
    write_features(os.path.join(args.out, "infrared.mfv1"), infrared)
    write_ground_truth(os.path.join(args.out, "ground_truth.csv"), gt.ids_v, gt.ids_r)
    return 0


def _cmd_cluster(args) -> int:
    cfg = _load_config(args)
    features = read_features(args.features, Modality.VISIBLE)
    assign = dbscan(
        features,
        args.eps if args.eps is not None else cfg.dbscan_eps,
        args.min_samples if args.min_samples is not None else cfg.dbscan_min_samples,
        _METRICS[args.metric],
        kappa=cfg.kappa,
    )
    if assign.k == 0:
        raise XmodError("every instance is noise; no cluster to write")
    write_labels(args.out_labels, assign.labels)
    bank = centroids(features, assign)
    write_features(args.out_prototypes, bank.prototypes)
    return 0


def _write_association(out_dir, result) -> None:
    os.makedirs(out_dir, exist_ok=True)
    totals = {
        "intra_v": result.n_visible,
        "cross_v": result.n_visible,
        "intra_r": result.n_infrared,
        "cross_r": result.n_infrared,
    }
    for name in _LABEL_FILES:
        subset = getattr(result, name)
        if subset is None:
            continue
        total = totals[name]
        write_labels(
            os.path.join(out_dir, f"{name}.csv"),
            subset.hard_full(total),
            subset.soft_full(total),
        )


def _cmd_associate(args) -> int:
    cfg = _load_config(args)
    fv = read_features(args.features_v, Modality.VISIBLE)
    fr = read_features(args.features_r, Modality.INFRARED)
    assign_v = dbscan(fv, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
    assign_r = dbscan(fr, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
    direction = Direction(args.direction)
    if args.method == "mult":
        result = mult_associate(
            fv, fr, assign_v, assign_r, cfg, direction, collect_trace=bool(args.trace)
        )
    elif args.method == "otla":
        result = associate_otla_only(fv, fr, assign_v, assign_r, cfg, direction)
    else:
        result = associate_greedy_centroid(fv, fr, assign_v, assign_r, cfg, direction)
    _write_association(args.out, result)
    if args.trace and result.traces:
        os.makedirs(args.trace, exist_ok=True)
        for tag, entries in result.traces.items():
            for entry in entries:
                path = os.path.join(args.trace, f"{tag}_t{entry['t']:03d}.json")
                write_json(path, entry)
    return 0


def _cmd_eval(args) -> int:
    hard = {}
    for name in _LABEL_FILES:
        hard[name], _ = read_labels(getattr(args, f"labels_{name}"))
    n_visible = hard["intra_v"].shape[0]
    ids_v, ids_r = read_ground_truth(args.gt, n_visible)
    report = report_from_hard(
        hard["intra_v"],
        hard["cross_r"],
        hard["intra_r"],
        hard["cross_v"],
        GroundTruth(ids_v, ids_r),
        include_self=not args.exclude_self,
    )
    write_json(args.out, report.to_dict())
    return 0


def _cmd_loss_report(args) -> int:
    cfg = _load_config(args)
    fv = read_features(args.features_v, Modality.VISIBLE)
    fr = read_features(args.features_r, Modality.INFRARED)
    labels = {}
    for name in _LABEL_FILES:
        hard, soft = read_labels(getattr(args, f"labels_{name}"))
        if soft is None:
            raise XmodError(f"label file for {name} has no soft columns")
        labels[name] = (hard, soft)
    banks = ModeBanks(
        mode=TrainingMode(args.mode),
        intra_v=MemoryBank(read_features(args.bank_intra_v, Modality.VISIBLE).data),
        intra_r=MemoryBank(read_features(args.bank_intra_r, Modality.INFRARED).data),
        shared=MemoryBank(read_features(args.bank_shared, Modality.VISIBLE).data),
        intra_cross=MemoryBank(read_features(args.bank_intra_cross, Modality.VISIBLE).data),
    )
    valid_v = (labels["intra_v"][0] >= 0) & (labels["cross_v"][0] >= 0)
    valid_r = (labels["intra_r"][0] >= 0) & (labels["cross_r"][0] >= 0)
    idx_v = np.flatnonzero(valid_v)
    idx_r = np.flatnonzero(valid_r)
    n = min(idx_v.shape[0], idx_r.shape[0])
    if n == 0:
        raise XmodError("no labeled instances to report on")
    reports = []
    for start in range(0, n, cfg.batch_size):
        pick_v = idx_v[start : min(start + cfg.batch_size, n)]
        pick_r = idx_r[start : min(start + cfg.batch_size, n)]
        batch = Batch(
            features_v=fv.data[pick_v],
            features_r=fr.data[pick_r],
            intra_v=labels["intra_v"][1][pick_v],
            cross_v=labels["cross_v"][1][pick_v],
            intra_r=labels["intra_r"][1][pick_r],
            cross_r=labels["cross_r"][1][pick_r],
        )
        reports.append(loss_report(batch, banks, cfg.tau, cfg.sharpen_divisor))
    write_json(args.out, mean_reports(reports).to_dict())
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    # Ground-truth split needs the visible instance count from epoch 0.
    from .pipeline import discover_snapshots

    epochs = discover_snapshots(args.snapshots)
    first_v = read_features(epochs[0][1], Modality.VISIBLE)
    ids_v, ids_r = read_ground_truth(args.gt, first_v.n)
    run_trace(args.snapshots, cfg, GroundTruth(ids_v, ids_r), out_path=args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmod", description="cross-modality pseudo-label association toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-modality dataset")
    p.add_argument("--ids", type=int, required=True)
    p.add_argument("--per-id-v", type=int, default=20)
    p.add_argument("--per-id-r", type=int, default=20)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--std", type=float, default=0.05)
    p.add_argument("--gap", type=float, default=0.0)
    p.add_argument("--gap-mode", choices=[m.value for m in GapMode], default="shared")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("cluster", help="density-cluster one feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--min-samples", type=int)
    p.add_argument("--metric", choices=sorted(_METRICS), default="euclidean")
    p.add_argument("--config")
    p.add_argument("--out-labels", required=True)
    p.add_argument("--out-prototypes", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser(
        "associate",
        help="produce cross-modality pseudo-labels",
        description=(
            "Cluster both feature files and produce cross-modality pseudo-labels. "
            "The clustering is done here, with DBSCAN at the config's dbscan_eps and "
            "dbscan_min_samples and the Euclidean metric; the files written by "
            "'xmod cluster' are not read. To associate over the same clusters that "
            "'xmod cluster' wrote, give both commands those values through --config "
            "and cluster with the Euclidean metric."
        ),
    )
    p.add_argument("--features-v", required=True)
    p.add_argument("--features-r", required=True)
    p.add_argument("--method", choices=["mult", "otla", "greedy"], default="mult")
    p.add_argument("--direction", choices=[d.value for d in Direction], default="both")
    p.add_argument("--config")
    p.add_argument("--trace", help="directory for per-iteration disagreement JSONs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_associate)

    p = sub.add_parser("eval", help="score label files against ground truth")
    for name in _LABEL_FILES:
        p.add_argument(f"--labels-{name.replace('_', '-')}", required=True,
                       dest=f"labels_{name}")
    p.add_argument("--gt", required=True)
    p.add_argument("--exclude-self", action="store_true",
                   help="drop i == j pairs from the intra metrics")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("loss-report", help="forward loss components for one pass")
    p.add_argument("--features-v", required=True)
    p.add_argument("--features-r", required=True)
    for name in _LABEL_FILES:
        p.add_argument(f"--labels-{name.replace('_', '-')}", required=True,
                       dest=f"labels_{name}")
    p.add_argument("--bank-intra-v", required=True)
    p.add_argument("--bank-intra-r", required=True)
    p.add_argument("--bank-shared", required=True)
    p.add_argument("--bank-intra-cross", required=True)
    p.add_argument("--mode", choices=[m.value for m in TrainingMode], required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_loss_report)

    p = sub.add_parser("pipeline", help="score a directory of epoch snapshots")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except XmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
