"""Command-line interface.

Subcommands: synth, cluster, associate, eval, loss-report, pipeline.
cluster, associate, loss-report and pipeline read their settings from an
optional ``--config`` JSON object whose keys are PipelineConfig fields; an
unknown key or a value of the wrong type exits 2; no flag overrides
it. synth's flags each set one SynthSpec field, and ``--seed`` belongs to
synth alone: nothing after generation draws random numbers.
Exit codes: 0 success, 1 usage errors, 2 data, parameter or file errors
(XmodError, ValueError, OSError); anything else is a bug and propagates.
The CLI raises nothing of its own: a command parses, reads, calls the library
and writes, and every check of the data lives in the library function that
indexes it, so a failing command has raised before its first write. Output
files are written atomically (temp file + rename). The XMOD_THREADS
environment variable caps BLAS worker threads; the package __init__ applies
it, since that runs before anything imports numpy.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys

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
from .losses import ModeBanks, TrainingMode, loss_report, mean_reports, pass_batches
from .metrics import GroundTruth, report_from_hard
from .pipeline import discover_snapshots, run_trace
from .synth import GapMode, SynthSpec, generate
from .transfer import DIRECTIONS, LABELS, mult_associate

_METRICS = {"euclidean": DistanceMetric.EUCLIDEAN, "jaccard": DistanceMetric.JACCARD_DISTANCE}


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = cfg.with_overrides(json.load(fh))
    return cfg


def _cmd_synth(args) -> int:
    fields = {f.name for f in dataclasses.fields(SynthSpec)}
    visible, infrared, gt = generate(
        SynthSpec(**{name: value for name, value in vars(args).items() if name in fields})
    )
    os.makedirs(args.out, exist_ok=True)
    write_features(os.path.join(args.out, "visible.mfv1"), visible)
    write_features(os.path.join(args.out, "infrared.mfv1"), infrared)
    write_ground_truth(os.path.join(args.out, "ground_truth.csv"), gt.ids_v, gt.ids_r)
    return 0


def _cmd_cluster(args) -> int:
    cfg = _load_config(args)
    features = read_features(args.features, Modality.VISIBLE)
    assign = dbscan(
        features, cfg.dbscan_eps, cfg.dbscan_min_samples, _METRICS[args.metric], kappa=cfg.kappa
    )
    bank = centroids(features, assign)
    write_labels(args.out_labels, assign.labels)
    write_features(args.out_prototypes, bank.prototypes)
    return 0


def _cmd_associate(args) -> int:
    if args.trace and args.method != "mult":
        print(f"error: --trace is for --method mult only, not {args.method}", file=sys.stderr)
        return 1
    cfg = _load_config(args)
    fv = read_features(args.features_v, Modality.VISIBLE)
    fr = read_features(args.features_r, Modality.INFRARED)
    assign_v = dbscan(fv, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
    assign_r = dbscan(fr, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
    tags = list(DIRECTIONS) if args.direction == "both" else [args.direction]
    if args.method == "mult":
        result = mult_associate(fv, fr, assign_v, assign_r, cfg,
                                collect_trace=tags if args.trace else ())
    elif args.method == "otla":
        result = associate_otla_only(fv, fr, assign_v, assign_r, cfg)
    else:
        result = associate_greedy_centroid(fv, fr, assign_v, assign_r, cfg)
    os.makedirs(args.out, exist_ok=True)
    for name in (name for tag in tags for name in DIRECTIONS[tag]):
        write_labels(os.path.join(args.out, f"{name}.csv"), result.hard(name), result.soft(name))
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        for tag in tags:
            entries = result.traces[tag]
            # A longer earlier run of this direction must not leave its later steps.
            stale = re.compile(rf"{tag}_t\d{{3,}}\.json")
            for name in os.listdir(args.trace):
                if stale.fullmatch(name):
                    os.remove(os.path.join(args.trace, name))
            # Zero-padded to the last step's width, so names sort in step order.
            width = max(3, len(str(entries[-1]["t"])))
            for entry in entries:
                path = os.path.join(args.trace, f"{tag}_t{entry['t']:0{width}d}.json")
                write_json(path, entry)
    return 0


def _cmd_eval(args) -> int:
    hard = {name: read_labels(getattr(args, f"labels_{name}"), soft=False)[0]
            for name in LABELS}
    n_visible = hard["intra_v"].shape[0]
    ids_v, ids_r = read_ground_truth(args.gt, n_visible)
    report = report_from_hard(hard, GroundTruth(ids_v, ids_r), include_self=not args.exclude_self)
    write_json(args.out, report.to_dict())
    return 0


def _cmd_loss_report(args) -> int:
    cfg = _load_config(args)
    fv = read_features(args.features_v, Modality.VISIBLE)
    fr = read_features(args.features_r, Modality.INFRARED)
    labels = {name: read_labels(getattr(args, f"labels_{name}")) for name in LABELS}
    banks = ModeBanks(
        mode=TrainingMode(args.mode),
        intra_v=MemoryBank(read_features(args.bank_intra_v, Modality.VISIBLE).data),
        intra_r=MemoryBank(read_features(args.bank_intra_r, Modality.INFRARED).data),
        shared=MemoryBank(read_features(args.bank_shared, Modality.VISIBLE).data),
        intra_cross=MemoryBank(read_features(args.bank_intra_cross, Modality.VISIBLE).data),
    )
    batches = pass_batches(fv, fr, labels, cfg.batch_size)
    reports = [loss_report(b, banks, cfg.tau, cfg.sharpen_divisor) for b in batches]
    write_json(args.out, mean_reports(reports).to_dict())
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    # Ground-truth split needs the visible instance count from epoch 0.
    epochs = discover_snapshots(args.snapshots)
    first_v = read_features(epochs[0][1], Modality.VISIBLE)
    ids_v, ids_r = read_ground_truth(args.gt, first_v.n)
    run_trace(args.snapshots, cfg, GroundTruth(ids_v, ids_r), out_path=args.out)
    return 0


def _add_label_args(p) -> None:
    for name in LABELS:
        p.add_argument(f"--labels-{name.replace('_', '-')}", required=True,
                       dest=f"labels_{name}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmod", description="cross-modality pseudo-label association toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag not given stays out of args, so SynthSpec's default holds.
    p = sub.add_parser("synth", help="generate a synthetic two-modality dataset",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--ids", type=int, required=True, dest="num_ids")
    p.add_argument("--per-id-v", type=int)
    p.add_argument("--per-id-r", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--separation", type=float, dest="id_separation")
    p.add_argument("--std", type=float, dest="blob_std")
    p.add_argument("--gap", type=float, dest="modality_gap")
    p.add_argument("--gap-mode", type=GapMode, metavar="{%s}" % ",".join(m.value for m in GapMode))
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("cluster", help="density-cluster one feature file")
    p.add_argument("--features", required=True)
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
            "'xmod cluster' are not read. Given the same --config, 'xmod cluster' "
            "runs the same DBSCAN and finds the same clusters, unless it is run "
            "with --metric jaccard. --trace works with --method mult only: the "
            "baselines run no transfer iterations."
        ),
    )
    p.add_argument("--features-v", required=True)
    p.add_argument("--features-r", required=True)
    p.add_argument("--method", choices=["mult", "otla", "greedy"], default="mult")
    p.add_argument("--direction", choices=[*DIRECTIONS, "both"], default="both",
                   help="which direction's label files (and --trace files) to write; "
                   "both directions are always computed, since they share the plan, "
                   "the graphs and the composites, but only these are traced")
    p.add_argument("--config")
    p.add_argument("--trace", help="directory for per-iteration disagreement JSONs "
                   "(--method mult only)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_associate)

    p = sub.add_parser(
        "eval",
        help="score label files' hard labels against ground truth; soft columns are not read",
        description=(
            "Score the hard labels of four label files against ground truth. "
            "Soft columns are checked for their count but not read."
        ),
    )
    _add_label_args(p)
    p.add_argument("--gt", required=True)
    p.add_argument("--exclude-self", action="store_true",
                   help="drop i == j pairs from the intra metrics")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("loss-report", help="forward loss components for one pass")
    p.add_argument("--features-v", required=True)
    p.add_argument("--features-r", required=True)
    _add_label_args(p)
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
    except (XmodError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
