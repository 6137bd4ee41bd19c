"""Epoch-level orchestration: cluster, associate, score, and trace.

An epoch clusters both modalities, runs the transfer engine in both
directions, then computes the loss report for the epoch's training mode
(visible-based on even epochs, infrared-based on odd ones) and, when ground
truth is available, the metrics report.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .core import Modality, PipelineConfig, XmodError
from .clustering import ClusterAssignment, centroids, dbscan
from .fileio import atomic_write_text, read_features
from .losses import (
    LossReport, ModeBanks, TrainingMode, loss_report, mean_reports, pass_batches,
)
from .metrics import GroundTruth, MetricsReport, full_report
from .transfer import LABELS, AssociationResult, mult_associate

_SNAPSHOT_RE = re.compile(r"^epoch(\d{3}|[1-9]\d{3,})_(visible|infrared)\.mfv1$")


@dataclass(frozen=True)
class EpochResult:
    epoch: int
    mode: TrainingMode
    labels: AssociationResult
    losses: LossReport
    metrics: MetricsReport | None


def make_banks(
    mode: TrainingMode,
    features_v,
    features_r,
    assign_v: ClusterAssignment,
    assign_r: ClusterAssignment,
) -> ModeBanks:
    """Fresh banks for one epoch. The shared and intra-cross banks start as
    copies of the mode's source-modality prototypes."""
    intra_v = centroids(features_v, assign_v)
    intra_r = centroids(features_r, assign_r)
    source = intra_v if mode is TrainingMode.V_BASED else intra_r
    return ModeBanks(mode=mode, intra_v=intra_v, intra_r=intra_r,
                     shared=source, intra_cross=source)


def run_epoch(
    features_v, features_r, epoch_index: int, cfg: PipelineConfig, gt: GroundTruth | None = None
) -> EpochResult:
    assign_v = dbscan(features_v, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
    assign_r = dbscan(features_r, cfg.dbscan_eps, cfg.dbscan_min_samples, kappa=cfg.kappa)
    result = mult_associate(features_v, features_r, assign_v, assign_r, cfg)
    mode = TrainingMode.V_BASED if epoch_index % 2 == 0 else TrainingMode.R_BASED
    banks = make_banks(mode, features_v, features_r, assign_v, assign_r)
    labels = {name: (result.hard(name), result.soft(name)) for name in LABELS}
    batches = pass_batches(features_v, features_r, labels, cfg.batch_size)
    losses = mean_reports([loss_report(b, banks, cfg.tau, cfg.sharpen_divisor) for b in batches])
    metrics = full_report(result, gt) if gt is not None else None
    return EpochResult(epoch_index, mode, result, losses, metrics)


def discover_snapshots(snapshot_dir) -> list[tuple[int, str, str]]:
    """Find epochNNN_visible/infrared.mfv1 pairs, contiguous from 000; NNN
    has three digits, or as many as the epoch needs from 1000 on."""
    found: dict[int, dict[str, str]] = {}
    for name in os.listdir(snapshot_dir):
        m = _SNAPSHOT_RE.match(name)
        if m:
            epoch, modality = int(m.group(1)), m.group(2)
            found.setdefault(epoch, {})[modality] = os.path.join(snapshot_dir, name)
    if not found:
        raise XmodError("incomplete or missing snapshot pair for epoch 0: "
                        f"no epochNNN_*.mfv1 files in {snapshot_dir}")
    for epoch in range(max(found) + 1):
        pair = found.get(epoch, {})
        if "visible" not in pair or "infrared" not in pair:
            raise XmodError(f"incomplete or missing snapshot pair for epoch {epoch}")
    return [
        (epoch, found[epoch]["visible"], found[epoch]["infrared"])
        for epoch in sorted(found)
    ]


def _format_metric(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def trace_csv_text(rows: list[tuple[int, MetricsReport]]) -> str:
    """The trace CSV: a header, then one LF-ended line per epoch."""
    lines = [",".join([str(epoch)] + [_format_metric(getattr(report, n))
                                      for n in MetricsReport.NAMES])
             for epoch, report in rows]
    return "\n".join([",".join(("epoch",) + MetricsReport.NAMES), *lines, ""])


def run_trace(
    snapshot_dir, cfg: PipelineConfig, gt: GroundTruth, out_path=None
) -> list[tuple[int, MetricsReport]]:
    """Score every snapshot epoch; optionally write the trace CSV."""
    rows = []
    for epoch, path_v, path_r in discover_snapshots(snapshot_dir):
        fv = read_features(path_v, Modality.VISIBLE)
        fr = read_features(path_r, Modality.INFRARED)
        result = run_epoch(fv, fr, epoch, cfg, gt)
        rows.append((epoch, result.metrics))
    if out_path is not None:
        atomic_write_text(out_path, trace_csv_text(rows))
    return rows
