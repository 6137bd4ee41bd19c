"""Where the traced run puts its spans, and the per-layer metrics it reads
from them.

The layers are the modules under src/xmod. A span is named
``<layer>.<function>`` after the module that defines the function; the hook
sits at the name the caller looks the function up by. ``core`` has no
boundary worth a span, so its cost shows as its callers' self time. ``synth``
and ``baselines`` run outside the timed operation and are timed directly.
"""
from __future__ import annotations

import os
from collections import defaultdict

from tracer import Hook, Span

MIB = float(1 << 20)
ROOT = "bench.op"
LAYERS = ("pipeline", "cli", "transfer", "transport", "affinity",
          "clustering", "losses", "metrics", "fileio")


def _clusters(info, args, kwargs, result):
    info.update(clusters=result.k, noise=int((result.labels == -1).sum()), n=result.n)


def _sinkhorn(info, args, kwargs, result):
    info.update(
        iters=result.iterations_used,
        converged=bool(result.converged),
        marginal_error=float(result.marginal_error),
        plan_bytes=result.plan.nbytes,
    )


def _transfer(info, args, kwargs, result):
    # One transfer_step is four matrix products with (n_src + n_tgt)^2 * K
    # multiply-adds between them: he_st, ho_src, he_ts and ho_tgt.
    state, aff = args[0], args[1]
    n_src, n_tgt = aff.he_st.shape
    k = state.intra.shape[1]
    steps = result.t - state.t
    info.update(iters=steps, cap_hit=bool(result.cap_hit),
                flop=steps * 2 * k * (n_src + n_tgt) ** 2)


def _file_bytes(info, args, kwargs, result):
    info["bytes"] = os.path.getsize(args[0])


def _cli_command(args) -> str:
    return "cli." + args[0][0].replace("-", "_")


HOOKS = (
    Hook("xmod.pipeline", "run_epoch", "pipeline.run_epoch"),
    Hook("xmod.pipeline", "dbscan", "clustering.dbscan", _clusters),
    Hook("xmod.pipeline", "centroids", "clustering.centroids"),
    Hook("xmod.pipeline", "mult_associate", "transfer.mult_associate"),
    Hook("xmod.pipeline", "loss_report", "losses.loss_report"),
    Hook("xmod.pipeline", "full_report", "metrics.full_report"),
    Hook("xmod.cli", "main", _cli_command),
    Hook("xmod.cli", "dbscan", "clustering.dbscan", _clusters),
    Hook("xmod.cli", "centroids", "clustering.centroids"),
    Hook("xmod.cli", "mult_associate", "transfer.mult_associate"),
    Hook("xmod.cli", "loss_report", "losses.loss_report"),
    Hook("xmod.cli", "report_from_hard", "metrics.report_from_hard"),
    Hook("xmod.cli", "read_features", "fileio.read_features"),
    Hook("xmod.cli", "read_labels", "fileio.read_labels", _file_bytes),
    Hook("xmod.cli", "write_labels", "fileio.write_labels", _file_bytes),
    Hook("xmod.cli", "write_features", "fileio.write_features"),
    Hook("xmod.cli", "write_json", "fileio.write_json"),
    Hook("xmod.cli", "read_ground_truth", "fileio.read_ground_truth"),
    Hook("xmod.transfer", "init_labels", "transfer.init_labels"),
    Hook("xmod.transfer", "centroids", "clustering.centroids"),
    Hook("xmod.transfer", "memory_probabilities", "clustering.memory_probabilities"),
    Hook("xmod.transfer", "otla_init", "transport.otla_init"),
    Hook("xmod.transfer", "homogeneous_affinity", "affinity.homogeneous_affinity"),
    Hook("xmod.transfer", "heterogeneous_affinity", "transport.heterogeneous_affinity"),
    Hook("xmod.transfer", "run_transfer", "transfer.run_transfer", _transfer),
    Hook("xmod.transfer", "transfer_step", "transfer.transfer_step"),
    Hook("xmod.transfer", "fuse_labels", "transfer.fuse_labels"),
    Hook("xmod.affinity", "k_reciprocal_sets", "affinity.k_reciprocal_sets"),
    Hook("xmod.affinity", "jaccard_affinity", "affinity.jaccard_affinity"),
    Hook("xmod.affinity", "row_normalize", "affinity.row_normalize"),
    Hook("xmod.transport", "heterogeneous_plan", "transport.heterogeneous_plan"),
    Hook("xmod.transport", "sinkhorn", "transport.sinkhorn", _sinkhorn),
    Hook("xmod.transport", "row_normalize", "affinity.row_normalize"),
)

# Name and unit of every per-layer metric, in output order.
PER_LAYER = (
    ("transport.sinkhorn_s", "s"),
    ("transport.sinkhorn_calls", "count"),
    ("transport.sinkhorn_iters", "count"),
    ("transport.sinkhorn_iters_max", "count"),
    ("transport.not_converged", "count"),
    ("transport.marginal_err_max", "L1"),
    ("transport.heterogeneous_s", "s"),
    ("transport.heterogeneous_calls", "count"),
    ("transport.otla_s", "s"),
    ("transport.plan_mib", "MiB"),
    ("transport.alloc_peak_mib", "MiB"),
    ("transport.self_s", "s"),
    ("transfer.associate_s", "s"),
    ("transfer.run_s", "s"),
    ("transfer.iters", "count"),
    ("transfer.cap_hit", "count"),
    ("transfer.step_s", "s"),
    ("transfer.init_s", "s"),
    ("transfer.fuse_s", "s"),
    ("transfer.gflop", "GFLOP"),
    ("transfer.alloc_peak_mib", "MiB"),
    ("transfer.self_s", "s"),
    ("affinity.homogeneous_s", "s"),
    ("affinity.homogeneous_calls", "count"),
    ("affinity.knn_sets_s", "s"),
    ("affinity.jaccard_s", "s"),
    ("affinity.row_normalize_s", "s"),
    ("affinity.alloc_peak_mib", "MiB"),
    ("affinity.self_s", "s"),
    ("clustering.dbscan_s", "s"),
    ("clustering.dbscan_calls", "count"),
    ("clustering.clusters", "count"),
    ("clustering.noise_frac", "frac"),
    ("clustering.centroids_s", "s"),
    ("clustering.self_s", "s"),
    ("fileio.write_labels_s", "s"),
    ("fileio.read_labels_s", "s"),
    ("fileio.read_features_s", "s"),
    ("fileio.label_mib_written", "MiB"),
    ("fileio.label_mib_read", "MiB"),
    ("fileio.self_s", "s"),
    ("cli.cluster_s", "s"),
    ("cli.associate_s", "s"),
    ("cli.eval_s", "s"),
    ("cli.loss_report_s", "s"),
    ("cli.self_s", "s"),
    ("losses.report_s", "s"),
    ("losses.batches", "count"),
    ("losses.self_s", "s"),
    ("metrics.report_s", "s"),
    ("metrics.self_s", "s"),
    ("pipeline.run_epoch_s", "s"),
    ("pipeline.self_s", "s"),
    ("synth.generate_s", "s"),
    ("baselines.otla_cross_acc", "frac"),
    ("baselines.greedy_cross_acc", "frac"),
    ("baselines.otla_s", "s"),
    ("baselines.greedy_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.op_s", "s"),
    ("trace.accounted_frac", "frac"),
    ("trace.op_alloc_peak_mib", "MiB"),
)

# Counts that depend only on the inputs; two runs with one seed must agree.
REPEATABLE = ("clustering.clusters", "transport.sinkhorn_iters",
              "transfer.iters", "fileio.label_mib_written")


def span_metrics(spans: list[Span], selfs: list[float], n_ops: int,
                 alloc_spans: list[Span]) -> dict:
    """Per-operation means (maxima for ``_max`` and ``alloc_peak``) over the
    spans of ``n_ops`` traced operations."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def busy(*names):
        return sum(s.duration for n in names for s in by_name[n]) / n_ops

    def calls(name):
        return len(by_name[name]) / n_ops

    def info_sum(name, key, scale=1.0):
        return sum(s.info[key] for s in by_name[name]) / scale / n_ops

    def info_max(name, key):
        return max((s.info[key] for s in by_name[name]), default=0)

    self_by_layer: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        self_by_layer[span.layer] += own
    alloc: dict[str, int] = defaultdict(int)
    for span in alloc_spans:
        alloc[span.layer] = max(alloc[span.layer], span.alloc_peak)
    sinkhorn = by_name["transport.sinkhorn"]
    dbscan = by_name["clustering.dbscan"]
    dbscan_n = sum(s.info["n"] for s in dbscan)
    op_s = busy(ROOT)

    out = {
        "transport.sinkhorn_s": busy("transport.sinkhorn"),
        "transport.sinkhorn_calls": calls("transport.sinkhorn"),
        "transport.sinkhorn_iters": info_sum("transport.sinkhorn", "iters"),
        "transport.sinkhorn_iters_max": info_max("transport.sinkhorn", "iters"),
        "transport.not_converged": sum(not s.info["converged"] for s in sinkhorn) / n_ops,
        "transport.marginal_err_max": info_max("transport.sinkhorn", "marginal_error"),
        "transport.heterogeneous_s": busy("transport.heterogeneous_affinity"),
        "transport.heterogeneous_calls": calls("transport.heterogeneous_affinity"),
        "transport.otla_s": busy("transport.otla_init"),
        "transport.plan_mib": info_sum("transport.sinkhorn", "plan_bytes", MIB),
        "transfer.associate_s": busy("transfer.mult_associate"),
        "transfer.run_s": busy("transfer.run_transfer"),
        "transfer.iters": info_sum("transfer.run_transfer", "iters"),
        "transfer.cap_hit": info_sum("transfer.run_transfer", "cap_hit"),
        "transfer.step_s": busy("transfer.transfer_step"),
        "transfer.init_s": busy("transfer.init_labels"),
        "transfer.fuse_s": busy("transfer.fuse_labels"),
        "transfer.gflop": info_sum("transfer.run_transfer", "flop", 1e9),
        "affinity.homogeneous_s": busy("affinity.homogeneous_affinity"),
        "affinity.homogeneous_calls": calls("affinity.homogeneous_affinity"),
        "affinity.knn_sets_s": busy("affinity.k_reciprocal_sets"),
        "affinity.jaccard_s": busy("affinity.jaccard_affinity"),
        "affinity.row_normalize_s": busy("affinity.row_normalize"),
        "clustering.dbscan_s": busy("clustering.dbscan"),
        "clustering.dbscan_calls": calls("clustering.dbscan"),
        "clustering.clusters": info_sum("clustering.dbscan", "clusters"),
        "clustering.noise_frac": sum(s.info["noise"] for s in dbscan) / dbscan_n if dbscan_n else 0.0,
        "clustering.centroids_s": busy("clustering.centroids"),
        "fileio.write_labels_s": busy("fileio.write_labels"),
        "fileio.read_labels_s": busy("fileio.read_labels"),
        "fileio.read_features_s": busy("fileio.read_features"),
        "fileio.label_mib_written": info_sum("fileio.write_labels", "bytes", MIB),
        "fileio.label_mib_read": info_sum("fileio.read_labels", "bytes", MIB),
        "cli.cluster_s": busy("cli.cluster"),
        "cli.associate_s": busy("cli.associate"),
        "cli.eval_s": busy("cli.eval"),
        "cli.loss_report_s": busy("cli.loss_report"),
        "losses.report_s": busy("losses.loss_report"),
        "losses.batches": calls("losses.loss_report"),
        "metrics.report_s": busy("metrics.full_report", "metrics.report_from_hard"),
        "pipeline.run_epoch_s": busy("pipeline.run_epoch"),
        "trace.op_s": op_s,
        "trace.accounted_frac": sum(self_by_layer[l] for l in LAYERS) / n_ops / op_s,
        "trace.op_alloc_peak_mib": alloc["bench"] / MIB,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer] / n_ops
    for layer in ("transport", "transfer", "affinity"):
        out[f"{layer}.alloc_peak_mib"] = alloc[layer] / MIB
    return out
