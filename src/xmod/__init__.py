"""Cross-modality pseudo-label association toolkit.

The XMOD_THREADS environment variable caps BLAS worker threads. BLAS reads
its thread count when numpy is first imported, so the cap is applied here,
before any submodule imports numpy.
"""

import os

_threads = os.environ.get("XMOD_THREADS", "").strip()
if _threads.isdigit() and int(_threads) > 0:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _threads)

from .core import (
    FeatureMatrix,
    Modality,
    NOISE,
    PipelineConfig,
    SoftLabelMatrix,
    XmodError,
    hard_from_soft,
    l2_normalize_rows,
)
from .clustering import ClusterAssignment, DistanceMetric, MemoryBank, centroids, dbscan
from .affinity import homogeneous_affinity
from .transport import TransportPlan, TransportProblem, heterogeneous_affinity, otla_init, sinkhorn
from .transfer import (
    AssociationResult,
    Direction,
    TransferState,
    fuse_labels,
    mult_associate,
    run_transfer,
)
from .losses import Batch, LossReport, ModeBanks, TrainingMode, loss_report
from .metrics import GroundTruth, MetricsReport, full_report, pair_accuracy, pair_recall
from .synth import GapMode, SplitMix64, SynthSpec, generate
from .baselines import associate_greedy_centroid, associate_otla_only
from .pipeline import EpochResult, run_epoch, run_trace

__version__ = "0.1.0"

__all__ = [
    "AssociationResult",
    "Batch",
    "ClusterAssignment",
    "Direction",
    "DistanceMetric",
    "EpochResult",
    "FeatureMatrix",
    "GapMode",
    "GroundTruth",
    "LossReport",
    "MemoryBank",
    "MetricsReport",
    "Modality",
    "ModeBanks",
    "NOISE",
    "PipelineConfig",
    "SoftLabelMatrix",
    "SplitMix64",
    "SynthSpec",
    "TrainingMode",
    "TransferState",
    "TransportPlan",
    "TransportProblem",
    "XmodError",
    "associate_greedy_centroid",
    "associate_otla_only",
    "centroids",
    "dbscan",
    "full_report",
    "fuse_labels",
    "generate",
    "hard_from_soft",
    "heterogeneous_affinity",
    "homogeneous_affinity",
    "l2_normalize_rows",
    "loss_report",
    "mult_associate",
    "otla_init",
    "pair_accuracy",
    "pair_recall",
    "run_epoch",
    "run_trace",
    "run_transfer",
    "sinkhorn",
]
