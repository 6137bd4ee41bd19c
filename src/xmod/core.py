"""Core value types, configuration, and shared numeric helpers.

Everything downstream works on L2-normalized float64 feature rows and
row-stochastic soft label matrices. The types here are thin immutable
wrappers whose constructors enforce those invariants once, so the math
modules can assume them.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Sentinel for instances DBSCAN leaves unclustered. Kept negative so it can
# never collide with a cluster id.
NOISE = -1

# Row norms below this are treated as zero vectors.
_ZERO_NORM = 1e-12

# Tolerance for "already normalized" checks on ingestion.
_UNIT_TOL = 1e-6


class Modality(Enum):
    VISIBLE = "visible"
    INFRARED = "infrared"


class XmodError(Exception):
    """Every data and numeric error raised by this package."""


class NotConvergedWarning(RuntimeWarning):
    """Sinkhorn hit its iteration cap with the marginal error still large."""


def finite_matrix(m, what: str) -> np.ndarray:
    """Return ``m`` as a float64 array; raise XmodError unless it is a
    nonempty 2-d matrix of finite entries. ``what`` names it in the message."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise XmodError(f"{what} must be a nonempty 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise XmodError(f"non-finite value in {what} at ({i}, {j})")
    return m


def l2_normalize_rows(m) -> np.ndarray:
    """Return a float64 copy of ``m`` with unit-L2 rows.

    Raises XmodError if ``m`` is not a nonempty finite 2-d matrix or has a
    row with norm < 1e-12. Idempotent up to float rounding.
    """
    m = finite_matrix(m, "feature matrix")
    norms = np.linalg.norm(m, axis=1)
    small = norms < _ZERO_NORM
    if small.any():
        raise XmodError(f"row {np.flatnonzero(small)[0]} has (near-)zero L2 norm")
    return m / norms[:, None]


# float64 entries in one row block of the outer norm sum (256 KiB)
_DIST_BLOCK = 1 << 15


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``a`` and rows of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise XmodError(f"incompatible shapes {a.shape} and {b.shape}")
    # (|a|² + |b|²) − 2·(a·bᵀ) in the product's own array: a row block of
    # the outer norm sum at a time is the only other N×M storage, and each
    # entry rounds exactly as when the whole sum is formed first.
    norm_a, norm_b = (a * a).sum(axis=1), (b * b).sum(axis=1)
    sq = a @ b.T
    rows = max(1, _DIST_BLOCK // max(1, sq.shape[1]))
    outer = np.empty((min(rows, sq.shape[0]), sq.shape[1]))
    for lo in range(0, sq.shape[0], rows):
        part = sq[lo:lo + rows]
        total = outer[:part.shape[0]]
        np.add.outer(norm_a[lo:lo + rows], norm_b, out=total)
        part *= 2.0
        np.subtract(total, part, out=part)
    # Gram-trick rounding can leave tiny negatives on near-duplicate rows.
    np.maximum(sq, 0.0, out=sq)
    return sq


@dataclass(frozen=True)
class FeatureMatrix:
    """N x d float64 matrix with unit-L2 rows, tagged with its modality."""

    data: np.ndarray
    modality: Modality

    def __post_init__(self):
        d = finite_matrix(self.data, "feature matrix")
        norms = np.linalg.norm(d, axis=1)
        if not np.allclose(norms, 1.0, atol=_UNIT_TOL):
            raise XmodError("feature rows are not unit-normalized")
        object.__setattr__(self, "data", d)

    @classmethod
    def from_raw(cls, raw, modality: Modality) -> "FeatureMatrix":
        return cls(l2_normalize_rows(raw), modality)

    @property
    def n(self) -> int:
        return self.data.shape[0]


def feature_data(features) -> np.ndarray:
    """The row matrix of a FeatureMatrix, or any other array-like as an array."""
    return features.data if isinstance(features, FeatureMatrix) else np.asarray(features)


@dataclass(frozen=True)
class SoftLabelMatrix:
    """N x K row-stochastic matrix of per-instance label distributions."""

    probs: np.ndarray

    def __post_init__(self):
        p = finite_matrix(self.probs, "label matrix")
        if p.min() < -1e-9 or p.max() > 1.0 + 1e-9:
            raise XmodError("label entries outside [0, 1]")
        rows = p.sum(axis=1)
        if not np.allclose(rows, 1.0, atol=1e-6):
            bad = int(np.argmax(np.abs(rows - 1.0)))
            raise XmodError(f"label row {bad} sums to {rows[bad]:.9f}, expected 1")
        object.__setattr__(self, "probs", p)

    @classmethod
    def one_hot(cls, labels: np.ndarray, k: int) -> "SoftLabelMatrix":
        labels = np.asarray(labels)
        if labels.min() < 0 or labels.max() >= k:
            raise XmodError("hard labels outside [0, k)")
        p = np.zeros((labels.shape[0], k), dtype=np.float64)
        p[np.arange(labels.shape[0]), labels] = 1.0
        return cls(p)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def space_size(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class PipelineConfig:
    """Engine-wide knobs. Defaults are the operating point used throughout."""

    tau: float = 0.05              # memory softmax temperature
    kappa: int = 30                # k-reciprocal neighborhood size
    ot_lambda: float = 25.0        # entropic OT weight
    alpha: float = 0.2             # init-anchor weight in the transfer updates
    beta: float = 0.7              # hard-label share in label fusion
    dbscan_eps: float = 0.6
    dbscan_min_samples: int = 4
    epsilon0: float = 1e-2         # transfer convergence threshold
    max_transfer_iters: int = 100
    sharpen_divisor: float = 5.0   # target-temperature divisor in the refinement loss
    batch_size: int = 144          # 12 identities x 12 instances

    def __post_init__(self):
        # Values arrive from JSON configs; f.type is the annotation string.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                ok, kind = isinstance(value, numbers.Integral), "an integer"
            else:
                ok = isinstance(value, numbers.Real) and math.isfinite(value)
                kind = "a finite number"
            if isinstance(value, bool) or not ok:
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        if not (0.0 < self.tau):
            raise ValueError("tau must be positive")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.ot_lambda <= 0.0:
            raise ValueError("ot_lambda must be positive")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")
        if self.dbscan_eps <= 0.0 or self.dbscan_min_samples < 1:
            raise ValueError("bad clustering parameters")
        if self.epsilon0 <= 0.0 or self.max_transfer_iters < 1:
            raise ValueError("bad transfer loop parameters")
        if self.sharpen_divisor <= 0.0:
            raise ValueError("sharpen_divisor must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def with_overrides(self, overrides: dict) -> "PipelineConfig":
        """Apply a {field: value} dict whose keys are field names."""
        if not isinstance(overrides, dict):
            raise ValueError(f"config must be a JSON object, got {type(overrides).__name__}")
        names = {f.name for f in dataclasses.fields(self)}
        for key in overrides:
            if key not in names:
                raise ValueError(f"unknown config field {key!r}")
        return dataclasses.replace(self, **overrides)
