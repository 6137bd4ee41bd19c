"""Synthetic two-modality identity blobs on the unit sphere.

The generator is deliberately self-contained: a splitmix64 counter feeds
Box-Muller normals, so the same spec + seed reproduces the same bytes on
any platform with the same libm (and the algorithm is simple enough to port
for fixtures in other languages). Draw order is fixed and documented in
``generate``.

splitmix64 is a counter RNG, so ``normal_vector`` draws a whole block of
u64s in one wrapping ``np.uint64`` expression. Every array operation it uses
(the uint64 arithmetic, float ``*`` and ``sqrt``) is exact or correctly
rounded elementwise, so a block equals the scalar ``normal`` loop bit for
bit. The logarithm and cosine go through ``math.log`` and ``math.cos`` one
value at a time, as the scalar path does: ``np.log`` and ``np.cos`` may run
numpy's own SIMD kernels, which need not agree with libm (``np.log`` differs
from ``math.log`` in the last bit on some inputs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    FeatureMatrix,
    InfeasibleSeparationError,
    Modality,
    l2_normalize_rows,
)
from .metrics import GroundTruth

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GAMMA_U64, _MIX1_U64, _MIX2_U64 = (np.uint64(c) for c in (_GAMMA, _MIX1, _MIX2))

# Candidate draws allowed per identity center before giving up.
_MAX_CENTER_TRIES = 1000

# Center distances are summed in another order than np.linalg.norm sums them,
# which moves them by at most ~dim ulps. One within this relative distance of
# id_separation is recomputed with np.linalg.norm, so the decision is exact
# for any dim below ~10^6.
_TIE_RTOL = 1e-9


class GapMode(Enum):
    SHARED_OFFSET = "shared"     # one modality offset for every identity
    PER_ID_OFFSET = "per-id"     # an independent offset per identity


@dataclass(frozen=True)
class SynthSpec:
    num_ids: int
    per_id_v: int = 20
    per_id_r: int = 20
    dim: int = 32
    id_separation: float = 1.0   # min Euclidean distance between id centers
    blob_std: float = 0.05       # per-coordinate noise around the center
    modality_gap: float = 0.0    # norm of the infrared offset vector
    gap_mode: GapMode = GapMode.SHARED_OFFSET
    seed: int = 0

    def __post_init__(self):
        if self.num_ids < 1 or self.per_id_v < 1 or self.per_id_r < 1:
            raise ValueError("counts must be >= 1")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        for name in ("id_separation", "blob_std", "modality_gap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.id_separation < 0.0 or self.blob_std < 0.0 or self.modality_gap < 0.0:
            raise ValueError("scales must be nonnegative")
        if self.id_separation > 2.0:
            # Unit vectors are at most 2 apart; anything larger can never work.
            raise InfeasibleSeparationError(
                f"id_separation {self.id_separation} exceeds the sphere diameter"
            )


class SplitMix64:
    """splitmix64 counter RNG; uniform doubles use the top 53 bits.

    ``next_u64``, ``uniform`` and ``normal`` are the scalar reference;
    ``normal_vector`` draws the same stream in one batch.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def normal(self) -> float:
        """Box-Muller, cosine branch only: two uniforms per normal."""
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normal_vector(self, n: int) -> np.ndarray:
        """``n`` successive ``normal()`` draws, bit for bit, in one batch.

        Draw k of the stream is mix(state + (k+1)·γ mod 2⁶⁴), so the 2n
        uniforms come from one wrapping uint64 expression. If any u1 is 0.0,
        ``normal`` would redraw it; the scalar loop then runs instead, from
        the same state.
        """
        z = np.arange(1, 2 * n + 1, dtype=np.uint64) * _GAMMA_U64
        z += np.uint64(self._state)
        z ^= z >> 30
        z *= _MIX1_U64
        z ^= z >> 27
        z *= _MIX2_U64
        z ^= z >> 31
        u = (z >> 11).astype(np.float64) * (2.0 ** -53)
        u1, u2 = u[0::2], u[1::2]
        if not u1.all():
            return np.array([self.normal() for _ in range(n)], dtype=np.float64)
        self._state = (self._state + 2 * n * _GAMMA) & _MASK
        log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, n)
        cos_u2 = np.fromiter(map(math.cos, ((2.0 * math.pi) * u2).tolist()), np.float64, n)
        return np.sqrt(-2.0 * log_u1) * cos_u2


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _far_enough(candidate: np.ndarray, centers: np.ndarray, separation: float) -> bool:
    """Whether ``np.linalg.norm(candidate - c) >= separation`` for every row c
    of ``centers``; rows not placed yet are inf, so they never reject."""
    dist = np.linalg.norm(centers - candidate, axis=1)
    if (dist < separation * (1.0 - _TIE_RTOL)).any():
        return False
    close = np.flatnonzero(dist < separation * (1.0 + _TIE_RTOL))
    return all(np.linalg.norm(candidate - centers[i]) >= separation for i in close)


def _draw_centers(rng: SplitMix64, spec: SynthSpec) -> np.ndarray:
    # Every test works on all num_ids rows: numpy keeps freed small arrays
    # for reuse by size, so distance arrays growing one row per placed center
    # would each leave a block behind (~0.1 MiB at 120 identities).
    centers = np.full((spec.num_ids, spec.dim), np.inf)
    for g in range(spec.num_ids):
        for _ in range(_MAX_CENTER_TRIES):
            candidate = _unit(rng.normal_vector(spec.dim))
            if _far_enough(candidate, centers, spec.id_separation):
                centers[g] = candidate
                break
        else:
            raise InfeasibleSeparationError(
                f"could not place center {g} of {spec.num_ids} in dim {spec.dim} "
                f"with separation {spec.id_separation} after {_MAX_CENTER_TRIES} tries"
            )
    return centers


def _blob(rng: SplitMix64, bases: np.ndarray, per_id: int, blob_std: float) -> np.ndarray:
    """normalize(base + blob_std * noise) rows, ``per_id`` per base, in order.

    Each identity's noise is one ``per_id × dim`` draw, scaled and shifted in
    place; a draw for the whole modality would hold its u64s all at once.
    """
    num_ids, dim = bases.shape
    out = np.empty((num_ids * per_id, dim))
    for g in range(num_ids):
        rows = out[g * per_id:(g + 1) * per_id]
        np.multiply(rng.normal_vector(per_id * dim).reshape(per_id, dim), blob_std, out=rows)
        rows += bases[g]
    return l2_normalize_rows(out)


def generate(spec: SynthSpec) -> tuple[FeatureMatrix, FeatureMatrix, GroundTruth]:
    """Draw the dataset. Fixed draw order: identity centers first (rejected
    candidates consume draws), then the gap offset(s), then visible noise
    in instance order, then infrared noise in instance order.

    Every instance is normalize(center [+ gap] + blob_std * noise). With
    blob_std = 0 and modality_gap = 0 the two modalities are bitwise equal.
    """
    rng = SplitMix64(spec.seed)
    centers = _draw_centers(rng, spec)

    n_offsets = 1 if spec.gap_mode is GapMode.SHARED_OFFSET else spec.num_ids
    offsets = np.stack(
        [spec.modality_gap * _unit(rng.normal_vector(spec.dim)) for _ in range(n_offsets)]
    )

    # One offset row broadcasts to every identity; G rows pair up with the G centers.
    visible = _blob(rng, centers, spec.per_id_v, spec.blob_std)
    infrared = _blob(rng, centers + offsets, spec.per_id_r, spec.blob_std)

    ids_v = np.repeat(np.arange(spec.num_ids, dtype=np.int64), spec.per_id_v)
    ids_r = np.repeat(np.arange(spec.num_ids, dtype=np.int64), spec.per_id_r)
    return (
        FeatureMatrix(visible, Modality.VISIBLE),
        FeatureMatrix(infrared, Modality.INFRARED),
        GroundTruth(ids_v, ids_r),
    )
