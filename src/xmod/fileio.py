"""On-disk formats: MFV1 feature files, label/ground-truth CSVs, report JSON.

MFV1 layout: magic ``MFV1``, then u32-LE N, u32-LE d, then N*d little-endian
float32 values row-major. All writes go through a temp file + rename so
readers never observe partial files.
"""
from __future__ import annotations

import csv
import io
import json
import os
import struct
import tempfile

import numpy as np

from .core import FeatureMatrix, FileFormatError, Modality, feature_data

_MAGIC = b"MFV1"
_HEADER = struct.Struct("<4sII")


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a same-directory temp file + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".xmod-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_features(path, features) -> None:
    data = feature_data(features)
    if data.ndim != 2:
        raise FileFormatError(f"feature payload must be 2-d, got shape {data.shape}")
    n, d = data.shape
    payload = _HEADER.pack(_MAGIC, n, d) + np.ascontiguousarray(
        data, dtype="<f4"
    ).tobytes()
    atomic_write_bytes(path, payload)


def read_features(path, modality: Modality) -> FeatureMatrix:
    """Read an MFV1 file. Rows are re-normalized on ingestion (float32 rounding)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    magic, n, d = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 4 * n * d
    if len(blob) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes for {n}x{d}, got {len(blob)}"
        )
    raw = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(n, d)
    return FeatureMatrix.from_raw(raw, modality)


def write_labels(path, hard: np.ndarray, soft: np.ndarray | None = None) -> None:
    """Label CSV: ``index,hard_label`` plus optional ``p0..p{K-1}`` columns.

    Rows without a label (hard == NOISE) get all-zero soft columns.
    """
    hard = np.asarray(hard)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["index", "hard_label"]
    if soft is not None:
        soft = np.asarray(soft, dtype=np.float64)
        if soft.shape[0] != hard.shape[0]:
            raise FileFormatError("soft label row count does not match hard labels")
        header += [f"p{k}" for k in range(soft.shape[1])]
    writer.writerow(header)
    for i, h in enumerate(hard):
        row = [i, int(h)]
        if soft is not None:
            row += [repr(float(v)) for v in soft[i]]
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def read_labels(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Return (hard, soft-or-None); rows must be indexed 0..N-1 in order and
    soft values must be finite."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["index", "hard_label"]:
            raise FileFormatError(f"{path}: expected an index,hard_label header")
        has_soft = len(header) > 2
        hard, soft = [], []
        for lineno, row in enumerate(reader):
            if not row:
                continue
            if int(row[0]) != lineno:
                raise FileFormatError(f"{path}: non-contiguous index at line {lineno + 2}")
            hard.append(int(row[1]))
            if has_soft:
                soft.append([float(v) for v in row[2:]])
    if not hard:
        raise FileFormatError(f"{path}: no label rows")
    hard_arr = np.asarray(hard, dtype=np.int64)
    soft_arr = np.asarray(soft, dtype=np.float64) if has_soft else None
    if soft_arr is not None and not np.isfinite(soft_arr).all():
        row = int(np.argwhere(~np.isfinite(soft_arr))[0, 0])
        raise FileFormatError(f"{path}: non-finite soft label at line {row + 2}")
    return hard_arr, soft_arr


def write_ground_truth(path, ids_v: np.ndarray, ids_r: np.ndarray) -> None:
    """Ground-truth CSV ``index,identity`` over the concatenated instance index
    (visible rows 0..Nv-1, then infrared rows Nv..Nv+Nr-1)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "identity"])
    for i, ident in enumerate(list(np.asarray(ids_v)) + list(np.asarray(ids_r))):
        writer.writerow([i, int(ident)])
    atomic_write_text(path, buf.getvalue())


def read_ground_truth(path, n_visible: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the concatenated ground-truth CSV back into per-modality vectors."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["index", "identity"]:
            raise FileFormatError(f"{path}: expected an index,identity header")
        idents = []
        for lineno, row in enumerate(reader):
            if not row:
                continue
            if int(row[0]) != lineno:
                raise FileFormatError(f"{path}: non-contiguous index at line {lineno + 2}")
            idents.append(int(row[1]))
    if len(idents) < n_visible:
        raise FileFormatError(
            f"{path}: {len(idents)} rows but {n_visible} visible instances expected"
        )
    ids = np.asarray(idents, dtype=np.int64)
    return ids[:n_visible], ids[n_visible:]


def write_json(path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

