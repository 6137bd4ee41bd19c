"""On-disk formats: MFV1 feature files, label/ground-truth CSVs, report JSON.

MFV1 layout: magic ``MFV1``, then u32-LE N, u32-LE d, then N*d little-endian
float32 values row-major. All writes go through a temp file + rename so
readers never observe partial files.

CSV dialect: comma-separated, unquoted fields; xmod writes LF line ends and
reads LF or CRLF. A quote anywhere in a file is an ``XmodError`` naming
its line, since no field xmod writes needs one. Integers must fit int64;
a label file's soft columns are named exactly ``p0..p{K-1}``, in order, and
a ground-truth file's header is exactly ``index,identity``.
"""
from __future__ import annotations

import json
import os
import struct

import numpy as np

from .core import NOISE, FeatureMatrix, Modality, XmodError, feature_data

_MAGIC = b"MFV1"
_HEADER = struct.Struct("<4sII")


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a same-directory temp file + rename.

    The temp file is created with mode 0666, which the kernel reduces by the
    umask, so the file gets the mode ``open`` would give it.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".xmod-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
        raise XmodError(f"feature payload must be 2-d, got shape {data.shape}")
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
        raise XmodError(f"{path}: truncated header")
    magic, n, d = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise XmodError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 4 * n * d
    if len(blob) != expected:
        raise XmodError(f"{path}: expected {expected} bytes for {n}x{d}, got {len(blob)}")
    raw = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(n, d)
    return FeatureMatrix.from_raw(raw, modality)


def _write_csv(path, header: list[str], rows: list[str]) -> None:
    """Write ``header`` and the already-joined ``rows``, one per LF-ended line."""
    atomic_write_text(path, "\n".join([",".join(header), *rows, ""]))


def write_labels(path, hard: np.ndarray, soft: np.ndarray | None = None) -> None:
    """Label CSV: ``index,hard_label`` plus optional ``p0..p{K-1}`` columns.

    Rows without a label (hard == NOISE) get all-zero soft columns. Soft
    values are written with ``repr`` so they read back bit for bit; a
    non-finite one raises ``XmodError`` before anything is written,
    since ``read_labels`` would reject the file.
    """
    hard = np.asarray(hard).astype(np.int64).tolist()
    header = ["index", "hard_label"]
    soft_rows = [()] * len(hard)
    if soft is not None:
        soft = np.asarray(soft, dtype=np.float64)
        if soft.shape[0] != len(hard):
            raise XmodError("soft label row count does not match hard labels")
        finite = np.isfinite(soft).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise XmodError(f"{path}: non-finite soft label in row {row}")
        header += [f"p{k}" for k in range(soft.shape[1])]
        soft_rows = soft.tolist()
    rows = [",".join([f"{i},{h}", *map(repr, values)])
            for i, (h, values) in enumerate(zip(hard, soft_rows))]
    _write_csv(path, header, rows)


def _indexed_rows(path, column: str, soft_columns: bool = False):
    """Yield (line, value, rest) for each data row of an
    ``index,<column>[,...]`` CSV; ``rest`` is the unsplit text after the
    second field, or None when the header has two fields.

    Blank rows are skipped. Every other row has the header's field count, an
    integer index counting 0..N-1 in order and an int64 value; errors name
    the file and line. ``soft_columns`` allows later fields, named exactly
    p0..p{K-1}; without it the header is exactly ``index,<column>``.
    """
    with open(path) as fh:
        text = fh.read()
    if '"' in text:
        line = text.count("\n", 0, text.index('"')) + 1
        raise XmodError(f"{path}: line {line} has a quote; xmod CSVs are unquoted")
    lines = text.split("\n")
    header = lines[0].split(",")
    if header[:2] != ["index", column] or (len(header) > 2 and not soft_columns):
        raise XmodError(f"{path}: expected an index,{column} header")
    if soft_columns and header[2:] != [f"p{k}" for k in range(len(header) - 2)]:
        raise XmodError(f"{path}: expected soft columns p0..p{len(header) - 3} after {column}")
    commas = len(header) - 1
    expected = 0
    for line, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if row.count(",") != commas:
            raise XmodError(
                f"{path}: line {line} has {row.count(',') + 1} fields, the header {len(header)}"
            )
        fields = row.split(",", 2)
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise XmodError(f"{path}: line {line} needs an integer index and {column}") from None
        if not -2**63 <= value < 2**63:
            raise XmodError(f"{path}: {column} {value} at line {line} does not fit int64")
        if index != expected:
            raise XmodError(f"{path}: non-contiguous index at line {line}")
        expected += 1
        yield line, value, fields[2] if commas > 1 else None


def read_labels(path, soft: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Return (hard, soft-or-None); soft values must be finite.

    A hard label is NOISE or a cluster id, which must be below the soft
    column count when the file has soft columns. ``soft=False`` checks every
    row's structure and hard label but leaves the soft columns unparsed and
    returns None for them.
    """
    hard, values, lines = [], [], []
    for line, label, rest in _indexed_rows(path, "hard_label", soft_columns=True):
        if label < NOISE:
            raise XmodError(f"{path}: hard label {label} below {NOISE} at line {line}")
        if rest is not None and label >= rest.count(",") + 1:
            raise XmodError(f"{path}: hard label {label} at line {line} has no soft column")
        hard.append(label)
        if soft and rest is not None:
            lines.append(line)
            try:
                values.extend(map(float, rest.split(",")))
            except ValueError:
                raise XmodError(f"{path}: non-numeric soft label at line {line}") from None
    if not hard:
        raise XmodError(f"{path}: no label rows")
    hard_arr = np.asarray(hard, dtype=np.int64)
    if not lines:
        return hard_arr, None
    soft_arr = np.asarray(values, dtype=np.float64).reshape(len(lines), -1)
    finite = np.isfinite(soft_arr).all(axis=1)
    if not finite.all():
        raise XmodError(f"{path}: non-finite soft label at line {lines[int(np.argmin(finite))]}")
    return hard_arr, soft_arr


def write_ground_truth(path, ids_v: np.ndarray, ids_r: np.ndarray) -> None:
    """Ground-truth CSV ``index,identity`` over the concatenated instance index
    (visible rows 0..Nv-1, then infrared rows Nv..Nv+Nr-1)."""
    ids = [*np.asarray(ids_v).astype(np.int64).tolist(),
           *np.asarray(ids_r).astype(np.int64).tolist()]
    _write_csv(path, ["index", "identity"], [f"{i},{ident}" for i, ident in enumerate(ids)])


def read_ground_truth(path, n_visible: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the concatenated ground-truth CSV back into per-modality vectors."""
    ids = np.asarray([ident for _, ident, _ in _indexed_rows(path, "identity")],
                     dtype=np.int64)
    if ids.shape[0] < n_visible:
        raise XmodError(f"{path}: {ids.shape[0]} rows but {n_visible} visible instances expected")
    return ids[:n_visible], ids[n_visible:]


def write_json(path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

