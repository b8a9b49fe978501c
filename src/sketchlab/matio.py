"""Matrix and sketch file IO.

The native matrix format "SKLB1" is binary and lossless: 5 magic bytes
``SKLB1``, row and column counts as little-endian unsigned 64-bit
integers, then the row-major float64 payload.  Files ending in ``.csv``
are also accepted on read.  Sketches round-trip through JSON.
"""

import json
import struct
from pathlib import Path

import numpy as np

from .linalg import as_matrix
from .sketching import SparseSketch

MAGIC = b"SKLB1"
_HEADER = struct.Struct("<QQ")
_MAX_DIM = 2**40


class MatrixFormatError(ValueError):
    """Raised for bad magic, truncated payloads, dimension overflow, or a
    malformed sketch document."""


def write_matrix(path, a) -> None:
    """Write a matrix in the SKLB1 binary format (bit-exact round trip)."""
    a = as_matrix(a)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(a.shape[0], a.shape[1]))
        fh.write(a.astype("<f8", copy=False).tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    """Read a matrix from an SKLB1 file, or from CSV by extension.

    A file that does not hold a finite matrix raises
    :class:`MatrixFormatError` naming the path.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        try:
            return as_matrix(np.loadtxt(path, delimiter=",", ndmin=2))
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: not a finite CSV matrix ({exc})") from exc
    raw = path.read_bytes()
    if len(raw) < len(MAGIC) + _HEADER.size or raw[: len(MAGIC)] != MAGIC:
        raise MatrixFormatError(f"{path}: bad magic, not an SKLB1 file")
    rows, cols = _HEADER.unpack_from(raw, len(MAGIC))
    if rows < 1 or cols < 1 or rows > _MAX_DIM or cols > _MAX_DIM:
        raise MatrixFormatError(f"{path}: dimension overflow ({rows} x {cols})")
    payload = raw[len(MAGIC) + _HEADER.size:]
    expected = rows * cols * 8
    if len(payload) != expected:
        raise MatrixFormatError(
            f"{path}: truncated payload, expected {expected} bytes, "
            f"got {len(payload)}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
    try:
        return as_matrix(data)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc


def save_sketch(path, sketch: SparseSketch) -> None:
    """Persist a sparse sketch as JSON."""
    doc = {
        "m": sketch.m,
        "n": sketch.n,
        "s": sketch.s,
        "pattern": sketch.pattern.tolist(),
        "values": sketch.values.tolist(),
    }
    Path(path).write_text(json.dumps(doc))


def load_sketch(path) -> SparseSketch:
    """Load a sparse sketch saved by :func:`save_sketch`.

    A file that is not JSON, a document that is not an object, a missing
    field, or fields that do not form a valid sketch raise
    :class:`MatrixFormatError` naming the path.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MatrixFormatError(f"{path}: not a JSON sketch ({exc})") from exc
    if not isinstance(doc, dict):
        raise MatrixFormatError(
            f"{path}: sketch must be a JSON object, got {type(doc).__name__}")
    missing = [f for f in ("m", "n", "s", "pattern", "values") if f not in doc]
    if missing:
        raise MatrixFormatError(
            f"{path}: sketch lacks field(s) {', '.join(missing)}")
    try:
        return SparseSketch(doc["m"], doc["n"], doc["s"], doc["pattern"],
                            doc["values"])
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"{path}: invalid sketch ({exc})") from exc
