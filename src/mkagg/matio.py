"""Binary matrix files shared by every pipeline stage.

Layout (all integers little-endian):

    bytes 0-3    magic tag ("MKDS" descriptors, "MKCB" codebook,
                 "MKVC" aggregated vector, "MKRT" rotation matrix)
    bytes 4-7    u32 format version, currently 1
    bytes 8-15   u64 row count
    bytes 16-23  u64 column count
    then         rows * cols float32 values, row-major

Payloads are float32, so a write/read round-trip is bit-exact for float32
data. The dtype and byte order are fixed so files interoperate with
implementations in other languages. A write that fails midway removes its
file, so no partial file is left behind (a killed process can still leave
one: writing beside the target and renaming it into place would close that
gap, but costs a new inode and a flush per file).
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .types import (
    BadMagicError,
    BadVersionError,
    DimensionOverflowError,
    TruncatedFileError,
)

MAGIC_DESCRIPTORS = b"MKDS"
MAGIC_CODEBOOK = b"MKCB"
MAGIC_VECTOR = b"MKVC"
MAGIC_ROTATION = b"MKRT"

FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIQQ")
HEADER_SIZE = _HEADER.size  # 24 bytes

# Guard against absurd headers before attempting a huge allocation.
_MAX_ELEMENTS = 1 << 40


@dataclass(frozen=True)
class MatrixHeader:
    magic: bytes
    version: int
    rows: int
    cols: int


def _write_whole(path: str | Path, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path``; if that fails midway, remove the file, so
    that an error mid-write leaves no partial file."""
    fh = open(path, "wb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        raise


def write_text_file(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8; an error mid-write leaves no file."""
    _write_whole(path, text.encode("utf-8"))


def write_matrix_file(path: str | Path, magic: bytes, matrix: np.ndarray) -> None:
    """Write ``matrix`` under the given 4-byte magic tag."""
    if len(magic) != 4:
        raise ValueError("magic tag must be exactly 4 bytes")
    mat = np.ascontiguousarray(matrix, dtype="<f4")
    if mat.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix must contain only finite values")
    header = _HEADER.pack(bytes(magic), FORMAT_VERSION, mat.shape[0], mat.shape[1])
    _write_whole(path, header, mat.tobytes())


def read_matrix_file(path: str | Path, expected_magic: bytes) -> tuple[np.ndarray, MatrixHeader]:
    """Read a matrix file, checking its magic tag, and return (matrix, header)."""
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_SIZE)
        if len(raw) < HEADER_SIZE:
            raise TruncatedFileError(f"{path}: header requires {HEADER_SIZE} bytes, file has {len(raw)}")
        magic, version, rows, cols = _HEADER.unpack_from(raw)
        if magic != bytes(expected_magic):
            raise BadMagicError(f"{path}: magic is {magic!r}, expected {bytes(expected_magic)!r}")
        if version != FORMAT_VERSION:
            raise BadVersionError(f"{path}: version is {version}, expected {FORMAT_VERSION}")
        if rows > _MAX_ELEMENTS:
            raise DimensionOverflowError(f"{path}: rows field {rows} overflows the supported range")
        if cols > _MAX_ELEMENTS:
            raise DimensionOverflowError(f"{path}: cols field {cols} overflows the supported range")
        count = rows * cols
        if count > _MAX_ELEMENTS:
            raise DimensionOverflowError(f"{path}: rows*cols = {count} overflows the supported range")
        payload = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        if payload != 4 * count:
            raise TruncatedFileError(
                f"{path}: payload holds {payload // 4} float32 values, header promises {count}"
            )
        # Read the payload straight into the matrix, with no bytes copy of it.
        mat = np.empty((rows, cols), dtype="<f4")
        if fh.readinto(mat) != 4 * count:
            raise TruncatedFileError(f"{path}: file ended before its {count} float32 values")
    return mat, MatrixHeader(magic=magic, version=version, rows=rows, cols=cols)


def save_vector(path: str | Path, vec: np.ndarray) -> None:
    """Persist a 1-D aggregate vector as a single-row MKVC matrix."""
    write_matrix_file(path, MAGIC_VECTOR, np.asarray(vec).reshape(1, -1))


def load_vector(path: str | Path) -> np.ndarray:
    mat, header = read_matrix_file(path, MAGIC_VECTOR)
    if header.rows != 1 and header.cols != 1:
        raise DimensionOverflowError(
            f"{path}: vector file must have one row or one column, got {header.rows}x{header.cols}"
        )
    return mat.reshape(-1).astype(np.float64)
