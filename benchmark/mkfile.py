"""Reader and writer for the MK* matrix files, independent of ``mkagg.matio``.

The benchmark writes its inputs and reads the program's outputs with this
module, so that a change to the program's own file code can neither change
the inputs nor hide a wrong output. Layout (little-endian): 4-byte magic,
u32 version 1, u64 rows, u64 cols, then rows*cols float32 values, row-major.
"""

from __future__ import annotations

import struct

import numpy as np

HEADER = struct.Struct("<4sIQQ")
VERSION = 1


def write(path, magic: bytes, matrix: np.ndarray) -> None:
    mat = np.ascontiguousarray(matrix, dtype="<f4")
    if mat.ndim != 2:
        raise ValueError(f"{path}: matrix must be 2-D, got shape {mat.shape}")
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(magic, VERSION, mat.shape[0], mat.shape[1]))
        fh.write(mat.tobytes())


def read(path, magic: bytes) -> np.ndarray:
    """Return the payload as float64, shape (rows, cols)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER.size:
        raise ValueError(f"{path}: shorter than the {HEADER.size}-byte header")
    got, version, rows, cols = HEADER.unpack_from(raw)
    if got != magic or version != VERSION:
        raise ValueError(f"{path}: header {got!r} v{version}, expected {magic!r} v{VERSION}")
    if len(raw) != HEADER.size + 4 * rows * cols:
        raise ValueError(f"{path}: payload does not match {rows}x{cols}")
    return np.frombuffer(raw, dtype="<f4", offset=HEADER.size).reshape(rows, cols).astype(np.float64)


def read_vector(path) -> np.ndarray:
    mat = read(path, b"MKVC")
    if 1 not in mat.shape:
        raise ValueError(f"{path}: vector file holds a {mat.shape[0]}x{mat.shape[1]} matrix")
    return mat.reshape(-1)
