"""Post-aggregation normalization chain and the normalized similarity.

The chain is: optional rotation, signed power law, optional truncation to the
leading components, then l2 normalization. Comparing two vectors that went
through the chain with a dot product realizes the normalized kernel (unit
self-similarity).

A rotation's orthonormality is checked once per content within a process:
``NormalizeConfig`` remembers the SHA-256 digest of each rotation that passed
(at most ``_VALIDATED_CAP`` digests, no matrices) and skips the check for a
rotation with the same bytes. A rejection is never remembered.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .types import AggregateVector, ZeroVectorError

_ORTHO_TOL = 1e-6
# Bytes of R^T R that the orthonormality check holds at once.
_ORTHO_PANEL_BYTES = 2**19
# SHA-256 digests of the bytes of rotations that passed the check; a full set
# is cleared. Only non-empty square float32 or float64 matrices are hashed, and
# their byte length (4 n^2 or 8 m^2, never equal) fixes the dtype and shape.
_VALIDATED: set[bytes] = set()
_VALIDATED_CAP = 64


def _check_orthonormal(rot: np.ndarray) -> None:
    """Raise unless max |R^T R - I| <= _ORTHO_TOL; a NaN anywhere fails it."""
    # One panel of rows at a time, in place, so the check holds no D x D
    # temporary. A non-finite entry, or an overflow in the product, leaves
    # an inf or NaN in the panel and fails the comparison; the finiteness
    # test only picks the message.
    dim = rot.shape[1]
    step = max(1, _ORTHO_PANEL_BYTES // (8 * dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, dim, step):
            panel = rot[:, start : start + step].T @ rot
            panel[:, start : start + step][np.diag_indices(panel.shape[0])] -= 1.0
            if not np.max(np.abs(panel, out=panel)) <= _ORTHO_TOL:
                if not np.all(np.isfinite(rot)):
                    raise ValueError("rotation matrix must contain only finite values")
                raise ValueError("rotation matrix is not orthonormal")


@dataclass(frozen=True)
class NormalizeConfig:
    alpha_exponent: float = 0.5
    rotation: np.ndarray | None = None
    truncate_to: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha_exponent <= 1.0:
            raise ValueError("power-law exponent must lie in [0, 1]")
        if self.rotation is not None:
            src = np.asarray(self.rotation)
            # float32 and float64 bytes determine the float64 matrix exactly;
            # anything else (an object array's bytes are pointers) is keyed
            # after the cast.
            if src.dtype not in (np.float32, np.float64):
                src = src.astype(np.float64)
            src = np.ascontiguousarray(src)
            rot = np.ascontiguousarray(src, dtype=np.float64)
            if rot.ndim != 2 or rot.shape[0] != rot.shape[1] or rot.shape[0] == 0:
                raise ValueError("rotation must be a non-empty square matrix")
            key = hashlib.sha256(src).digest()
            if key not in _VALIDATED:
                _check_orthonormal(rot)
                if len(_VALIDATED) >= _VALIDATED_CAP:
                    _VALIDATED.clear()
                _VALIDATED.add(key)
            object.__setattr__(self, "rotation", rot)
        if self.truncate_to is not None and self.truncate_to < 1:
            raise ValueError("truncation size must be >= 1")


def power_law(v: np.ndarray, alpha_exponent: float) -> np.ndarray:
    """Elementwise signed power: a -> |a|^alpha * sign(a), with 0 -> 0.

    alpha = 1 is the identity and alpha = 0 binarizes to {-1, 0, 1}.
    """
    if alpha_exponent < 0.0:
        raise ValueError("power-law exponent must be >= 0")
    v = np.asarray(v, dtype=np.float64)
    # sign(0) = 0 also pins 0^0 to 0 here.
    return np.sign(v) * np.abs(v) ** alpha_exponent


def l2_normalize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ZeroVectorError("cannot l2-normalize a zero vector")
    return v / norm


def rn_fit(training_vectors: Sequence[AggregateVector], max_eigvecs: int | None = None) -> np.ndarray:
    """Learn a D x D rotation whose leading rows are principal directions.

    The rows are the right-singular vectors of the centered training vectors,
    in descending variance order. Every row has its sign fixed by making its
    largest-magnitude component positive. At most min(n - 1, D) rows are
    principal for n training vectors; the rows past the data's rank are the
    remaining right-singular vectors, an orthonormal basis of the complement
    as LAPACK returns it. ``max_eigvecs`` is accepted for compatibility and
    ignored.
    """
    if len(training_vectors) < 2:
        raise ValueError("need at least 2 training vectors")
    dim = training_vectors[0].dim
    for v in training_vectors:
        if v.dim != dim:
            raise ValueError("training vectors must share a single dimensionality")

    data = np.stack([v.xi for v in training_vectors])
    data = data - data.mean(axis=0)
    # With n < D only the full V is square; with n >= D the thin V already
    # is, and a full U would take n x n memory.
    _, _, vt = np.linalg.svd(data, full_matrices=data.shape[0] < dim)
    flip = vt[np.arange(dim), np.abs(vt).argmax(axis=1)] < 0.0
    vt[flip] *= -1.0
    return vt


def apply_chain(v: AggregateVector, cfg: NormalizeConfig) -> AggregateVector:
    """Rotation (optional) -> power law -> truncation (optional) -> l2."""
    x = v.xi
    state = v.state
    if cfg.rotation is not None:
        if cfg.rotation.shape[0] != x.shape[0]:
            raise ValueError(
                f"rotation is {cfg.rotation.shape[0]}-dimensional, vector is {x.shape[0]}"
            )
        x = cfg.rotation @ x
        state = state + ("rotated",)
    x = power_law(x, cfg.alpha_exponent)
    state = state + (f"power({cfg.alpha_exponent:g})",)
    if cfg.truncate_to is not None:
        if cfg.truncate_to > x.shape[0]:
            raise ValueError(f"cannot truncate length {x.shape[0]} to {cfg.truncate_to}")
        x = x[: cfg.truncate_to]
        state = state + (f"truncated({cfg.truncate_to})",)
    x = l2_normalize(x)
    return AggregateVector(xi=x, state=state + ("l2",))


def similarity(a: AggregateVector, b: AggregateVector) -> float:
    """Dot product of two l2-normalized aggregates (the normalized kernel)."""
    if not a.is_normalized or not b.is_normalized:
        raise ValueError("similarity requires l2-normalized vectors")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(a.xi @ b.xi)
