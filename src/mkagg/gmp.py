"""Generalized max pooling: ridge-regression weights for the aggregate.

The pooled vector is constrained to have a constant dot product with every
per-descriptor embedding. With ridge regularization the per-descriptor
weights have the closed form

    alpha = (K + lambda I)^-1 1

solved here by conjugate gradients, one independent system per kernel block
(per centroid, or a single block for a set without block structure).
lambda interpolates between the exact constant-match solution (lambda -> 0,
where duplicated descriptors stop counting twice) and plain sum pooling
(lambda -> infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import AggregateVector, ConvergenceError, EmbeddedSet, KernelMatrix, WeightVector


@dataclass(frozen=True)
class GmpConfig:
    lam: float = 1.0
    cg_tol: float = 1e-10
    cg_max_iter: int | None = None  # default 10x the solved system size

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lambda must be >= 0")
        if self.cg_tol <= 0.0:
            raise ValueError("cg_tol must be > 0")
        if self.cg_max_iter is not None and self.cg_max_iter < 1:
            raise ValueError("cg_max_iter must be >= 1")


def _cg(matvec, b: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Conjugate gradients for a positive-definite system, started from 0."""
    x = np.zeros_like(b)
    r = b.copy()
    rs = float(r @ r)
    if math.sqrt(rs) <= tol:
        return x
    p = r.copy()
    for _ in range(max_iter):
        ap = matvec(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise ConvergenceError(
                f"conjugate gradient broke down at residual {math.sqrt(rs):.3e}",
                residual=math.sqrt(rs),
            )
        step = rs / pap
        x += step * p
        r -= step * ap
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol:
            return x
        p *= rs_new / rs
        p += r
        rs = rs_new
    raise ConvergenceError(
        f"conjugate gradient did not converge: residual {math.sqrt(rs):.3e} > {tol:.3e} "
        f"after {max_iter} iterations",
        residual=math.sqrt(rs),
    )


def _cgls(matvec, b: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Minimum-norm least-squares solution of K x = b for symmetric PSD K.

    Starting from 0 keeps every iterate in the row space of K, so this
    converges to the pseudo-inverse solution without forming an SVD. The
    stopping test is on the least-squares optimality residual ||K r||.
    """
    x = np.zeros_like(b)
    r = b.copy()
    s = matvec(r)
    ss = float(s @ s)
    if math.sqrt(ss) <= tol:
        return x
    p = s.copy()
    for _ in range(max_iter):
        q = matvec(p)
        qq = float(q @ q)
        if qq <= 0.0:
            raise ConvergenceError(
                f"least-squares CG broke down at residual {math.sqrt(ss):.3e}",
                residual=math.sqrt(ss),
            )
        step = ss / qq
        x += step * p
        r -= step * q
        s = matvec(r)
        ss_new = float(s @ s)
        if math.sqrt(ss_new) <= tol:
            return x
        p *= ss_new / ss
        p += s
        ss = ss_new
    raise ConvergenceError(
        f"least-squares CG did not converge: residual {math.sqrt(ss):.3e} > {tol:.3e} "
        f"after {max_iter} iterations",
        residual=math.sqrt(ss),
    )


def _solve_system(mat: np.ndarray, cfg: GmpConfig) -> np.ndarray:
    m = mat.shape[0]
    b = np.ones(m)
    tol = cfg.cg_tol * math.sqrt(m)
    max_iter = cfg.cg_max_iter if cfg.cg_max_iter is not None else max(10 * m, 10)
    if cfg.lam > 0.0:
        return _cg(lambda v: mat @ v + cfg.lam * v, b, tol, max_iter)
    return _cgls(lambda v: mat @ v, b, tol, max_iter)


def gmp_weights(kern: KernelMatrix, cfg: GmpConfig = GmpConfig()) -> WeightVector:
    """Solve (K + lambda I) alpha = 1 by CG, one independent system per block."""
    alpha = np.empty(kern.n)
    for block in kern.blocks:
        alpha[block.indices] = _solve_system(block.values, cfg)
    return WeightVector(alpha=alpha, method="gmp")


def aggregate_gmp(embedded: EmbeddedSet, weights: WeightVector) -> AggregateVector:
    """Weighted column sum of the embeddings under GMP weights."""
    if weights.method != "gmp":
        raise ValueError(f"expected gmp weights, got {weights.method!r}")
    return AggregateVector(xi=embedded.pool(weights.alpha), state=("raw",))


def gmp_primal(embedded: EmbeddedSet, cfg: GmpConfig = GmpConfig(), dim_cap: int = 1024) -> AggregateVector:
    """Direct solve in embedding space: (Phi Phi^T + lambda I) xi = Phi 1.

    Only sensible when D is small; guarded by ``dim_cap``. Agrees with the
    weight-space path up to solver tolerance and serves as its cross-check.
    """
    if embedded.n == 0:
        raise ValueError("cannot aggregate an empty set")
    if embedded.dim > dim_cap:
        raise ValueError(f"embedding dimension {embedded.dim} exceeds the dense-solve cap {dim_cap}")
    phi = embedded.phi
    rhs = phi.sum(axis=1)
    if cfg.lam > 0.0:
        mat = phi @ phi.T + cfg.lam * np.eye(embedded.dim)
        xi = np.linalg.solve(mat, rhs)
    else:
        # Minimum-norm least-squares solution of Phi^T xi = 1.
        xi = np.linalg.lstsq(phi.T, np.ones(embedded.n), rcond=None)[0]
    return AggregateVector(xi=xi, state=("raw",))


def maxpool_oracle(embedded: EmbeddedSet, codebook_embeddings: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Sum of the distinct codewords present in the set.

    Requires every column of the embedding to match (within ``tol``) a column
    of the orthonormal codeword matrix. For such inputs the unregularized
    pooled vector depends only on which codewords occur, not how often, which
    makes this the reference for the count-invariance checks.
    """
    q = np.asarray(codebook_embeddings, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != embedded.dim:
        raise ValueError("codeword matrix must be D x c")
    gramq = q.T @ q
    if np.max(np.abs(gramq - np.eye(q.shape[1]))) > 1e-6:
        raise ValueError("codeword matrix must have orthonormal columns")

    present: set[int] = set()
    for i in range(embedded.n):
        dist = np.linalg.norm(q - embedded.phi[:, i : i + 1], axis=0)
        k = int(np.argmin(dist))
        if dist[k] > tol:
            raise ValueError(f"column {i} matches no codeword (distance {dist[k]:.3e})")
        present.add(k)
    return q[:, sorted(present)].sum(axis=1)
