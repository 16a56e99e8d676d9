"""Generalized max pooling: ridge-regression weights for the aggregate.

The pooled vector is constrained to have a constant dot product with every
per-descriptor embedding. With ridge regularization the per-descriptor
weights have the closed form

    alpha = (K + lambda I)^-1 1

solved directly, one independent dense system per block (per centroid, or a
single block for a set without block structure). From an embedded set each
block is solved in whichever space is smaller: the n_k x n_k dual above, or
the w x w primal (R^T R + lambda I) xi = R^T 1 over the block's rows R, with
alpha = (1 - R xi) / lambda (the Woodbury identity). lambda interpolates
between the exact constant-match solution (lambda -> 0, where duplicated
descriptors stop counting twice) and plain sum pooling (lambda -> infinity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import AggregateVector, EmbeddedSet, KernelMatrix, WeightVector

# The primal side is taken only when lambda >= _PRIMAL_MARGIN * s, where
# s = n_k * max_i |r_i|^2 >= |R|^2. With u = 2^-53 and c a modest polynomial
# in n_k and w, a backward-stable solve of G xi = R^T 1, G = R^T R + lambda I,
# leaves |R^T 1 - G xi'| <= c u (s + lambda) |xi'|, forming G included. As
# alpha' = (1 - R xi') / lambda pools to xi' + (R^T 1 - G xi') / lambda and
# cond(G) <= s / lambda + 1, the pooled vector and xi' are both within
# c u (s / lambda + 1) |xi| of xi (rounding r_i . xi' adds the same order),
# and the margin 1e8 u keeps u s / lambda <= 1e-8. Below it 1 - R xi' cancels
# (a bow block, alpha = 1 / (n_k + lambda), reads 0 at lambda = 1e-17), so the
# dual, which solves for alpha without that cancellation, is taken instead.
_PRIMAL_MARGIN = 1e8 * 2.0**-53


@dataclass(frozen=True)
class GmpConfig:
    lam: float = 1.0

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lambda must be >= 0")


def _solve_dual(mat: np.ndarray, lam: float) -> np.ndarray:
    """(K + lambda I)^-1 1, or the minimum-norm least-squares solution where
    lambda = 0 or K + lambda I is singular in floating point (lambda below the
    rounding of the diagonal)."""
    shifted = mat + lam * np.eye(mat.shape[0])
    ones = np.ones(mat.shape[0])
    if lam > 0.0:
        try:
            return np.linalg.solve(shifted, ones)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(shifted, ones, rcond=None)[0]


def _solve_rows(rows: np.ndarray, lam: float) -> np.ndarray:
    """The GMP weights of one block from its n_k x w rows, in the smaller space."""
    n_k, w = rows.shape
    if n_k > w and lam > 0.0:
        scale = n_k * np.max(np.einsum("ij,ij->i", rows, rows))
        if lam >= _PRIMAL_MARGIN * scale:
            gram_w = rows.T @ rows
            gram_w.flat[:: w + 1] += lam
            xi = np.linalg.solve(gram_w, rows.sum(axis=0))
            return (1.0 - rows @ xi) / lam
    return _solve_dual(rows @ rows.T, lam)


def gmp_weights(source: KernelMatrix | EmbeddedSet, cfg: GmpConfig = GmpConfig()) -> WeightVector:
    """Solve (K + lambda I) alpha = 1 directly, one independent system per block.

    ``source`` is the kernel, or the embedded set itself, whose blocks are
    solved from their rows without building the kernel.
    """
    if isinstance(source, EmbeddedSet):
        if source.n == 0:
            raise ValueError("cannot compute weights for an empty set")
        parts = ((idx, _solve_rows(source.rows[idx], cfg.lam)) for _, idx in source.cells())
    else:
        parts = ((b.indices, _solve_dual(b.values, cfg.lam)) for b in source.blocks)
    alpha = np.empty(source.n)
    for idx, block_alpha in parts:
        alpha[idx] = block_alpha
    return WeightVector(alpha=alpha, method="gmp")


def aggregate_gmp(embedded: EmbeddedSet, weights: WeightVector) -> AggregateVector:
    """Weighted column sum of the embeddings under GMP weights."""
    if weights.method != "gmp":
        raise ValueError(f"expected gmp weights, got {weights.method!r}")
    return AggregateVector(xi=embedded.pool(weights.alpha), state=("raw",))
