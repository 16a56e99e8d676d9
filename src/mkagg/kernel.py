"""Construction and conditioning of the descriptor similarity kernel."""

from __future__ import annotations

import numpy as np

from .types import EmbeddedSet, KernelMatrix


def gram(embedded: EmbeddedSet) -> KernelMatrix:
    """Pairwise similarity matrix K[i,j] = phi_i . phi_j, built block by block.

    Descriptors in different blocks have disjoint support, so their inner
    products are structurally zero and never computed. Block k is R_k R_k^T
    over the rows R_k of its descriptors; numpy evaluates that product as a
    symmetric rank-k update that mirrors one triangle into the other, so every
    block is exactly symmetric.
    """
    if embedded.n == 0:
        raise ValueError("cannot build a kernel for an empty set")
    blocks = []
    for _, idx in embedded.cells():
        sub = embedded.rows[idx]
        blocks.append((idx, sub @ sub.T))
    return KernelMatrix._trusted(embedded.n, blocks)


def _map_blocks(kern: KernelMatrix, fn) -> KernelMatrix:
    # ``fn`` maps a symmetric block to a new symmetric block of the same
    # shape, so the result keeps every invariant of the input kernel.
    return KernelMatrix._trusted(kern.n, ((b.indices, fn(b.values)) for b in kern.blocks))


def clip_negatives(kern: KernelMatrix) -> KernelMatrix:
    """Replace every negative entry by 0 (the usual Sinkhorn pre-processing)."""
    return _map_blocks(kern, lambda m: np.maximum(m, 0.0))


def threshold_sparsify(kern: KernelMatrix, tau: float) -> KernelMatrix:
    """Zero out off-diagonal entries smaller than ``tau``.

    The diagonal is exempt: removing self-similarities would break both
    weight solvers. ``tau = 0`` is a no-op.
    """
    if tau < 0.0:
        raise ValueError("threshold must be >= 0")
    if tau == 0.0:
        return kern

    def apply(mat: np.ndarray) -> np.ndarray:
        out = mat.copy()
        mask = out < tau
        np.fill_diagonal(mask, False)
        out[mask] = 0.0
        return out

    return _map_blocks(kern, apply)
