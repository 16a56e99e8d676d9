"""Construction and conditioning of the descriptor similarity kernel."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .types import EmbeddedSet, KernelMatrix

# Bytes of Gram blocks (n_k x n_k float64 per cell) that one part may hold,
# the same bound as the assignment's score chunks. A fixed bound on the
# working memory of per-part kernel consumers, not a setting.
_PART_BUDGET = 4 * 2**20


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


def parts(embedded: EmbeddedSet) -> Iterator[tuple[slice | np.ndarray, EmbeddedSet, bool]]:
    """Split the descriptors into parts whose Gram blocks fit ``_PART_BUDGET``.

    Cells are packed greedily in cell order: a cell joins the current part
    unless its block (8 n_k^2 bytes) would take the part over the budget, so
    a cell larger than the budget is a part of its own. Yields (ascending
    descriptor indices, the part's embedded set, whether its Gram blocks fit
    the budget); only a part of one cell over the budget does not fit, and it
    is scaled from its rows, every other part from its Gram. A set that is
    one part, a single cell over the budget included, is yielded whole as
    ``(slice(None), embedded, fits)``, with no gather. A weighting that
    treats each block on its own can then hold one part's Gram at a time.
    """
    sizes = (8 * np.bincount(embedded.assignment).astype(np.int64) ** 2).tolist()
    # (first cell, end cell, Gram bytes) of each part.
    bounds, first, used = [], 0, 0
    for k, size in enumerate(sizes):
        if used and used + size > _PART_BUDGET:
            bounds.append((first, k, used))
            first, used = k, 0
        used += size
    bounds.append((first, len(sizes), used))
    if len(bounds) == 1:
        yield slice(None), embedded, used <= _PART_BUDGET
        return
    for first, end, used in bounds:
        idx = np.flatnonzero((embedded.assignment >= first) & (embedded.assignment < end))
        part = EmbeddedSet._trusted(embedded.rows[idx], embedded.assignment[idx], embedded.c)
        yield idx, part, used <= _PART_BUDGET


def clip_negatives(kern: KernelMatrix) -> KernelMatrix:
    """Replace every negative entry by 0 (the usual Sinkhorn pre-processing)."""
    return KernelMatrix._trusted(kern.n, ((b.indices, np.maximum(b.values, 0.0)) for b in kern.blocks))
