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


def fits(embedded: EmbeddedSet) -> bool:
    """Whether the Gram blocks of ``embedded`` (8 n_k^2 bytes per cell) fit ``_PART_BUDGET``."""
    counts = np.bincount(embedded.assignment).astype(np.int64)
    return int(8 * np.sum(counts**2)) <= _PART_BUDGET


def parts(embedded: EmbeddedSet) -> Iterator[tuple[slice | np.ndarray, EmbeddedSet]]:
    """Split the descriptors into parts whose Gram blocks fit ``_PART_BUDGET``.

    Cells are packed greedily in cell order: a cell joins the current part
    unless its block would take the part over the budget, so a cell larger
    than the budget is a part of its own, and it is the only kind of part
    that does not ``fit``. Yields (ascending descriptor indices, the part's
    embedded set). A kernel that fits whole is one part,
    ``(slice(None), embedded)``, with no gather. A weighting that treats each
    block on its own can then hold one part's Gram at a time.
    """
    if fits(embedded):
        yield slice(None), embedded
        return

    def gather(group: list[np.ndarray]) -> tuple[np.ndarray, EmbeddedSet]:
        idx = np.sort(np.concatenate(group))
        rows, assignment = embedded.rows[idx], embedded.assignment[idx]
        return idx, EmbeddedSet._trusted(rows, assignment, embedded.c, embedded.unit_columns)

    group: list[np.ndarray] = []
    used = 0
    for _, idx in embedded.cells():
        size = 8 * idx.size**2
        if group and used + size > _PART_BUDGET:
            yield gather(group)
            group, used = [], 0
        group.append(idx)
        used += size
    yield gather(group)


def clip_negatives(kern: KernelMatrix) -> KernelMatrix:
    """Replace every negative entry by 0 (the usual Sinkhorn pre-processing)."""
    return KernelMatrix._trusted(kern.n, ((b.indices, np.maximum(b.values, 0.0)) for b in kern.blocks))
