"""Democratic aggregation: symmetric Sinkhorn weighting of the kernel.

The weights drive every descriptor's share of the set self-similarity toward
a common value. They solve diag(a) K diag(a) 1 = C 1 approximately, by a
fixed, small number of damped symmetric scaling steps:

    sigma = diag(a) K diag(a) 1        (current per-descriptor shares)
    a_i  := a_i / sigma_i^gamma        (damped update, gamma <= 0.5)

The kernel is block-diagonal (one block per centroid, or a single block for
a set without block structure), so the row sums decompose per block and the
loop is effectively an independent scaling run per block. Every step but the
per-block matvec is elementwise, so scaling any kernel built from a subset
of whole blocks gives those blocks' weights bit for bit.

Both sources yield every block as (its descriptor indices, v -> block @ v,
its nonzero rows), so one loop body and one zero-row rule serve both. A
kernel block is applied from its (clipped) values, and a cell of the
embedded set from its rows R, without forming R R^T. Clipping makes the block
K+ = R R^T + N with N = max(-R R^T, 0), so K+ v = R (R^T v) + N v. N is
nonzero only at pairs that include an "outer" row: a row is core when its
angle to the cell's mean direction u is below pi/4, so two core rows are
less than pi/2 apart and their match is positive. Only the |O| x n_k matches
of the outer rows O are formed. A burst of n_k near-duplicates thus costs
its rows and a few of their matches instead of an n_k x n_k block. A cell
whose rows are mostly outer (no dominant direction) is applied from its
clipped Gram block, which is then no larger and cheaper to build.

The command line scales the kernel one part at a time, each from its Gram
or from its rows as ``kernel.parts`` flags it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import kernel as kernel_mod
from .types import AggregateVector, EmbeddedSet, KernelMatrix, ScalingError, WeightVector

# A row is core when r . u >= _CORE_COS |r|: its angle to u is below pi/4 by a
# margin far above the rounding of r . u and |r| (about w 2^-53 relative), so
# two core rows are certified to have a positive match. Zero rows are core.
_CORE_COS = 1.0 / np.sqrt(2.0) + 1e-9

# A cell with more outer rows than this share of its rows is applied from its
# clipped Gram block: forming the outer matches takes 2 |O| n_k w flops, the
# symmetric Gram n_k^2 w, so past half the rows the Gram is the cheaper side,
# and its n_k^2 entries are at most twice the outer matches'.
_MAX_OUTER_SHARE = 0.5


@dataclass(frozen=True)
class DemocraticConfig:
    gamma: float = 0.3
    n_iter: int = 10
    clip: bool = True

    def __post_init__(self):
        if not 0.0 < self.gamma <= 0.5:
            raise ValueError("gamma must lie in (0, 0.5]")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")


def _clipped_rows_matvec(rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """v -> max(R R^T, 0) v for one cell's rows R, as R (R^T v) + N v."""
    total = rows.sum(axis=0)
    norm = np.linalg.norm(total)
    u = total / norm if norm > 0.0 else total
    # Written so that a NaN (an overflowing sum) makes a row outer.
    is_core = rows @ u >= _CORE_COS * np.linalg.norm(rows, axis=1)
    outer, core = np.flatnonzero(~is_core), np.flatnonzero(is_core)
    if outer.size > _MAX_OUTER_SHARE * rows.shape[0]:
        block = rows @ rows.T
        np.maximum(block, 0.0, out=block)
        return block.__matmul__
    # N over the outer rows, split by column: N[O, O] and N[O, C]; N[C, C] = 0.
    neg_oo = rows[outer] @ rows[outer].T
    neg_oc = rows[outer] @ rows[core].T
    for neg in (neg_oo, neg_oc):
        np.negative(neg, out=neg)
        np.maximum(neg, 0.0, out=neg)

    def matvec(v: np.ndarray) -> np.ndarray:
        out = rows @ (rows.T @ v)
        v_outer, v_core = v[outer], v[core]
        out[outer] += neg_oo @ v_outer + neg_oc @ v_core
        out[core] += v_outer @ neg_oc
        return out

    return matvec


def _blocks(
    source: KernelMatrix | EmbeddedSet, clip: bool
) -> list[tuple[np.ndarray, Callable[[np.ndarray], np.ndarray], np.ndarray]]:
    """Every diagonal block of the (clipped) kernel of ``source`` as (ascending
    descriptor indices, v -> block @ v, which of its rows are nonzero)."""
    if not isinstance(source, EmbeddedSet):
        work = kernel_mod.clip_negatives(source) if clip else source
        return [(b.indices, b.values.__matmul__, b.values.any(axis=1)) for b in work.blocks]
    if source.n == 0:
        raise ValueError("cannot compute weights for an empty set")
    blocks = []
    for _, idx in source.cells():
        # A set of one cell (a part over the budget) is used without a gather.
        rows = source.rows if idx.size == source.n else source.rows[idx]
        matvec = _clipped_rows_matvec(rows) if clip else (lambda v, r=rows: r @ (r.T @ v))
        # A zero row is the only structurally zero row of R R^T, clipped or not.
        blocks.append((idx, matvec, rows.any(axis=1)))
    return blocks


def sinkhorn_weights(
    source: KernelMatrix | EmbeddedSet, cfg: DemocraticConfig = DemocraticConfig()
) -> WeightVector:
    """Run exactly ``cfg.n_iter`` scaling iterations and return the weights.

    ``source`` is the kernel, or the embedded set itself, whose cells are
    applied from their rows without building the kernel (see the module
    notes); the two sources give the same weights up to rounding.
    With ``clip`` the kernel's negative entries are zeroed first, which keeps
    all row sums positive for unit-diagonal kernels. Without clipping, a
    nonpositive row sum aborts with ScalingError. A structurally zero row (an
    isolated all-zero embedding) keeps weight 1 and is skipped by the updates.
    """
    blocks = _blocks(source, cfg.clip)
    n = source.n
    active = np.zeros(n, dtype=bool)
    for idx, _, nonzero in blocks:
        active[idx] = nonzero

    alpha = np.ones(n)
    for _ in range(cfg.n_iter):
        k_alpha = np.zeros(n)
        for idx, matvec, _ in blocks:
            k_alpha[idx] = matvec(alpha[idx])
        sigma = alpha * k_alpha
        shares = sigma[active]
        if np.any(shares <= 0.0):
            raise ScalingError(
                "nonpositive row sum during Sinkhorn scaling; clip the kernel first"
            )
        alpha[active] = alpha[active] / shares**cfg.gamma

    return WeightVector(alpha=alpha, method="democratic")


def aggregate_democratic(embedded: EmbeddedSet, weights: WeightVector) -> AggregateVector:
    """Weighted column sum of the embeddings under democratic weights."""
    if weights.method != "democratic":
        raise ValueError(f"expected democratic weights, got {weights.method!r}")
    return AggregateVector(xi=embedded.pool(weights.alpha), state=("raw",))


def aggregate_sum(embedded: EmbeddedSet) -> AggregateVector:
    """Plain column sum, the unweighted baseline."""
    if embedded.n == 0:
        raise ValueError("cannot aggregate an empty set")
    return AggregateVector(xi=embedded.pool(np.ones(embedded.n)), state=("raw",))
