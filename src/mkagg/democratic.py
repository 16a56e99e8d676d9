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
of whole blocks gives those blocks' weights bit for bit. The command line
uses that to scale the kernel one part at a time (``kernel.parts``), holding
one part's Gram and its clipped copy instead of every block twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel as kernel_mod
from .types import AggregateVector, EmbeddedSet, KernelMatrix, ScalingError, WeightVector


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


def sinkhorn_weights(kern: KernelMatrix, cfg: DemocraticConfig = DemocraticConfig()) -> WeightVector:
    """Run exactly ``cfg.n_iter`` scaling iterations and return the weights.

    With ``clip`` the kernel's negative entries are zeroed first, which keeps
    all row sums positive for unit-diagonal kernels. Without clipping, a
    nonpositive row sum aborts with ScalingError. A structurally zero row (an
    isolated all-zero embedding) keeps weight 1 and is skipped by the updates.
    """
    work = kernel_mod.clip_negatives(kern) if cfg.clip else kern
    n = work.n
    alpha = np.ones(n)
    # A clipped kernel is nonnegative, so its plain row sums find the zero
    # rows without an |K| temporary per block.
    active = (work.matvec(np.ones(n)) if cfg.clip else work.abs_row_sums()) > 0.0

    for _ in range(cfg.n_iter):
        sigma = alpha * work.matvec(alpha)
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
