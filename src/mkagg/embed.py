"""Per-descriptor embeddings and codebook training.

Everything applied descriptor-by-descriptor lives here: vocabulary learning,
hard assignment, and the two embedding functions. Both embeddings put each
descriptor in the block of its nearest centroid, so an embedded set stores
one w-wide row per descriptor (see ``EmbeddedSet``):

  * ``bow``      one-hot indicator of the nearest centroid, w = 1, D = c
  * ``residual`` the descriptor-minus-centroid residual in the centroid's
                 d-wide block (optionally l2-normalized), w = d, D = c*d
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import Codebook, DescriptorSet, EmbeddedSet

EMBEDDING_KINDS = ("bow", "residual")

# Bytes that one chunk of per-row float64 temporaries may take: centroid
# scores (rows x c), or rows of points, differences and residuals (rows x d).
# A fixed bound on the working memory of assignment, seeding, Lloyd steps and
# embedding, not a setting.
_ASSIGN_BUDGET = 4 * 2**20


def _row_chunks(n: int, width: int) -> list[slice]:
    """Slices of ``range(n)`` whose rows x ``width`` float64 temporaries fit the budget."""
    step = max(1, _ASSIGN_BUDGET // (8 * width))
    return [slice(start, start + step) for start in range(0, n, step)]


@dataclass(frozen=True)
class EmbeddingConfig:
    kind: str = "residual"
    normalize_residuals: bool = True

    def __post_init__(self):
        if self.kind not in EMBEDDING_KINDS:
            raise ValueError(f"unknown embedding kind {self.kind!r}")


def _direct_argmin(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # The direct form sum_j (x_j - c_j)^2 over every centroid, in chunks of
    # rows whose rows x c x d difference tensor fits the budget; argmin takes
    # the lowest index on ties. It defines the assignment, but it only runs
    # on the rows that the GEMM pass of _nearest_centroids cannot settle.
    c, d = centroids.shape
    out = np.empty(points.shape[0], dtype=np.int64)
    for rows in _row_chunks(points.shape[0], c * d):
        diff = points[rows, None, :] - centroids[None, :, :]
        out[rows] = np.argmin(np.einsum("ncd,ncd->nc", diff, diff), axis=1)
    return out


def _nearest_centroids(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid, exactly as ``_direct_argmin``.

    Scores come from one GEMM per chunk, g = |x|^2 - 2 x.c + |c|^2, and a row
    is re-checked with the direct form e = sum_j (x_j - c_j)^2 unless exactly
    one centroid scores within tol_i of the row minimum. Why tol_i suffices,
    with u = 2^-53, gamma_k = k u / (1 - k u), D = |x - c|^2 the exact
    distance and M_i = |x_i|^2 + max_k |c_k|^2 (``scale`` below), by the
    standard rounding-error bounds, which hold for any summation order and
    with fused multiply-adds:

      * GEMM: |x|^2, |c|^2 and x.c are each within gamma_d of |x|^2, |c|^2
        and |x||c|; two more roundings add gamma_2 of |x|^2 + 2|x.c| + |c|^2
        <= 2 M_i, so |g - D| <= 2 gamma_{d+2} M_i.
      * Direct form: the difference, its square and a sum of d nonnegative
        terms give |e - D| <= gamma_{d+2} D <= 2 gamma_{d+2} M_i, since
        D <= (|x| + |c|)^2 <= 2 M_i.
      * So |g - e| <= 4 gamma_{d+2} M_i for every centroid. If k* is the
        direct-form argmin and m = g[k_g] the GEMM minimum, then
        g[k*] <= e[k*] + 4 gamma M_i <= e[k_g] + 4 gamma M_i <= m + 8 gamma M_i.
        Every centroid tying k* in e is bounded the same way.

    tol_i = 8 gamma_{d+3} M_i: the extra gamma over 8 gamma_{d+2} M_i covers
    the rounding of tol_i and of m + tol_i (at most about 2 u M_i, as
    |m| <= 2 M_i (1 + gamma)). Products that underflow add at most one half
    of 2^-1074 each, 5d of them in g - e, covered by the d 2^-1070 term. A
    row with one candidate thus has the direct form's lowest-index argmin;
    rows with more, or whose scores could overflow, take the direct form.
    Rows are chunked so that the scores, and the float64 copy of a chunk of
    float32 points, stay within ``_ASSIGN_BUDGET``.
    """
    c, d = centroids.shape
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    c_sq_max = float(c_sq.max())
    tol_scale = 8.0 * (d + 3) * 2.0**-53 / (1.0 - (d + 3) * 2.0**-53)
    tol_floor = d * 2.0**-1070
    # Every partial result of g stays below 4 M_i, so below this no score overflows.
    scale_limit = np.finfo(np.float64).max / 4.0
    out = np.empty(points.shape[0], dtype=np.int64)
    for rows in _row_chunks(points.shape[0], max(c, d)):
        x = np.asarray(points[rows], dtype=np.float64)
        x_sq = np.einsum("nd,nd->n", x, x)
        scores = x @ centroids.T
        scores *= -2.0
        scores += x_sq[:, None]
        scores += c_sq
        best = np.argmin(scores, axis=1)
        scale = x_sq + c_sq_max
        thresh = np.take_along_axis(scores, best[:, None], axis=1)[:, 0]
        thresh += tol_scale * scale + tol_floor
        ambiguous = np.flatnonzero(
            (np.count_nonzero(scores <= thresh[:, None], axis=1) != 1) | ~(scale < scale_limit)
        )
        if ambiguous.size:
            best[ambiguous] = _direct_argmin(x[ambiguous], centroids)
        out[rows] = best
    return out


def assign_hard(x: np.ndarray, codebook: Codebook) -> int:
    """Index of the closest centroid by squared Euclidean distance.

    Ties are broken toward the lowest centroid index.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ValueError("descriptor must be finite")
    if x.shape[0] != codebook.d:
        raise ValueError(f"descriptor has dimension {x.shape[0]}, codebook expects {codebook.d}")
    return int(_nearest_centroids(x[None, :], codebook.centroids)[0])


def _kmeanspp_init(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    chunks = _row_chunks(n, points.shape[1])
    d2 = np.empty(n)
    for rows in chunks:
        d2[rows] = np.sum((points[rows] - centers[0]) ** 2, axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            choice = rng.choice(n, p=probs)
        else:
            choice = rng.integers(n)
        centers[j] = points[choice]
        for rows in chunks:
            np.minimum(d2[rows], np.sum((points[rows] - centers[j]) ** 2, axis=1), out=d2[rows])
    return centers


def train_codebook(training: DescriptorSet, c: int, seed: int, max_iters: int = 100) -> Codebook:
    """Lloyd's k-means with k-means++ seeding; deterministic for a fixed seed.

    Clusters that empty out are re-seeded from the point currently farthest
    from its assigned centroid. The seeding and each iteration's assignment
    and distances work in chunks of rows under a fixed byte budget, so their
    memory beside the points is bounded whatever the number of points and
    clusters.
    """
    if c < 1:
        raise ValueError("cluster count must be >= 1")
    if training.n < c:
        raise ValueError(f"need at least {c} training descriptors, got {training.n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    points = training.data.astype(np.float64)
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(points, c, rng)

    assignment = np.full(training.n, -1, dtype=np.int64)
    for _ in range(max_iters):
        new_assignment = _nearest_centroids(points, centers)
        point_d2 = np.empty(training.n)
        for rows in _row_chunks(training.n, training.d):
            diff = points[rows] - centers[new_assignment[rows]]
            point_d2[rows] = np.einsum("nd,nd->n", diff, diff)
        for k in range(c):
            members = new_assignment == k
            if np.any(members):
                centers[k] = points[members].mean(axis=0)
            else:
                far = int(np.argmax(point_d2))
                centers[k] = points[far]
                new_assignment[far] = k
                point_d2[far] = 0.0
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

    return Codebook(centroids=centers)


def embed_set(descriptors: DescriptorSet, codebook: Codebook, cfg: EmbeddingConfig) -> EmbeddedSet:
    """Embed every descriptor; rows of the result follow the input row order."""
    if descriptors.n == 0:
        raise ValueError("cannot embed an empty descriptor set")
    if descriptors.d != codebook.d:
        raise ValueError(
            f"descriptor dimension {descriptors.d} does not match codebook dimension {codebook.d}"
        )

    # Residuals go straight into the rows in chunks, so no whole-set
    # temporary (a float64 copy of the points, the centroid gather, the
    # squares of the norms) is ever allocated beside them.
    assignment = _nearest_centroids(descriptors.data, codebook.centroids)
    n, c = descriptors.n, codebook.c

    if cfg.kind == "bow":
        return EmbeddedSet._trusted(np.ones((n, 1)), assignment, c, unit_columns=True)

    rows = np.empty((n, descriptors.d))
    unit = cfg.normalize_residuals
    for part in _row_chunks(n, descriptors.d):
        res = rows[part]
        np.subtract(descriptors.data[part], codebook.centroids[assignment[part]], out=res)
        if cfg.normalize_residuals:
            norms = np.linalg.norm(res, axis=1)
            # A descriptor sitting exactly on its centroid keeps a zero row;
            # normalizing it is undefined.
            nonzero = norms > 0.0
            np.divide(res, norms[:, None], out=res, where=nonzero[:, None])
            unit = unit and bool(np.all(nonzero))
    return EmbeddedSet._trusted(rows, assignment, c, unit_columns=unit)
