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

_ASSIGN_CHUNK = 4096


@dataclass(frozen=True)
class EmbeddingConfig:
    kind: str = "residual"
    normalize_residuals: bool = True

    def __post_init__(self):
        if self.kind not in EMBEDDING_KINDS:
            raise ValueError(f"unknown embedding kind {self.kind!r}")

    def output_dim(self, codebook: Codebook) -> int:
        return codebook.c if self.kind == "bow" else codebook.c * codebook.d


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # Materialize the differences rather than using x^2 + c^2 - 2xc: the
    # direct form keeps exact ties exact, so tie-breaking is reproducible.
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("ncd,ncd->nc", diff, diff)


def _assign_all(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    n = points.shape[0]
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, _ASSIGN_CHUNK):
        stop = min(start + _ASSIGN_CHUNK, n)
        d2 = _squared_distances(points[start:stop], centroids)
        out[start:stop] = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
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
    return int(_assign_all(x[None, :], codebook.centroids)[0])


def _kmeanspp_init(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            choice = rng.choice(n, p=probs)
        else:
            choice = rng.integers(n)
        centers[j] = points[choice]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def train_codebook(training: DescriptorSet, c: int, seed: int, max_iters: int = 100) -> Codebook:
    """Lloyd's k-means with k-means++ seeding; deterministic for a fixed seed.

    Clusters that empty out are re-seeded from the point currently farthest
    from its assigned centroid.
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
        d2 = _squared_distances(points, centers)
        new_assignment = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(training.n), new_assignment]
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

    points = descriptors.data.astype(np.float64)
    assignment = _assign_all(points, codebook.centroids)
    n, c = descriptors.n, codebook.c

    if cfg.kind == "bow":
        return EmbeddedSet._trusted(np.ones((n, 1)), assignment, c, unit_columns=True)

    residuals = points - codebook.centroids[assignment]
    norms = np.linalg.norm(residuals, axis=1)
    unit = False
    if cfg.normalize_residuals:
        nonzero = norms > 0.0
        # A descriptor sitting exactly on its centroid keeps a zero column;
        # normalizing it is undefined.
        residuals[nonzero] /= norms[nonzero, None]
        unit = bool(np.all(nonzero))
    return EmbeddedSet._trusted(residuals, assignment, c, unit_columns=unit)
