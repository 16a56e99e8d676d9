"""Reference code shared by the tests, kept out of the installed package.

``bench_rows`` times the kernel and weight layers of a residual embedding
against the same embedding held as one dense block; acceptance criterion 5
reads its speedup and path agreement.

``assign_direct`` and ``lloyd_direct`` are nearest-centroid assignment and
Lloyd's loop as they were before assignment moved to a GEMM first pass: the
direct form sum_j (x_j - c_j)^2 over a chunk x c x d difference tensor. The
GEMM path must reproduce them bit for bit.

``orthonormal_direct`` is ``NormalizeConfig``'s orthonormality check as it
was before the check was remembered per rotation content, kept verbatim:
it raises ``ValueError`` when some |R^T R - I| entry exceeds the tolerance
and, unlike the program's check, accepts a matrix whose panel maximum is NaN.

``rn_fit_gram_schmidt`` is ``rn_fit`` as it was before the rotation came
from one SVD, kept verbatim: the leading rows from a thin SVD, the rest
completed by Gram-Schmidt over the canonical basis. Its principal rows are
the reference for the program's.

``gmp_primal`` solves GMP in embedding space for small D, and
``maxpool_oracle`` is the count-invariant sum of the distinct codewords in a
set. ``generate_synthetic`` builds the deterministic bursty datasets of the
retrieval-direction criterion.

``failing_writes`` makes the files that ``mkagg.matio`` writes fail midway,
as on a full disk.
"""

import builtins
import errno
import time
from pathlib import Path
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mkagg.democratic import (
    DemocraticConfig,
    aggregate_democratic,
    aggregate_sum,
    sinkhorn_weights,
)
from mkagg.embed import EmbeddingConfig, _kmeanspp_init, _row_chunks, embed_set
from mkagg.gmp import GmpConfig, aggregate_gmp, gmp_weights
from mkagg import matio
from mkagg.kernel import gram
from mkagg.normalize import _ORTHO_PANEL_BYTES, _ORTHO_TOL
from mkagg.retrieval import GroundTruth
from mkagg.types import AggregateVector, Codebook, DescriptorSet, EmbeddedSet

_ASSIGN_CHUNK = 4096


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # Materialize the differences rather than using x^2 + c^2 - 2xc: the
    # direct form keeps exact ties exact, so tie-breaking is reproducible.
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("ncd,ncd->nc", diff, diff)


def assign_direct(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    n = points.shape[0]
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, _ASSIGN_CHUNK):
        stop = min(start + _ASSIGN_CHUNK, n)
        d2 = _squared_distances(points[start:stop], centroids)
        out[start:stop] = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
    return out


def orthonormal_direct(rotation: np.ndarray) -> None:
    rot = np.ascontiguousarray(rotation, dtype=np.float64)
    if rot.ndim != 2 or rot.shape[0] != rot.shape[1]:
        raise ValueError("rotation must be a square matrix")
    # max |R^T R - I| one panel of rows at a time, in place, so a check
    # (one per per-file normalize call) holds no D x D temporary.
    dim = rot.shape[1]
    step = max(1, _ORTHO_PANEL_BYTES // (8 * dim))
    for start in range(0, dim, step):
        panel = rot[:, start : start + step].T @ rot
        panel[:, start : start + step][np.diag_indices(panel.shape[0])] -= 1.0
        if np.max(np.abs(panel, out=panel)) > _ORTHO_TOL:
            raise ValueError("rotation matrix is not orthonormal")


def rn_fit_gram_schmidt(training_vectors: Sequence[AggregateVector], max_eigvecs: int) -> np.ndarray:
    """Learn a D x D rotation whose leading rows are principal directions.

    The first min(max_eigvecs, D) rows are the principal directions of the
    centered training vectors in descending variance order; the rest is a
    deterministic orthonormal completion built by Gram-Schmidt over the
    canonical basis. Each principal row's sign is fixed by making its
    largest-magnitude component positive.
    """
    if max_eigvecs < 1:
        raise ValueError("max_eigvecs must be >= 1")
    if len(training_vectors) < 2:
        raise ValueError("need at least 2 training vectors")
    dim = training_vectors[0].dim
    for v in training_vectors:
        if v.dim != dim:
            raise ValueError("training vectors must share a single dimensionality")

    data = np.stack([v.xi for v in training_vectors])
    data = data - data.mean(axis=0)
    # SVD of the centered data; right singular vectors come out in
    # descending-variance order already.
    _, _, vt = np.linalg.svd(data, full_matrices=False)
    lead = vt[: min(max_eigvecs, vt.shape[0])].copy()
    for row in lead:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0

    rows = [row for row in lead]
    for j in range(dim):
        if len(rows) == dim:
            break
        v = np.zeros(dim)
        v[j] = 1.0
        basis = np.stack(rows)
        # Two projection passes keep the completion orthonormal to ~1e-12.
        for _ in range(2):
            v = v - basis.T @ (basis @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            rows.append(v / norm)
    if len(rows) != dim:
        raise ValueError("failed to complete an orthonormal basis")
    return np.stack(rows)


def kmeanspp_two_loops(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding as two distance passes: one for the first center, drawn
    uniformly, and one per further center inside the sampling loop."""
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


def lloyd_direct(training: DescriptorSet, c: int, seed: int, max_iters: int = 100) -> np.ndarray:
    """Centroids of ``train_codebook``'s Lloyd loop over unchunked direct-form distances."""
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
    return centers


def _timed(fn):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


def bench_rows(sizes: list[int], clusters: list[int], d: int = 16, seed: int = 0) -> list[dict]:
    """Time dense vs block kernel construction and weight solving.

    Returns one row per (n, c, stage) with wall/CPU seconds for both paths and
    the max absolute difference between their outputs.
    """
    rows = []
    for n in sizes:
        for c in clusters:
            rng = np.random.default_rng(seed)
            points = rng.normal(size=(n, d))
            points /= np.linalg.norm(points, axis=1, keepdims=True)
            codebook = Codebook(points[rng.choice(n, size=c, replace=False)])
            block_set = embed_set(
                DescriptorSet(points.astype(np.float32)), codebook, EmbeddingConfig("residual")
            )
            dense_set = EmbeddedSet(phi=block_set.phi)

            kern_dense, wall_gd, cpu_gd = _timed(lambda: gram(dense_set))
            kern_block, wall_gb, cpu_gb = _timed(lambda: gram(block_set))
            rows.append(
                dict(
                    n=n, c=c, stage="gram",
                    wall_dense=wall_gd, cpu_dense=cpu_gd,
                    wall_block=wall_gb, cpu_block=cpu_gb,
                    max_abs_diff=float(np.max(np.abs(kern_dense.to_dense() - kern_block.to_dense()))),
                )
            )

            agg_sum, wall_s, cpu_s = _timed(lambda: aggregate_sum(block_set))
            rows.append(
                dict(
                    n=n, c=c, stage="sum",
                    wall_dense=wall_s, cpu_dense=cpu_s,
                    wall_block=wall_s, cpu_block=cpu_s,
                    max_abs_diff=0.0,
                )
            )

            dem_cfg = DemocraticConfig()
            wd, wall_dd, cpu_dd = _timed(lambda: sinkhorn_weights(kern_dense, dem_cfg))
            wb, wall_db, cpu_db = _timed(lambda: sinkhorn_weights(kern_block, dem_cfg))
            diff = float(
                np.max(
                    np.abs(
                        aggregate_democratic(block_set, wd).xi
                        - aggregate_democratic(block_set, wb).xi
                    )
                )
            )
            rows.append(
                dict(
                    n=n, c=c, stage="democratic",
                    wall_dense=wall_dd, cpu_dense=cpu_dd,
                    wall_block=wall_db, cpu_block=cpu_db,
                    max_abs_diff=diff,
                )
            )

            gmp_cfg = GmpConfig(lam=1.0)
            gd, wall_md, cpu_md = _timed(lambda: gmp_weights(kern_dense, gmp_cfg))
            gb, wall_mb, cpu_mb = _timed(lambda: gmp_weights(kern_block, gmp_cfg))
            diff = float(
                np.max(np.abs(aggregate_gmp(block_set, gd).xi - aggregate_gmp(block_set, gb).xi))
            )
            rows.append(
                dict(
                    n=n, c=c, stage="gmp",
                    wall_dense=wall_md, cpu_dense=cpu_md,
                    wall_block=wall_mb, cpu_block=cpu_mb,
                    max_abs_diff=diff,
                )
            )
    return rows


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the generated bursty toy datasets."""

    n_images: int
    burst_size: int
    n_distinct: int
    d: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_images", "burst_size", "n_distinct", "d"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def _separated_unit(rng: np.random.Generator, existing: list[np.ndarray], d: int) -> np.ndarray:
    # Rejection-sample a direction away from the ones drawn so far; fall back
    # to the least-aligned candidate when the space is too small to separate.
    best, best_score = None, np.inf
    for _ in range(64):
        cand = _unit(rng.normal(size=d))
        score = max((abs(cand @ e) for e in existing), default=0.0)
        if score < 0.8:
            return cand
        if score < best_score:
            best, best_score = cand, score
    return best


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[list[tuple[str, DescriptorSet]], GroundTruth]:
    """Build a deterministic bursty dataset.

    Every image holds ``burst_size`` near-duplicates of one globally shared
    bursty direction plus ``n_distinct`` distinctive descriptors. Images are
    grouped in pairs (the last group absorbs a leftover image); a group shares
    its distinctive directions, which defines mutual relevance.
    """
    rng = np.random.default_rng(spec.seed)
    ids = [f"img{i:04d}" for i in range(spec.n_images)]

    groups: list[list[int]] = []
    i = 0
    while i < spec.n_images:
        if spec.n_images - i == 3:
            groups.append([i, i + 1, i + 2])
            i += 3
        else:
            groups.append(list(range(i, min(i + 2, spec.n_images))))
            i += 2

    modes: list[np.ndarray] = []
    burst_mode = _separated_unit(rng, modes, spec.d)
    modes.append(burst_mode)
    group_modes = []
    for _ in groups:
        rows = []
        for _ in range(spec.n_distinct):
            m = _separated_unit(rng, modes, spec.d)
            modes.append(m)
            rows.append(m)
        group_modes.append(np.stack(rows))

    images: list[tuple[str, DescriptorSet]] = []
    relevant: dict[str, frozenset[str]] = {}
    for g, members in enumerate(groups):
        for idx in members:
            burst = burst_mode + spec.noise_sigma * rng.normal(size=(spec.burst_size, spec.d))
            distinct = group_modes[g] + spec.noise_sigma * rng.normal(
                size=(spec.n_distinct, spec.d)
            )
            images.append((ids[idx], DescriptorSet(np.vstack([burst, distinct]))))
            relevant[ids[idx]] = frozenset(ids[m] for m in members if m != idx)

    images.sort(key=lambda pair: pair[0])
    return images, GroundTruth(relevant=relevant)


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


class _FailingFile:
    """A file that writes half of its first chunk, then reports a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def failing_writes(monkeypatch, name: str | None = None) -> None:
    """Make every file that ``mkagg.matio`` opens for writing, or only the one
    whose file name is ``name``, fail partway through its first write."""

    def fake_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        failing = "w" in mode and name in (None, Path(file).name)
        return _FailingFile(fh) if failing else fh

    monkeypatch.setattr(matio, "open", fake_open, raising=False)
