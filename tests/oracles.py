"""Reference code shared by the tests, kept out of the installed package.

``bench_rows`` times the kernel and weight layers of a residual embedding
against the same embedding held as one dense block; acceptance criterion 5
reads its speedup and path agreement.

``assign_direct`` and ``lloyd_direct`` are nearest-centroid assignment and
Lloyd's loop as they were before assignment moved to a GEMM first pass: the
direct form sum_j (x_j - c_j)^2 over a chunk x c x d difference tensor. The
GEMM path must reproduce them bit for bit.
"""

import time

import numpy as np

from mkagg.democratic import (
    DemocraticConfig,
    aggregate_democratic,
    aggregate_sum,
    sinkhorn_weights,
)
from mkagg.embed import EmbeddingConfig, _kmeanspp_init, embed_set
from mkagg.gmp import GmpConfig, aggregate_gmp, gmp_weights
from mkagg.kernel import gram
from mkagg.types import Codebook, DescriptorSet, EmbeddedSet

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
