"""Reference code shared by the tests, kept out of the installed package.

``bench_rows`` times the kernel and weight layers of a residual embedding
against the same embedding held as one dense block; acceptance criterion 5
reads its speedup and path agreement.
"""

import time

import numpy as np

from mkagg.democratic import (
    DemocraticConfig,
    aggregate_democratic,
    aggregate_sum,
    sinkhorn_weights,
)
from mkagg.embed import EmbeddingConfig, embed_set
from mkagg.gmp import GmpConfig, aggregate_gmp, gmp_weights
from mkagg.kernel import gram
from mkagg.types import Codebook, DescriptorSet, EmbeddedSet


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
