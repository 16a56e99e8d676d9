"""Codebook training, hard assignment, and the two embeddings."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import assign_direct, lloyd_direct

from mkagg import embed
from mkagg.embed import EmbeddingConfig, assign_hard, embed_set, train_codebook
from mkagg.types import Codebook, DescriptorSet

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _lloyd_oracle(points, c, seed, iters=200):
    """Plain Lloyd's loop with random-subset init, for multi-restart reference."""
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(points.shape[0], size=c, replace=False)].copy()
    for _ in range(iters):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for k in range(c):
            if np.any(assign == k):
                new_centers[k] = points[assign == k].mean(axis=0)
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return centers, d2.min(axis=1).sum()


def _inertia(points, centroids):
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.min(axis=1).sum()


class TestTrainCodebook:
    def test_unit_square_corners_fixed_point(self):
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], dtype=np.float32)
        cb = train_codebook(DescriptorSet(corners), c=4, seed=0)
        # Zero inertia: each centroid sits on a corner, in some order.
        assert _inertia(corners.astype(np.float64), cb.centroids) == 0.0
        got = {tuple(row) for row in cb.centroids}
        assert got == {tuple(row) for row in corners.astype(np.float64)}

    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(50, 3)).astype(np.float32)
        cb = train_codebook(DescriptorSet(points), c=1, seed=0)
        np.testing.assert_allclose(cb.centroids[0], points.astype(np.float64).mean(axis=0), atol=1e-12)

    def test_separated_gaussians_match_restart_oracle(self):
        """On well-separated clusters a single run finds the global optimum."""
        rng = np.random.default_rng(2)
        centers = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        points = np.vstack(
            [center + rng.normal(scale=0.5, size=(67, 2)) for center in centers]
        )[:200].astype(np.float32)
        pts64 = points.astype(np.float64)

        best = min(_lloyd_oracle(pts64, 3, seed)[1] for seed in range(50))
        cb = train_codebook(DescriptorSet(points), c=3, seed=11)
        assert abs(_inertia(pts64, cb.centroids) - best) <= 1e-9

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(60, 4)).astype(np.float32)
        a = train_codebook(DescriptorSet(points), c=8, seed=5)
        b = train_codebook(DescriptorSet(points), c=8, seed=5)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_rejects_too_few_points(self):
        points = np.zeros((2, 2), dtype=np.float32)
        points[1, 0] = 1.0
        with pytest.raises(ValueError, match="at least"):
            train_codebook(DescriptorSet(points), c=3, seed=0)

    def test_overclustered_blobs_stay_valid(self):
        """c far above the natural mode count still yields c distinct centroids."""
        rng = np.random.default_rng(7)
        blobs = np.vstack(
            [
                rng.normal(scale=0.05, size=(40, 2)),
                np.array([8.0, 8.0]) + rng.normal(scale=0.05, size=(10, 2)),
            ]
        ).astype(np.float32)
        for seed in range(5):
            cb = train_codebook(DescriptorSet(blobs), c=6, seed=seed)
            assert cb.c == 6
            # Splitting clusters can only reduce inertia below the 2-means fit.
            two = train_codebook(DescriptorSet(blobs), c=2, seed=seed)
            assert _inertia(blobs.astype(np.float64), cb.centroids) <= _inertia(
                blobs.astype(np.float64), two.centroids
            ) + 1e-9


class TestAssignHard:
    def test_exact_centroid_match(self):
        cb = Codebook(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        assert assign_hard(np.array([2.0, 0.0]), cb) == 2

    def test_tie_breaks_to_lowest_index(self):
        cb = Codebook(np.array([[0.0], [1.0]]))
        assert assign_hard(np.array([0.5]), cb) == 0

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(4)
        cb = Codebook(rng.normal(size=(16, 8)))
        for _ in range(200):
            x = rng.normal(size=8)
            d2 = np.sum((cb.centroids - x) ** 2, axis=1)
            assert assign_hard(x, cb) == int(np.argmin(d2))

    def test_dimension_mismatch(self):
        cb = Codebook(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="dimension"):
            assign_hard(np.array([1.0]), cb)


class TestEmbedSet:
    def _toy(self):
        # Five 1-D descriptors: four near 0, one near 10 -> assignments [0,0,0,0,1].
        ds = DescriptorSet(np.array([[0.0], [0.1], [-0.1], [0.05], [10.0]], dtype=np.float32))
        cb = Codebook(np.array([[0.0], [10.0]]))
        return ds, cb

    def test_bow_one_hot_and_counts(self):
        ds, cb = self._toy()
        emb = embed_set(ds, cb, EmbeddingConfig("bow"))
        np.testing.assert_array_equal(emb.assignment, [0, 0, 0, 0, 1])
        # Exactly one entry per column, equal to 1.
        assert np.all(emb.phi.sum(axis=0) == 1.0)
        assert np.all((emb.phi == 0.0) | (emb.phi == 1.0))
        np.testing.assert_array_equal(emb.phi.sum(axis=1), [4.0, 1.0])
        assert emb.block_layout == ((0, 1), (1, 2))
        assert emb.unit_columns

    def test_residual_zero_column_at_centroid(self):
        ds = DescriptorSet(np.array([[0.0, 0.0]], dtype=np.float32))
        cb = Codebook(np.array([[0.0, 0.0], [5.0, 5.0]]))
        emb = embed_set(ds, cb, EmbeddingConfig("residual", normalize_residuals=False))
        np.testing.assert_array_equal(emb.phi[:, 0], np.zeros(4))

    def test_residual_normalized_345(self):
        """Residual (3,4) in block 0 of c=2 normalizes to (0.6, 0.8, 0, 0)."""
        ds = DescriptorSet(np.array([[3.0, 4.0]], dtype=np.float32))
        cb = Codebook(np.array([[0.0, 0.0], [100.0, 100.0]]))
        emb = embed_set(ds, cb, EmbeddingConfig("residual", normalize_residuals=True))
        np.testing.assert_allclose(emb.phi[:, 0], [0.6, 0.8, 0.0, 0.0], atol=1e-12)
        assert emb.block_layout == ((0, 2), (2, 4))

    def test_residual_unit_columns_property(self):
        rng = np.random.default_rng(5)
        ds = DescriptorSet(rng.normal(size=(40, 6)).astype(np.float32))
        cb = Codebook(rng.normal(size=(4, 6)))
        emb = embed_set(ds, cb, EmbeddingConfig("residual", normalize_residuals=True))
        norms = np.linalg.norm(emb.phi, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)
        assert emb.unit_columns

    def test_block_sparsity_is_exact(self):
        rng = np.random.default_rng(6)
        ds = DescriptorSet(rng.normal(size=(30, 5)).astype(np.float32))
        cb = Codebook(rng.normal(size=(3, 5)))
        emb = embed_set(ds, cb, EmbeddingConfig("residual"))
        for i in range(emb.n):
            start, stop = emb.block_layout[emb.assignment[i]]
            col = emb.phi[:, i].copy()
            col[start:stop] = 0.0
            assert np.all(col == 0.0)

    def test_empty_set_rejected(self):
        ds = DescriptorSet(np.zeros((0, 2), dtype=np.float32))
        cb = Codebook(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="empty"):
            embed_set(ds, cb, EmbeddingConfig("bow"))

    def test_dimension_mismatch_rejected(self):
        ds = DescriptorSet(np.zeros((2, 3), dtype=np.float32))
        cb = Codebook(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="match"):
            embed_set(ds, cb, EmbeddingConfig("bow"))


@st.composite
def grid_problems(draw):
    """(points, centroids) on a half-integer grid around integer centroids.

    Midpoints and centroids at equal distance give exact ties in the direct
    form; a large common offset makes the GEMM scores cancel; repeated rows
    give duplicated points; c may be 1.
    """
    d = draw(st.integers(1, 4))
    c = draw(st.integers(1, 8))
    offset = draw(st.sampled_from([0.0, 0.5, 1e6, -1e6, 1e8]))
    cells = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=c, max_size=c, unique=True)
    )
    n = draw(st.integers(1, 40))
    halves = draw(arrays(np.int64, (n, d), elements=st.integers(-6, 6)))
    repeat = draw(arrays(np.int64, n, elements=st.integers(0, n - 1)))
    points = halves[repeat] / 2.0 + offset
    return points, np.array(cells, dtype=np.float64) + offset


class TestExactAssignment:
    """The GEMM first pass with its re-check must equal the direct form exactly."""

    @PROPERTY
    @given(grid_problems())
    def test_matches_direct_form_on_ties_and_offsets(self, problem):
        points, centroids = problem
        np.testing.assert_array_equal(
            embed._nearest_centroids(points, centroids), assign_direct(points, centroids)
        )

    @PROPERTY
    @given(grid_problems(), st.integers(1, 5))
    def test_matches_direct_form_across_chunk_boundaries(self, problem, rows_per_chunk):
        points, centroids = problem
        budget = 8 * centroids.shape[0] * rows_per_chunk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embed, "_ASSIGN_BUDGET", budget)
            got = embed._nearest_centroids(points, centroids)
            emb = embed_set(
                DescriptorSet(points.astype(np.float32)), Codebook(centroids), EmbeddingConfig()
            )
        np.testing.assert_array_equal(got, assign_direct(points, centroids))
        np.testing.assert_array_equal(
            emb.assignment, assign_direct(points.astype(np.float32).astype(np.float64), centroids)
        )

    def test_single_centroid(self):
        points = np.random.default_rng(0).normal(size=(7, 3))
        np.testing.assert_array_equal(
            embed._nearest_centroids(points, np.zeros((1, 3))), np.zeros(7, dtype=np.int64)
        )

    def test_overflowing_scores_fall_back_to_direct_form(self):
        """Where |x|^2 - 2 x.c + |c|^2 could overflow, the direct form decides, infinities and all."""
        line = [[1e150], [-1e150], [0.0], [1e154]]
        cases = [
            (line, [[-1e160], [1e160]]),
            (line, [[1e154], [-1e154]]),
            (line, [[3.0], [1e154]]),
            # 2 x.c overflows to -inf for the farther centroid only.
            ([[1e154, 0.0]], [[0.89e154, 0.0], [0.95e154, 0.5e154]]),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for points, centroids in cases:
                points, centroids = np.array(points), np.array(centroids)
                np.testing.assert_array_equal(
                    embed._nearest_centroids(points, centroids), assign_direct(points, centroids)
                )

    def test_only_ties_reach_the_direct_form(self, monkeypatch):
        """Generic rows are settled by the GEMM pass; exact midpoints are re-checked."""
        rechecked = []
        direct = embed._direct_argmin

        def spy(points, centroids):
            rechecked.append(points.shape[0])
            return direct(points, centroids)

        monkeypatch.setattr(embed, "_direct_argmin", spy)
        rng = np.random.default_rng(8)
        embed._nearest_centroids(rng.normal(size=(500, 16)), rng.normal(size=(32, 16)))
        assert rechecked == []
        # Rows 1 and 2 sit halfway between two centroids.
        line = np.array([[0.0], [0.5], [-0.5], [0.9]])
        got = embed._nearest_centroids(line, np.array([[0.0], [1.0], [-1.0]]))
        assert got.tolist() == [0, 0, 0, 1]
        assert rechecked == [2]

    def test_scores_stay_within_budget(self):
        """20k rows x 256 centroids: the unchunked scores alone would take 41 MB."""
        rng = np.random.default_rng(11)
        points, centroids = rng.normal(size=(20_000, 8)), rng.normal(size=(256, 8))
        assert _traced_peak_mb(lambda: embed._nearest_centroids(points, centroids)) < 16.0

    def test_all_rows_ambiguous_stays_within_budget(self):
        """Every row ties all 256 centroids, so every row takes the chunked direct form."""
        centroids = np.vstack([np.eye(128), -np.eye(128)])
        points = np.zeros((2_000, 128))
        # Unchunked, the direct form would hold a 2000 x 256 x 128 tensor (524 MB).
        peak = _traced_peak_mb(lambda: embed._nearest_centroids(points, centroids))
        assert peak < 16.0
        np.testing.assert_array_equal(
            embed._nearest_centroids(points, centroids), np.zeros(2_000, dtype=np.int64)
        )


class TestLloydMatchesDirectForm:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_byte_identical_centroids(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.normal(scale=4.0, size=(5, 6))
        blobs = np.vstack([center + rng.normal(size=(40, 6)) for center in centers])
        # Repeated points leave clusters empty, which exercises re-seeding.
        blobs = np.vstack([blobs, np.repeat(blobs[:3], 20, axis=0)]).astype(np.float32)
        for c in (2, 5, 9):
            got = train_codebook(DescriptorSet(blobs), c=c, seed=seed).centroids
            assert got.tobytes() == lloyd_direct(DescriptorSet(blobs), c=c, seed=seed).tobytes()


class TestAssignmentMemory:
    def test_embed_set_peak_bounded_at_paper_scale(self):
        """d=128, c=256, n=10k: the set's rows are 10 MB, a c x d x n tensor 2.6 GB."""
        rng = np.random.default_rng(9)
        descriptors = DescriptorSet(rng.normal(size=(10_000, 128)).astype(np.float32))
        codebook = Codebook(rng.normal(size=(256, 128)))
        peak = _traced_peak_mb(lambda: embed_set(descriptors, codebook, EmbeddingConfig()))
        assert peak < 64.0

    @pytest.mark.parametrize("c", [16, 256])
    def test_embed_set_peak_is_rows_plus_a_chunk(self, c):
        """n=20k, d=128: the rows take 20 MB, and every other temporary (the
        float64 points, the centroid gather, the scores) is one chunk under
        the budget at a time."""
        rng = np.random.default_rng(12)
        descriptors = DescriptorSet(rng.normal(size=(20_000, 128)).astype(np.float32))
        codebook = Codebook(rng.normal(size=(c, 128)))
        rows_mb = 20_000 * 128 * 8 / 2**20
        peak = _traced_peak_mb(lambda: embed_set(descriptors, codebook, EmbeddingConfig()))
        assert peak < rows_mb + 2 * embed._ASSIGN_BUDGET / 2**20

    def test_train_codebook_peak_flat_in_c(self):
        rng = np.random.default_rng(10)
        training = DescriptorSet(rng.normal(size=(8_000, 128)).astype(np.float32))
        peaks = {
            c: _traced_peak_mb(lambda c=c: train_codebook(training, c=c, seed=0, max_iters=2))
            for c in (16, 256)
        }
        assert peaks[256] - peaks[16] < 4.0
