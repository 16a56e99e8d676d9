"""Democratic weighting: scaling loop behaviour and its aggregate."""

import numpy as np
import pytest

from mkagg.democratic import (
    DemocraticConfig,
    aggregate_democratic,
    aggregate_sum,
    sinkhorn_weights,
)
from mkagg.embed import EmbeddingConfig, embed_set
from mkagg.kernel import clip_negatives, gram
from mkagg.types import (
    Codebook,
    DescriptorSet,
    EmbeddedSet,
    KernelMatrix,
    ScalingError,
    WeightVector,
)


def _bow_toy():
    ds = DescriptorSet(np.array([[0.0], [0.1], [-0.1], [0.05], [10.0]], dtype=np.float32))
    cb = Codebook(np.array([[0.0], [10.0]]))
    return embed_set(ds, cb, EmbeddingConfig("bow"))


def _random_clipped_kernel(seed, n=20):
    """A unit-diagonal symmetric kernel with negatives clipped away."""
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=(3 * n, n))
    phi /= np.linalg.norm(phi, axis=0)
    return clip_negatives(KernelMatrix.from_dense(phi.T @ phi))


def _scaling_oracle(mat, gamma, n_iter):
    """Byte-level re-statement of the two-line scaling loop."""
    n = mat.shape[0]
    alpha = np.ones(n)
    history = []
    for _ in range(n_iter):
        sigma = np.diag(alpha) @ mat @ np.diag(alpha) @ np.ones(n)
        alpha = alpha / sigma**gamma
        history.append(alpha.copy())
    return alpha, history


class TestSinkhornWeights:
    def test_bow_counts_fixed_point(self):
        """Per-word counts [4,1]: weights are 1/sqrt(count), reached at iteration 1."""
        kern = gram(_bow_toy())
        w10 = sinkhorn_weights(kern, DemocraticConfig(gamma=0.5, n_iter=10))
        np.testing.assert_allclose(w10.alpha, [0.5, 0.5, 0.5, 0.5, 1.0], atol=1e-12)
        w1 = sinkhorn_weights(kern, DemocraticConfig(gamma=0.5, n_iter=1))
        assert np.max(np.abs(w10.alpha - w1.alpha)) <= 1e-12

    def test_identity_kernel_all_ones(self):
        kern = KernelMatrix.from_dense(np.eye(7))
        for gamma in (0.1, 0.3, 0.5):
            w = sinkhorn_weights(kern, DemocraticConfig(gamma=gamma, n_iter=10))
            np.testing.assert_array_equal(w.alpha, np.ones(7))

    def test_matches_reimplemented_loop(self):
        kern = _random_clipped_kernel(0)
        cfg = DemocraticConfig(gamma=0.3, n_iter=10, clip=False)
        w = sinkhorn_weights(kern, cfg)
        oracle, history = _scaling_oracle(kern.to_dense(), 0.3, 10)
        assert np.max(np.abs(w.alpha - oracle)) <= 1e-12
        # Also per-iteration agreement.
        for i, snapshot in enumerate(history, start=1):
            wi = sinkhorn_weights(kern, DemocraticConfig(gamma=0.3, n_iter=i, clip=False))
            assert np.max(np.abs(wi.alpha - snapshot)) <= 1e-12

    def test_share_spread_decreases(self):
        """The coefficient of variation of the shares drops from iteration 0."""
        for seed in range(5):
            kern = _random_clipped_kernel(seed)
            w = sinkhorn_weights(kern, DemocraticConfig(gamma=0.3, n_iter=10))
            sigma0 = kern.matvec(np.ones(kern.n))
            sigma = w.alpha * kern.matvec(w.alpha)
            cv0 = sigma0.std() / sigma0.mean()
            cv = sigma.std() / sigma.mean()
            assert cv < cv0

    def test_weights_strictly_positive(self):
        for seed in range(5):
            kern = _random_clipped_kernel(seed)
            w = sinkhorn_weights(kern, DemocraticConfig())
            assert np.all(w.alpha > 0.0)

    def test_scale_equivariance_direction(self):
        """Scaling K only rescales the weights: cosine stays 1."""
        kern = _random_clipped_kernel(1)
        scaled = KernelMatrix.from_dense(kern.to_dense() * 7.3)
        a = sinkhorn_weights(kern, DemocraticConfig(gamma=0.3)).alpha
        b = sinkhorn_weights(scaled, DemocraticConfig(gamma=0.3)).alpha
        cosine = (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(cosine - 1.0) <= 1e-9

    def test_zero_row_gets_unit_weight(self):
        mat = np.eye(3)
        mat[2, 2] = 0.0  # fully isolated zero embedding
        w = sinkhorn_weights(KernelMatrix.from_dense(mat), DemocraticConfig(gamma=0.5))
        np.testing.assert_array_equal(w.alpha, [1.0, 1.0, 1.0])

    def test_clipped_row_without_positive_entry_keeps_unit_weight(self):
        mat = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]])
        w = sinkhorn_weights(KernelMatrix.from_dense(mat), DemocraticConfig(gamma=0.5))
        np.testing.assert_array_equal(w.alpha, [1.0, 1.0, 1.0])

    def test_clip_paths_agree_on_nonnegative_kernel(self):
        """Row sums (clip) and absolute row sums (no clip) find the same zero rows."""
        mat = _random_clipped_kernel(12).to_dense()
        mat[4, :] = mat[:, 4] = 0.0
        kern = KernelMatrix.from_dense(mat)
        clipped = sinkhorn_weights(kern, DemocraticConfig(clip=True))
        unclipped = sinkhorn_weights(kern, DemocraticConfig(clip=False))
        assert clipped.alpha[4] == 1.0
        assert clipped.alpha.tobytes() == unclipped.alpha.tobytes()

    def test_unclipped_negative_row_sum_raises(self):
        mat = np.array([[1.0, -2.0], [-2.0, 1.0]])
        with pytest.raises(ScalingError, match="clip"):
            sinkhorn_weights(KernelMatrix.from_dense(mat), DemocraticConfig(clip=False))

    def test_block_path_matches_dense_path(self):
        rng = np.random.default_rng(11)
        ds = DescriptorSet(rng.normal(size=(60, 5)).astype(np.float32))
        cb = Codebook(rng.normal(size=(4, 5)))
        emb = embed_set(ds, cb, EmbeddingConfig("residual"))
        dense_emb = EmbeddedSet(phi=emb.phi)
        wb = sinkhorn_weights(gram(emb), DemocraticConfig())
        wd = sinkhorn_weights(gram(dense_emb), DemocraticConfig())
        assert np.max(np.abs(wb.alpha - wd.alpha)) <= 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DemocraticConfig(gamma=0.6)
        with pytest.raises(ValueError):
            DemocraticConfig(gamma=0.0)
        with pytest.raises(ValueError):
            DemocraticConfig(n_iter=0)


class TestAggregateDemocratic:
    def test_bow_counts_square_root(self):
        emb = _bow_toy()
        w = sinkhorn_weights(gram(emb), DemocraticConfig(gamma=0.5))
        np.testing.assert_allclose(aggregate_democratic(emb, w).xi, [2.0, 1.0], atol=1e-12)

    def test_uniform_weights_equal_sum(self):
        rng = np.random.default_rng(12)
        emb = EmbeddedSet(phi=rng.normal(size=(6, 9)))
        w = WeightVector(np.ones(9), "democratic")
        np.testing.assert_allclose(
            aggregate_democratic(emb, w).xi, aggregate_sum(emb).xi, atol=1e-12
        )

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(13)
        phi = rng.normal(size=(8, 15))
        alpha = rng.uniform(0.1, 2.0, size=15)
        emb = EmbeddedSet(phi=phi)
        got = aggregate_democratic(emb, WeightVector(alpha, "democratic")).xi
        oracle = np.zeros(8)
        for i in range(15):
            oracle += alpha[i] * phi[:, i]
        assert np.max(np.abs(got - oracle)) <= 1e-12

    def test_method_enforced(self):
        emb = _bow_toy()
        with pytest.raises(ValueError, match="democratic"):
            aggregate_democratic(emb, WeightVector(np.ones(5), "gmp"))

    def test_length_mismatch(self):
        emb = _bow_toy()
        with pytest.raises(ValueError, match="length"):
            aggregate_democratic(emb, WeightVector(np.ones(3), "democratic"))


class TestHellingerEquivalence:
    def test_random_bow_instances(self):
        """l2-normalized democratic BOW equals l2-normalized sqrt of counts."""
        rng = np.random.default_rng(14)
        for _ in range(20):
            c = int(rng.integers(2, 12))
            n = int(rng.integers(1, 60))
            assignment = rng.integers(0, c, size=n)
            phi = np.zeros((c, n))
            phi[assignment, np.arange(n)] = 1.0
            layout = tuple((k, k + 1) for k in range(c))
            emb = EmbeddedSet(phi=phi, assignment=assignment, block_layout=layout, unit_columns=True)
            w = sinkhorn_weights(gram(emb), DemocraticConfig(gamma=0.5))
            agg = aggregate_democratic(emb, w).xi
            agg /= np.linalg.norm(agg)
            counts = np.bincount(assignment, minlength=c).astype(np.float64)
            hellinger = np.sqrt(counts)
            hellinger /= np.linalg.norm(hellinger)
            assert np.max(np.abs(agg - hellinger)) <= 1e-6
