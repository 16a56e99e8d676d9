"""Gram matrix construction and clipping."""

import numpy as np
import pytest

from mkagg.embed import EmbeddingConfig, embed_set
from mkagg.kernel import clip_negatives, gram
from mkagg.types import Codebook, DescriptorSet, EmbeddedSet, KernelMatrix


def _bow_toy():
    ds = DescriptorSet(np.array([[0.0], [0.1], [-0.1], [0.05], [10.0]], dtype=np.float32))
    cb = Codebook(np.array([[0.0], [10.0]]))
    return embed_set(ds, cb, EmbeddingConfig("bow"))


def _random_residual(seed, n=50, c=4, d=6):
    rng = np.random.default_rng(seed)
    ds = DescriptorSet(rng.normal(size=(n, d)).astype(np.float32))
    cb = Codebook(rng.normal(size=(c, d)))
    return embed_set(ds, cb, EmbeddingConfig("residual"))


class TestGram:
    def test_bow_block_of_ones(self):
        emb = _bow_toy()
        kern = gram(emb)
        assert len(kern.blocks) == np.unique(emb.assignment).size
        sizes = sorted(b.indices.size for b in kern.blocks)
        assert sizes == [1, 4]
        for b in kern.blocks:
            np.testing.assert_array_equal(b.values, np.ones((b.indices.size,) * 2))
        expected = np.zeros((5, 5))
        expected[:4, :4] = 1.0
        expected[4, 4] = 1.0
        np.testing.assert_array_equal(kern.to_dense(), expected)

    def test_single_unit_descriptor(self):
        emb = EmbeddedSet(phi=np.array([[0.6], [0.8]]))
        kern = gram(emb)
        np.testing.assert_allclose(kern.to_dense(), [[1.0]], atol=1e-12)

    def test_block_matches_dense_product(self):
        emb = _random_residual(0)
        kern = gram(emb)
        assert len(kern.blocks) == np.unique(emb.assignment).size
        dense_oracle = emb.phi.T @ emb.phi
        assert np.max(np.abs(kern.to_dense() - dense_oracle)) <= 1e-12

    def test_positive_semidefinite(self):
        for seed in range(5):
            emb = _random_residual(seed, n=40)
            kern = gram(emb).to_dense()
            eigmin = np.linalg.eigvalsh(kern).min()
            assert eigmin >= -1e-8 * np.linalg.norm(kern)

    def test_unit_diagonal_for_unit_columns(self):
        emb = _random_residual(1)
        np.testing.assert_allclose(np.linalg.norm(emb.rows, axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(np.diag(gram(emb).to_dense()), 1.0, atol=1e-6)


class TestClipNegatives:
    def test_direct(self):
        kern = KernelMatrix.from_dense(np.array([[1.0, -0.3], [-0.3, 1.0]]))
        np.testing.assert_array_equal(clip_negatives(kern).to_dense(), np.eye(2))

    def test_nonnegative_fixed_point(self):
        mat = np.array([[1.0, 0.2], [0.2, 1.0]])
        kern = KernelMatrix.from_dense(mat)
        np.testing.assert_array_equal(clip_negatives(kern).to_dense(), mat)

    def test_min_entry_scan(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=(10, 10))
        kern = KernelMatrix.from_dense(raw + raw.T)
        clipped = clip_negatives(kern).to_dense()
        assert clipped.min() == max(0.0, (raw + raw.T).min())
        np.testing.assert_array_equal(clipped, np.maximum(raw + raw.T, 0.0))

    def test_block_storage_preserved(self):
        emb = _random_residual(2)
        clipped = clip_negatives(gram(emb))
        assert len(clipped.blocks) == np.unique(emb.assignment).size
        np.testing.assert_array_equal(
            clipped.to_dense(), np.maximum(gram(emb).to_dense(), 0.0)
        )

