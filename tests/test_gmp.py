"""Generalized max pooling: solver, set and kernel paths, primal/dual
consistency, max-pool limit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkagg.democratic import aggregate_sum
from mkagg.embed import EmbeddingConfig, embed_set
from mkagg.gmp import GmpConfig, aggregate_gmp, gmp_weights
from mkagg.kernel import gram
from mkagg.types import (
    Codebook,
    DescriptorSet,
    EmbeddedSet,
    KernelMatrix,
    WeightVector,
)
from oracles import gmp_primal, maxpool_oracle


def _bow_toy():
    ds = DescriptorSet(np.array([[0.0], [0.1], [-0.1], [0.05], [10.0]], dtype=np.float32))
    cb = Codebook(np.array([[0.0], [10.0]]))
    return embed_set(ds, cb, EmbeddingConfig("bow"))


def _codeword_set(counts, q):
    """Embedding whose columns repeat codeword k counts[k] times."""
    cols = [q[:, k] for k, c in enumerate(counts) for _ in range(c)]
    return EmbeddedSet(phi=np.stack(cols, axis=1))


def _random_orthonormal(rng, dim, c):
    mat = rng.normal(size=(dim, c))
    qmat, _ = np.linalg.qr(mat)
    return qmat[:, :c]


def _cosine(a, b):
    return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


class TestGmpWeights:
    def test_bow_toy_lambda_one(self):
        """Direct dense solve of (K + I) a = 1 as oracle."""
        kern = gram(_bow_toy())
        oracle = np.linalg.solve(kern.to_dense() + np.eye(5), np.ones(5))
        w = gmp_weights(kern, GmpConfig(lam=1.0))
        np.testing.assert_allclose(w.alpha, oracle, atol=1e-9)
        np.testing.assert_allclose(w.alpha, [0.2, 0.2, 0.2, 0.2, 0.5], atol=1e-9)

    def test_bow_toy_tiny_lambda_minimum_norm(self):
        """The singular all-ones block: pseudo-inverse oracle."""
        kern = gram(_bow_toy())
        w = gmp_weights(kern, GmpConfig(lam=1e-7))
        oracle = np.linalg.pinv(kern.to_dense()) @ np.ones(5)
        np.testing.assert_allclose(w.alpha, oracle, atol=1e-6)
        np.testing.assert_allclose(w.alpha, [0.25, 0.25, 0.25, 0.25, 1.0], atol=1e-6)

    def test_identity_kernel(self):
        kern = KernelMatrix.from_dense(np.eye(6))
        for lam in (0.0, 0.5, 1.0, 10.0):
            w = gmp_weights(kern, GmpConfig(lam=lam))
            np.testing.assert_allclose(w.alpha, np.full(6, 1.0 / (1.0 + lam)), atol=1e-10)

    def test_cg_matches_direct_solve(self):
        """Random PSD systems up to n=300 against a dense factorization."""
        rng = np.random.default_rng(20)
        for n in (10, 77, 300):
            base = rng.normal(size=(n, n))
            mat = base @ base.T / n
            kern = KernelMatrix.from_dense(mat)
            for lam in (0.01, 1.0):
                w = gmp_weights(kern, GmpConfig(lam=lam))
                oracle = np.linalg.solve(mat + lam * np.eye(n), np.ones(n))
                assert np.max(np.abs(w.alpha - oracle)) <= 1e-5

    def test_block_path_matches_dense_path(self):
        rng = np.random.default_rng(21)
        ds = DescriptorSet(rng.normal(size=(80, 5)).astype(np.float32))
        cb = Codebook(rng.normal(size=(6, 5)))
        emb = embed_set(ds, cb, EmbeddingConfig("residual"))
        dense_emb = EmbeddedSet(phi=emb.phi)
        wb = gmp_weights(gram(emb), GmpConfig(lam=1.0))
        wd = gmp_weights(gram(dense_emb), GmpConfig(lam=1.0))
        assert np.max(np.abs(wb.alpha - wd.alpha)) <= 1e-6

    def test_rotation_invariance(self):
        """Rotating the embeddings leaves the kernel, hence the weights, unchanged."""
        rng = np.random.default_rng(22)
        phi = rng.normal(size=(12, 8))
        rot = _random_orthonormal(rng, 12, 12)
        w1 = gmp_weights(gram(EmbeddedSet(phi=phi)), GmpConfig(lam=1.0))
        w2 = gmp_weights(gram(EmbeddedSet(phi=rot @ phi)), GmpConfig(lam=1.0))
        assert np.max(np.abs(w1.alpha - w2.alpha)) <= 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GmpConfig(lam=-1.0)


class TestTinyLambda:
    @pytest.mark.parametrize("lam", [1e-17, 1e-300, 0.0])
    def test_all_ones_block_gives_one_third(self, lam):
        """K + lambda I rounds to the singular all-ones matrix: minimum-norm weights."""
        w = gmp_weights(KernelMatrix.from_dense(np.ones((3, 3))), GmpConfig(lam=lam))
        np.testing.assert_allclose(w.alpha, np.full(3, 1.0 / 3.0), rtol=1e-12)

    def test_singular_solve_error_is_a_value_error(self):
        """Were a singular solve's error to escape, the CLI would still exit 2."""
        assert issubclass(np.linalg.LinAlgError, ValueError)

    @pytest.mark.parametrize("lam", [1e-17, 1e-8, 1.0])
    def test_bow_set_path_counts_each_word_once(self, lam):
        """The primal's 1 - R xi cancels at tiny lambda; the set path must not lose the weights."""
        w = gmp_weights(_bow_toy(), GmpConfig(lam=lam))
        want = [1 / (4 + lam)] * 4 + [1 / (1 + lam)]
        np.testing.assert_allclose(w.alpha, want, rtol=1e-7)


@st.composite
def _gmp_sets(draw):
    """Bow, residual-like or one-block dense sets whose blocks hold fewer, as
    many or more descriptors than their width, some rows zero."""
    kind = draw(st.sampled_from(["bow", "residual", "dense"]))
    w = 1 if kind == "bow" else draw(st.integers(1, 8))
    c = 1 if kind == "dense" else draw(st.integers(1, 4))
    sizes = [max(0, w + draw(st.integers(-w, w + 3))) for _ in range(c)]
    if sum(sizes) == 0:
        sizes[0] = 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    assignment = rng.permutation(np.repeat(np.arange(c), sizes))
    n = assignment.size
    if kind == "bow":
        rows = np.ones((n, 1))
    elif kind == "residual":
        rows = rng.normal(size=(n, w))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    else:
        rows = rng.uniform(-1.0, 1.0, size=(n, w))
    rows[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    phi = np.zeros((c, w, n))
    phi[assignment, :, np.arange(n)] = rows
    layout = tuple((k * w, (k + 1) * w) for k in range(c))
    return EmbeddedSet(phi=phi.reshape(c * w, n), assignment=assignment, block_layout=layout)


class TestSetPath:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_gmp_sets(), st.sampled_from([0.0, 1e-8, 1e-3, 1.0, 1e6]))
    def test_matches_kernel_path(self, emb, lam):
        """Solving each block from its rows pools to the kernel path's aggregate."""
        cfg = GmpConfig(lam=lam)
        from_rows = aggregate_gmp(emb, gmp_weights(emb, cfg)).xi
        from_kernel = aggregate_gmp(emb, gmp_weights(gram(emb), cfg)).xi
        tol = 1e-9 if lam >= 1e-3 else 1e-6
        assert np.max(np.abs(from_rows - from_kernel)) <= tol * max(1.0, np.max(np.abs(from_kernel)))

    def test_empty_set_rejected(self):
        emb = EmbeddedSet(phi=np.zeros((3, 0)))
        with pytest.raises(ValueError, match="empty"):
            gmp_weights(emb, GmpConfig())


class TestAggregateGmp:
    def test_bow_toy_lambda_to_zero_is_max_pooled(self):
        emb = _bow_toy()
        w = gmp_weights(gram(emb), GmpConfig(lam=1e-8))
        np.testing.assert_allclose(aggregate_gmp(emb, w).xi, [1.0, 1.0], atol=1e-6)

    def test_bow_toy_lambda_one(self):
        emb = _bow_toy()
        w = gmp_weights(gram(emb), GmpConfig(lam=1.0))
        np.testing.assert_allclose(aggregate_gmp(emb, w).xi, [0.8, 0.5], atol=1e-9)

    def test_huge_lambda_recovers_sum_pooling(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            phi = rng.normal(size=(10, 15))
            emb = EmbeddedSet(phi=phi)
            w = gmp_weights(gram(emb), GmpConfig(lam=1e6))
            assert _cosine(aggregate_gmp(emb, w).xi, aggregate_sum(emb).xi) >= 1.0 - 1e-6

    def test_method_enforced(self):
        emb = _bow_toy()
        with pytest.raises(ValueError, match="gmp"):
            aggregate_gmp(emb, WeightVector(np.ones(5), "uniform"))


class TestGmpPrimal:
    def test_matches_dual_path(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            phi = rng.normal(size=(40, 30))
            emb = EmbeddedSet(phi=phi)
            primal = gmp_primal(emb, GmpConfig(lam=1.0)).xi
            dual = aggregate_gmp(emb, gmp_weights(gram(emb), GmpConfig(lam=1.0))).xi
            assert np.max(np.abs(primal - dual)) <= 1e-6 * max(1.0, np.max(np.abs(dual)))

    def test_orthonormal_columns_sum(self):
        rng = np.random.default_rng(26)
        phi = _random_orthonormal(rng, 20, 6)
        emb = EmbeddedSet(phi=phi)
        np.testing.assert_allclose(gmp_primal(emb, GmpConfig(lam=0.0)).xi, phi.sum(axis=1), atol=1e-9)

    def test_bow_toy(self):
        emb = _bow_toy()
        np.testing.assert_allclose(gmp_primal(emb, GmpConfig(lam=1.0)).xi, [0.8, 0.5], atol=1e-9)

    def test_dimension_cap(self):
        emb = EmbeddedSet(phi=np.eye(8))
        with pytest.raises(ValueError, match="cap"):
            gmp_primal(emb, GmpConfig(), dim_cap=4)


class TestMaxpoolOracle:
    def test_identity_codebook_single_word(self):
        q = np.eye(3)
        emb = _codeword_set([2, 0, 0], q)
        np.testing.assert_array_equal(maxpool_oracle(emb, q), [1.0, 0.0, 0.0])

    def test_counts_do_not_matter(self):
        rng = np.random.default_rng(27)
        q = _random_orthonormal(rng, 10, 2)
        out = maxpool_oracle(_codeword_set([7, 1], q), q)
        np.testing.assert_allclose(out, q[:, 0] + q[:, 1], atol=1e-12)
        out2 = maxpool_oracle(_codeword_set([1, 7], q), q)
        np.testing.assert_allclose(out, out2, atol=1e-12)

    def test_matches_unregularized_gmp(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            c = int(rng.integers(2, 8))
            dim = int(rng.integers(c, 24))
            q = _random_orthonormal(rng, dim, c)
            counts = rng.integers(0, 5, size=c)
            if counts.sum() == 0:
                counts[0] = 1
            emb = _codeword_set(list(counts), q)
            oracle = maxpool_oracle(emb, q)
            w = gmp_weights(gram(emb), GmpConfig(lam=1e-8))
            assert _cosine(aggregate_gmp(emb, w).xi, oracle) >= 1.0 - 1e-5

    def test_unmatched_column_rejected(self):
        q = np.eye(3)
        emb = EmbeddedSet(phi=np.array([[0.5], [0.5], [0.0]]))
        with pytest.raises(ValueError, match="no codeword"):
            maxpool_oracle(emb, q)

    def test_non_orthonormal_codebook_rejected(self):
        q = np.array([[1.0, 1.0], [0.0, 0.0]])
        emb = _codeword_set([1, 1], q)
        with pytest.raises(ValueError, match="orthonormal"):
            maxpool_oracle(emb, q)


class TestGmpProperties:
    def test_matching_property(self):
        """For tiny lambda and full-column-rank Phi, Phi^T xi is almost constant."""
        rng = np.random.default_rng(29)
        for _ in range(5):
            n = int(rng.integers(5, 20))
            phi = rng.normal(size=(4 * n, n)) / np.sqrt(4 * n)
            emb = EmbeddedSet(phi=phi)
            w = gmp_weights(gram(emb), GmpConfig(lam=1e-7))
            xi = aggregate_gmp(emb, w).xi
            assert np.max(np.abs(phi.T @ xi - 1.0)) <= 1e-4

    def test_duplicate_descriptor_invariance(self):
        rng = np.random.default_rng(30)
        q = _random_orthonormal(rng, 16, 5)
        counts = [3, 1, 0, 2, 1]
        emb = _codeword_set(counts, q)
        dup = _codeword_set([4, 1, 0, 2, 1], q)  # one more copy of codeword 0
        xi = aggregate_gmp(emb, gmp_weights(gram(emb), GmpConfig(lam=1e-8))).xi
        xi_dup = aggregate_gmp(dup, gmp_weights(gram(dup), GmpConfig(lam=1e-8))).xi
        assert np.max(np.abs(xi - xi_dup)) <= 1e-5

    def test_lambda_continuity(self):
        rng = np.random.default_rng(31)
        phi = rng.normal(size=(20, 12))
        emb = EmbeddedSet(phi=phi)
        for lam in (1e-3, 1e-1, 1.0, 1e2):
            a = aggregate_gmp(emb, gmp_weights(gram(emb), GmpConfig(lam=lam))).xi
            b = aggregate_gmp(emb, gmp_weights(gram(emb), GmpConfig(lam=lam * (1 + 1e-6)))).xi
            assert np.max(np.abs(a - b)) <= 1e-4 * max(1.0, np.max(np.abs(a)))
