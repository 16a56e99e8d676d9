"""Domain type invariants: validation, immutability, block storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mkagg.types import (
    AggregateVector,
    Codebook,
    DescriptorSet,
    EmbeddedSet,
    KernelBlock,
    KernelMatrix,
    WeightVector,
)


class TestDescriptorSet:
    def test_stores_float32_and_order(self):
        data = np.array([[3.0, 1.0], [0.5, -2.0]])
        ds = DescriptorSet(data)
        assert ds.data.dtype == np.float32
        assert (ds.n, ds.d) == (2, 2)
        np.testing.assert_array_equal(ds.data, data.astype(np.float32))

    def test_empty_set_is_representable(self):
        ds = DescriptorSet(np.zeros((0, 4), dtype=np.float32))
        assert ds.n == 0 and ds.d == 4

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            DescriptorSet(np.array([[np.nan]]))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match="d must be"):
            DescriptorSet(np.zeros((3, 0), dtype=np.float32))


class TestCodebook:
    def test_rejects_duplicate_centroids(self):
        with pytest.raises(ValueError, match="duplicated"):
            Codebook(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_accepts_distinct(self):
        cb = Codebook(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert cb.c == 2 and cb.d == 2

    def test_duplicate_names_lowest_index_with_later_duplicate(self):
        # Rows 2 and 4 sort first, but row 1 is the lowest with a later copy.
        cent = np.array([[9.0, 9.0], [3.0, 3.0], [0.0, 1.0], [3.0, 3.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"^centroid 1 is duplicated$"):
            Codebook(cent)

    def test_negative_zero_equals_zero(self):
        with pytest.raises(ValueError, match=r"^centroid 0 is duplicated$"):
            Codebook(np.array([[0.0, 1.0], [2.0, 2.0], [-0.0, 1.0]]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 3)),
                  elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0])))
    def test_duplicate_check_matches_pairwise_scan(self, cent):
        expected = next(
            (i for i in range(cent.shape[0]) if np.any(np.all(cent[i + 1 :] == cent[i], axis=1))),
            None,
        )
        if expected is None:
            assert Codebook(cent).c == cent.shape[0]
        else:
            with pytest.raises(ValueError, match=rf"^centroid {expected} is duplicated$"):
                Codebook(cent)


class TestEmbeddedSet:
    def test_block_support_violation_detected(self):
        phi = np.zeros((4, 2))
        phi[0, 0] = 1.0
        phi[2, 0] = 0.5  # column 0 assigned to block 0 but leaks into block 1
        phi[2, 1] = 1.0
        with pytest.raises(ValueError, match="outside its assigned block"):
            EmbeddedSet(
                phi=phi,
                assignment=np.array([0, 1]),
                block_layout=((0, 2), (2, 4)),
            )

    def test_valid_block_sparse(self):
        phi = np.zeros((4, 2))
        phi[0, 0] = 1.0
        phi[3, 1] = 1.0
        es = EmbeddedSet(phi=phi, assignment=np.array([0, 1]), block_layout=((0, 2), (2, 4)))
        assert es.dim == 4 and es.n == 2

    def test_unit_columns_checked(self):
        phi = np.array([[2.0], [0.0]])
        with pytest.raises(ValueError, match="unit_columns"):
            EmbeddedSet(phi=phi, unit_columns=True)

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 2)])
    def test_matches_rejects_a_vector_of_another_dimension(self, shape):
        es = EmbeddedSet(
            phi=np.zeros((4, 2)), assignment=np.array([0, 1]), block_layout=((0, 2), (2, 4))
        )
        with pytest.raises(ValueError, match="dimension 4"):
            es.matches(np.zeros(shape))

    def test_assignment_requires_layout(self):
        with pytest.raises(ValueError, match="together"):
            EmbeddedSet(phi=np.eye(2), assignment=np.array([0, 1]))


class TestKernelMatrix:
    def test_symmetry_enforced(self):
        mat = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            KernelMatrix.from_dense(mat)

    def test_block_expansion_matches_dense_product(self):
        """Block storage must expand to exactly the dense Gram computation."""
        rng = np.random.default_rng(7)
        d, c, n = 3, 4, 30
        assignment = rng.integers(0, c, size=n)
        phi = np.zeros((c * d, n))
        for i in range(n):
            phi[assignment[i] * d : (assignment[i] + 1) * d, i] = rng.normal(size=d)
        dense = phi.T @ phi

        blocks = []
        for k in range(c):
            cols = np.flatnonzero(assignment == k)
            if cols.size:
                sub = phi[k * d : (k + 1) * d][:, cols]
                blocks.append(KernelBlock(indices=cols, values=sub.T @ sub))
        kern = KernelMatrix(n=n, blocks=tuple(blocks))
        assert np.max(np.abs(kern.to_dense() - dense)) <= 1e-12

    def test_blocks_must_partition(self):
        block = KernelBlock(indices=np.array([0, 2]), values=np.eye(2))
        with pytest.raises(ValueError, match="partition"):
            KernelMatrix(n=4, blocks=(block,))

    def test_matvec_block_vs_dense(self):
        rng = np.random.default_rng(3)
        b0 = rng.normal(size=(2, 2))
        b1 = rng.normal(size=(3, 3))
        blocks = (
            KernelBlock(indices=np.array([1, 3]), values=b0 + b0.T),
            KernelBlock(indices=np.array([0, 2, 4]), values=b1 + b1.T),
        )
        kern = KernelMatrix(n=5, blocks=blocks)
        v = rng.normal(size=5)
        np.testing.assert_allclose(kern.matvec(v), kern.to_dense() @ v, atol=1e-12)

    def test_dense_diagonal(self):
        kern = KernelMatrix.from_dense(np.array([[2.0, -1.0], [-1.0, 3.0]]))
        np.testing.assert_array_equal(np.diag(kern.to_dense()), [2.0, 3.0])


class TestWeightVector:
    def test_democratic_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            WeightVector(np.array([1.0, 0.0]), "democratic")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            WeightVector(np.ones(2), "magic")


class TestAggregateVector:
    def test_l2_state_norm_checked(self):
        with pytest.raises(ValueError, match="norm"):
            AggregateVector(np.array([2.0, 0.0]), ("raw", "l2"))

    def test_l2_state_accepts_unit(self):
        v = AggregateVector(np.array([0.6, 0.8]), ("raw", "l2"))
        assert v.is_normalized

    def test_raw_default(self):
        v = AggregateVector(np.array([5.0, 1.0]))
        assert v.state == ("raw",)
        assert not v.is_normalized
