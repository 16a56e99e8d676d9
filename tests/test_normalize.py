"""Normalization chain: power law, rotation fitting, truncation, similarity."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import orthonormal_direct, rn_fit_gram_schmidt

from mkagg import normalize
from mkagg.democratic import DemocraticConfig, aggregate_democratic, aggregate_sum, sinkhorn_weights
from mkagg.kernel import gram
from mkagg.normalize import (
    NormalizeConfig,
    apply_chain,
    l2_normalize,
    power_law,
    rn_fit,
    similarity,
)
from mkagg.types import AggregateVector, EmbeddedSet, ZeroVectorError


class TestPowerLaw:
    def test_signed_square_root(self):
        np.testing.assert_allclose(power_law(np.array([-4.0, 0.25]), 0.5), [-2.0, 0.5], atol=1e-12)

    def test_exponent_one_is_identity(self):
        v = np.array([-3.0, 0.0, 2.5])
        np.testing.assert_array_equal(power_law(v, 1.0), v)

    def test_exponent_zero_binarizes(self):
        np.testing.assert_array_equal(power_law(np.array([-3.0, 0.0, 2.0]), 0.0), [-1.0, 0.0, 1.0])

    def test_zero_maps_to_zero_for_all_exponents(self):
        for a in (0.0, 0.3, 0.5, 1.0):
            assert power_law(np.array([0.0]), a)[0] == 0.0


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-12)

    def test_idempotent_on_unit(self):
        v = np.array([0.6, 0.8])
        np.testing.assert_allclose(l2_normalize(v), v, atol=1e-12)

    def test_norm_and_direction(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            v = rng.normal(size=10)
            out = l2_normalize(v)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
            np.testing.assert_allclose(out * np.linalg.norm(v), v, atol=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize(np.zeros(4))


def _vecs(rows):
    return [AggregateVector(np.asarray(r, dtype=np.float64)) for r in rows]


# Eigen-gap, relative to the largest eigenvalue, at or below which a principal
# direction is not unique (the benchmark's rotation check uses the same rule).
_LEAD_GAP = 1e-6


def _separated_rows(data, n_lead):
    """Indices j < n_lead whose covariance eigenvalue is apart from its neighbours'."""
    centered = data - data.mean(axis=0)
    evals = np.linalg.eigvalsh(centered.T @ centered)[::-1]
    out = []
    for j in range(min(n_lead, len(data) - 1)):
        gaps = [evals[k] - evals[k + 1] for k in (j - 1, j) if 0 <= k < len(evals) - 1]
        if not gaps or min(gaps) > _LEAD_GAP * evals[0]:
            out.append(j)
    return out


class TestRnFit:
    def test_rank_one_axis(self):
        """Vectors along e3: first row is +e3 under the sign rule."""
        rows = [[0.0, 0.0, t] for t in (-2.0, 1.0, 3.0, 0.5)]
        rot = rn_fit(_vecs(rows), max_eigvecs=1)
        np.testing.assert_allclose(rot[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_output_orthonormal(self):
        rng = np.random.default_rng(41)
        rows = rng.normal(size=(30, 12))
        rot = rn_fit(_vecs(rows), max_eigvecs=5)
        assert np.max(np.abs(rot.T @ rot - np.eye(12))) <= 1e-9
        assert np.max(np.abs(rot @ rot.T - np.eye(12))) <= 1e-9

    def test_leading_rows_match_eigensolver(self):
        """Cross-check against an eigendecomposition of the covariance."""
        rng = np.random.default_rng(42)
        rows = rng.normal(size=(100, 16)) @ np.diag(np.linspace(3.0, 0.3, 16))
        rot = rn_fit(_vecs(rows), max_eigvecs=4)

        data = rows - rows.mean(axis=0)
        cov = data.T @ data / data.shape[0]
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        for i in range(4):
            expected = eigvecs[:, order[i]]
            if expected[np.argmax(np.abs(expected))] < 0:
                expected = -expected
            assert np.max(np.abs(rot[i] - expected)) <= 1e-8

    def test_rotation_preserves_norms(self):
        rng = np.random.default_rng(43)
        rows = rng.normal(size=(20, 8))
        rot = rn_fit(_vecs(rows), max_eigvecs=3)
        for _ in range(10):
            v = rng.normal(size=8)
            assert abs(np.linalg.norm(rot @ v) - np.linalg.norm(v)) <= 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(44)
        rows = rng.normal(size=(15, 6))
        a = rn_fit(_vecs(rows), max_eigvecs=2)
        b = rn_fit(_vecs(rows), max_eigvecs=2)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 40),
        dim=st.integers(1, 48),
        max_eigvecs=st.integers(1, 64),
        rank=st.integers(1, 48),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_principal_rows_match_gram_schmidt_oracle(self, n, dim, max_eigvecs, rank, seed):
        """Orthonormal, signed, deterministic, and every separated principal row is the oracle's."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, dim))
        rot = rn_fit(_vecs(data), max_eigvecs=max_eigvecs)
        eye = np.eye(dim)
        assert np.max(np.abs(rot.T @ rot - eye)) <= 1e-9
        assert np.max(np.abs(rot @ rot.T - eye)) <= 1e-9
        n_lead = min(max_eigvecs, dim)
        for row in rot:
            assert row[np.argmax(np.abs(row))] > 0.0
        assert rot.tobytes() == rn_fit(_vecs(data), max_eigvecs=max_eigvecs).tobytes()
        oracle = rn_fit_gram_schmidt(_vecs(data), max_eigvecs=max_eigvecs)
        for j in _separated_rows(data, n_lead):
            assert np.max(np.abs(rot[j] - oracle[j])) <= 1e-12, j

    @pytest.mark.parametrize("n, dim", [(5, 8), (30, 8), (12, 12), (3, 40)])
    def test_every_row_signed_and_max_eigvecs_ignored(self, n, dim):
        """Rows past the data's rank included; any ``max_eigvecs`` gives the same bytes."""
        rows = np.random.default_rng(48).normal(size=(n, dim))
        rot = rn_fit(_vecs(rows))
        for row in rot:
            assert row[np.argmax(np.abs(row))] > 0.0
        for k in (1, 3, dim, 4 * dim):
            assert rn_fit(_vecs(rows), max_eigvecs=k).tobytes() == rot.tobytes()

    def test_memory_does_not_grow_with_training_set_squared(self):
        """n = 6000 vectors at D = 4: nothing n x n is allocated."""
        vectors = _vecs(np.random.default_rng(49).normal(size=(6000, 4)))
        tracemalloc.start()
        try:
            rn_fit(vectors, max_eigvecs=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_fits_at_bursty_dimension(self):
        """D = 2048 from 4 vectors: orthonormal, rows past the rank orthogonal to the data, fast."""
        rows = np.random.default_rng(50).normal(size=(4, 2048))
        start = time.perf_counter()
        rot = rn_fit(_vecs(rows), max_eigvecs=64)
        elapsed = time.perf_counter() - start
        assert np.max(np.abs(rot @ rot.T - np.eye(2048))) <= 1e-9
        centered = rows - rows.mean(axis=0)
        assert np.max(np.abs(centered @ rot[3:].T)) <= 1e-9
        assert elapsed < 2.0

    def test_too_few_vectors(self):
        with pytest.raises(ValueError, match="at least 2"):
            rn_fit(_vecs([[1.0, 0.0]]), max_eigvecs=1)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimensionality"):
            rn_fit([AggregateVector(np.zeros(2) + 1), AggregateVector(np.zeros(3) + 1)], 1)


class TestApplyChain:
    def test_reduces_to_l2(self):
        out = apply_chain(AggregateVector(np.array([3.0, 4.0])), NormalizeConfig(alpha_exponent=1.0))
        np.testing.assert_allclose(out.xi, [0.6, 0.8], atol=1e-12)
        assert out.state == ("raw", "power(1)", "l2")

    def test_identity_rotation_single_axis(self):
        cfg = NormalizeConfig(alpha_exponent=0.5, rotation=np.eye(2))
        out = apply_chain(AggregateVector(np.array([4.0, 0.0])), cfg)
        np.testing.assert_allclose(out.xi, [1.0, 0.0], atol=1e-12)
        assert out.state == ("raw", "rotated", "power(0.5)", "l2")

    def test_full_chain_against_step_oracle(self):
        rng = np.random.default_rng(45)
        v = rng.normal(size=8)
        rows = rng.normal(size=(30, 8))
        rot = rn_fit(_vecs(rows), max_eigvecs=8)
        cfg = NormalizeConfig(alpha_exponent=0.5, rotation=rot, truncate_to=4)
        out = apply_chain(AggregateVector(v), cfg)

        step = rot @ v
        step = np.sign(step) * np.abs(step) ** 0.5
        step = step[:4]
        step = step / np.linalg.norm(step)
        np.testing.assert_allclose(out.xi, step, atol=1e-12)
        assert out.state == ("raw", "rotated", "power(0.5)", "truncated(4)", "l2")

    def test_output_norm_is_one(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            out = apply_chain(AggregateVector(rng.normal(size=6)), NormalizeConfig())
            assert abs(np.linalg.norm(out.xi) - 1.0) <= 1e-6

    def test_truncate_then_l2_regression(self):
        """The chain truncates before normalizing, not after."""
        v = np.array([3.0, 0.0, 4.0])
        cfg = NormalizeConfig(alpha_exponent=1.0, truncate_to=2)
        out = apply_chain(AggregateVector(v), cfg)
        np.testing.assert_allclose(out.xi, [1.0, 0.0], atol=1e-12)

    def test_zero_after_truncation_fails(self):
        cfg = NormalizeConfig(alpha_exponent=1.0, truncate_to=1)
        with pytest.raises(ZeroVectorError):
            apply_chain(AggregateVector(np.array([0.0, 5.0])), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            NormalizeConfig(rotation=np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="exponent"):
            NormalizeConfig(alpha_exponent=1.5)


class TestOrthonormalityCheck:
    @pytest.mark.parametrize("panel_rows", [1, 3, 10])
    def test_every_panel_is_checked(self, monkeypatch, panel_rows):
        """R^T R is checked in panels of rows; a defect in any of them is found."""
        monkeypatch.setattr(normalize, "_ORTHO_PANEL_BYTES", 8 * 10 * panel_rows)
        q = np.linalg.qr(np.random.default_rng(0).normal(size=(10, 10)))[0]
        assert NormalizeConfig(rotation=q).rotation is not None
        for j in (0, 4, 9):
            # A stretched column moves only the diagonal entry j of R^T R.
            bad = q.copy()
            bad[:, j] *= 1.0 + 1e-4
            with pytest.raises(ValueError, match="orthonormal"):
                NormalizeConfig(rotation=bad)


def _orthonormal(dim, seed):
    return np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))[0]


# Orthonormal bases for the memo's property test, built once.
_BASES = [_orthonormal(8, seed) for seed in range(3)]


@pytest.fixture
def check_calls(monkeypatch):
    """An empty memo, and the shape of every rotation the panel check runs on."""
    monkeypatch.setattr(normalize, "_VALIDATED", set())
    calls = []
    check = normalize._check_orthonormal

    def counting(rot):
        calls.append(rot.shape)
        check(rot)

    monkeypatch.setattr(normalize, "_check_orthonormal", counting)
    return calls


class _Box:
    """A mutable number: an object array of these keeps its pointers when a value changes."""

    def __init__(self, value):
        self.value = value

    def __float__(self):
        return self.value


class TestRotationMemo:
    """Within a process, each distinct rotation content is checked once."""

    def test_equal_bytes_checked_once(self, check_calls):
        q = _orthonormal(8, 0)
        first = NormalizeConfig(rotation=q)
        second = NormalizeConfig(rotation=q.copy())
        assert len(check_calls) == 1
        np.testing.assert_array_equal(first.rotation, second.rotation)

    def test_one_ulp_is_checked_again(self, check_calls):
        q = _orthonormal(8, 1)
        NormalizeConfig(rotation=q)
        near = q.copy()
        near[2, 3] = np.nextafter(near[2, 3], np.inf)
        NormalizeConfig(rotation=near)
        assert len(check_calls) == 2
        far = q.copy()
        far[2, 3] += 1e-4  # moves row 2's dot products by up to 1e-4 * max|q[2, k]|, well past 1e-6
        with pytest.raises(ValueError, match="orthonormal"):
            NormalizeConfig(rotation=far)
        assert len(check_calls) == 3

    def test_rejection_is_never_remembered(self, check_calls):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        for _ in range(3):
            with pytest.raises(ValueError, match="orthonormal"):
                NormalizeConfig(rotation=bad)
        assert len(check_calls) == 3
        assert not normalize._VALIDATED

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(1, 1), (1, 2)])
    def test_non_finite_rejected(self, check_calls, value, where):
        """A NaN maximum once passed, because NaN > tol is False."""
        rot = np.eye(4)
        rot[where] = value
        for _ in range(2):
            with pytest.raises(ValueError, match="finite"):
                NormalizeConfig(rotation=rot)
            with pytest.raises(ValueError, match="finite"):
                NormalizeConfig(rotation=rot.astype(np.float32))
        assert not normalize._VALIDATED

    def test_overflowing_product_rejected(self, check_calls):
        """Finite but huge entries overflow R^T R; the check still rejects them."""
        rot = np.array([[1e200, -1e200], [1e200, 1e200]])
        with pytest.raises(ValueError, match="orthonormal"):
            NormalizeConfig(rotation=rot)
        assert not normalize._VALIDATED

    def test_float32_and_float64_each_checked(self, check_calls):
        q32 = _orthonormal(8, 2).astype(np.float32)
        from32 = NormalizeConfig(rotation=q32)
        from64 = NormalizeConfig(rotation=q32.astype(np.float64))
        NormalizeConfig(rotation=q32.copy())
        assert len(check_calls) == 2
        assert from32.rotation.dtype == np.float64
        np.testing.assert_array_equal(from32.rotation, from64.rotation)

    def test_object_array_checked_on_values(self, check_calls):
        boxes = np.array([[_Box(1.0), _Box(0.0)], [_Box(0.0), _Box(1.0)]], dtype=object)
        assert NormalizeConfig(rotation=boxes).rotation.dtype == np.float64
        boxes[0, 0].value = 2.0  # same pointers, different values
        with pytest.raises(ValueError, match="orthonormal"):
            NormalizeConfig(rotation=boxes)
        # Keyed on its float64 values, which equal the identity's.
        boxes[0, 0].value = 1.0
        NormalizeConfig(rotation=boxes)
        NormalizeConfig(rotation=np.eye(2))
        assert len(check_calls) == 2

    def test_never_grows_past_cap(self, check_calls, monkeypatch):
        monkeypatch.setattr(normalize, "_VALIDATED_CAP", 3)
        for seed in range(10):
            NormalizeConfig(rotation=_orthonormal(4, seed))
            assert 1 <= len(normalize._VALIDATED) <= 3
        assert len(check_calls) == 10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["orthonormal", "float32", "inside", "outside", "repeat"]),
                st.integers(0, len(_BASES) - 1),
                st.integers(0, 7),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_decisions_match_unmemoized_check(self, steps):
        """Over any sequence of candidates, the memo accepts exactly what the plain check accepts."""
        seen = []
        with mock.patch.object(normalize, "_VALIDATED", set()), \
                mock.patch.object(normalize, "_VALIDATED_CAP", 4):
            for kind, base, col in steps:
                if kind == "repeat" and seen:
                    rot = seen[(base + col) % len(seen)]
                else:
                    rot = _BASES[base].copy()
                    if kind == "float32":
                        rot = rot.astype(np.float32)
                    elif kind in ("inside", "outside"):
                        # Entry (col, col) of R^T R moves by about 2 * eps.
                        rot[:, col] *= 1.0 + (0.49e-6 if kind == "inside" else 0.51e-6)
                    seen.append(rot)
                try:
                    orthonormal_direct(rot)
                    want = True
                except ValueError:
                    want = False
                try:
                    NormalizeConfig(rotation=rot)
                    got = True
                except ValueError:
                    got = False
                assert got == want, kind
                assert len(normalize._VALIDATED) <= 4


class TestSimilarity:
    def test_self_similarity_is_one(self):
        v = apply_chain(AggregateVector(np.array([1.0, 2.0, 3.0])), NormalizeConfig(alpha_exponent=1.0))
        assert abs(similarity(v, v) - 1.0) <= 1e-12

    def test_orthogonal_is_zero(self):
        a = AggregateVector(np.array([1.0, 0.0]), ("raw", "l2"))
        b = AggregateVector(np.array([0.0, 1.0]), ("raw", "l2"))
        assert similarity(a, b) == 0.0

    def test_matches_cosine_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            x, y = rng.normal(size=6), rng.normal(size=6)
            a = AggregateVector(x / np.linalg.norm(x), ("raw", "l2"))
            b = AggregateVector(y / np.linalg.norm(y), ("raw", "l2"))
            oracle = float(x @ y) / (np.linalg.norm(x) * np.linalg.norm(y))
            assert abs(similarity(a, b) - oracle) <= 1e-12

    def test_unnormalized_rejected(self):
        a = AggregateVector(np.array([1.0, 0.0]), ("raw", "l2"))
        b = AggregateVector(np.array([2.0, 0.0]), ("raw",))
        with pytest.raises(ValueError, match="normalized"):
            similarity(a, b)


class TestCountSqrtEquivalence:
    def test_power_half_of_sum_equals_democratic(self):
        """sqrt + l2 of a BOW sum equals the democratic aggregate + l2."""
        rng = np.random.default_rng(48)
        for _ in range(10):
            c = int(rng.integers(2, 10))
            n = int(rng.integers(1, 50))
            assignment = rng.integers(0, c, size=n)
            phi = np.zeros((c, n))
            phi[assignment, np.arange(n)] = 1.0
            layout = tuple((k, k + 1) for k in range(c))
            emb = EmbeddedSet(phi=phi, assignment=assignment, block_layout=layout, unit_columns=True)

            summed = aggregate_sum(emb)
            via_power = apply_chain(summed, NormalizeConfig(alpha_exponent=0.5))

            w = sinkhorn_weights(gram(emb), DemocraticConfig(gamma=0.5))
            dem = aggregate_democratic(emb, w)
            via_democratic = apply_chain(dem, NormalizeConfig(alpha_exponent=1.0))

            assert np.max(np.abs(via_power.xi - via_democratic.xi)) <= 1e-6
