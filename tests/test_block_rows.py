"""Properties of the per-descriptor row storage of embedded sets and of the
blocks-only kernel, over random block counts, widths and assignments
(including empty blocks, all-zero rows and one-block dense sets)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mkagg.democratic import aggregate_democratic, aggregate_sum, sinkhorn_weights
from mkagg.embed import EmbeddingConfig, embed_set
from mkagg.gmp import GmpConfig, aggregate_gmp, gmp_weights
from mkagg.kernel import clip_negatives, gram
from mkagg.types import Codebook, DescriptorSet, EmbeddedSet

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


def _entries(draw, shape):
    vals = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    # Tiny entries would underflow the Sinkhorn shares; they add no case.
    vals[np.abs(vals) < 1e-3] = 0.0
    return vals


@st.composite
def block_sets(draw, max_n=24, max_w=5):
    """(phi, assignment, layout, rows) of a random block-sparse set."""
    n = draw(st.integers(0, max_n))
    c = draw(st.integers(1, 6))
    w = draw(st.integers(1, max_w))
    assignment = draw(arrays(np.int64, n, elements=st.integers(0, c - 1)))
    rows = _entries(draw, (n, w))
    rows[draw(arrays(np.bool_, n))] = 0.0
    phi = np.zeros((c, w, n))
    for i in range(n):
        phi[assignment[i], :, i] = rows[i]
    layout = tuple((k * w, (k + 1) * w) for k in range(c))
    return phi.reshape(c * w, n), assignment, layout, rows


@st.composite
def any_sets(draw, max_n=24, max_w=5):
    """(embedded set, its dense phi): block-sparse, or dense with c = 1."""
    if draw(st.booleans()):
        phi, assignment, layout, _ = draw(block_sets(max_n, max_w))
        return EmbeddedSet(phi=phi, assignment=assignment, block_layout=layout), phi
    phi = _entries(draw, (draw(st.integers(1, max_w + 3)), draw(st.integers(0, max_n))))
    return EmbeddedSet(phi=phi), phi


def _close(got, want, tol=1e-12):
    return np.max(np.abs(got - want), initial=0.0) <= tol * max(1.0, np.max(np.abs(want), initial=0.0))


@PROPERTY
@given(block_sets())
def test_public_constructor_round_trips_phi(case):
    phi, assignment, layout, rows = case
    emb = EmbeddedSet(phi=phi, assignment=assignment, block_layout=layout)
    assert np.array_equal(emb.phi, phi)
    assert np.array_equal(emb.rows, rows)
    assert np.array_equal(emb.assignment, assignment)
    assert (emb.c, emb.width) == (len(layout), layout[0][1]) and (emb.dim, emb.n) == phi.shape


@PROPERTY
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(0, 24)), elements=st.floats(-1.0, 1.0)))
def test_dense_set_is_one_block(phi):
    emb = EmbeddedSet(phi=phi)
    assert (emb.c, emb.width) == (1, phi.shape[0])
    assert np.array_equal(emb.rows, phi.T)
    assert np.array_equal(emb.phi, phi)


@PROPERTY
@given(st.integers(1, 30), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_embed_set_output_passes_public_checks(n, c, d, seed, bow):
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(c, d)).astype(np.float32).astype(np.float64)
    points = rng.normal(size=(n, d))
    points[: n // 3] = centroids[rng.integers(0, c, size=n // 3)]  # zero residuals
    cfg = EmbeddingConfig("bow" if bow else "residual")
    emb = embed_set(DescriptorSet(points.astype(np.float32)), Codebook(centroids), cfg)
    layout = tuple((k * emb.width, (k + 1) * emb.width) for k in range(c))
    # Only the zero residuals forced above fall short of norm 1.
    again = EmbeddedSet(
        phi=emb.phi, assignment=emb.assignment, block_layout=layout, unit_columns=bow or n < 3
    )
    assert np.array_equal(again.rows, emb.rows)


@PROPERTY
@given(any_sets())
def test_gram_equals_dense_product(case):
    emb, phi = case
    assume(emb.n > 0)
    kern = gram(emb)
    assert _close(kern.to_dense(), phi.T @ phi)
    assert len(kern.blocks) == np.unique(emb.assignment).size


# Sizes reach the shapes (n ~ 60) where a general matrix product, unlike
# the symmetric rank-k update, rounds K[i,j] and K[j,i] differently.
@PROPERTY
@given(any_sets(max_n=90, max_w=40))
def test_derived_kernel_blocks_are_exactly_symmetric(case):
    emb, _ = case
    assume(emb.n > 0)
    kern = gram(emb)
    for derived in (kern, clip_negatives(kern)):
        for block in derived.blocks:
            assert np.array_equal(block.values, block.values.T)


@PROPERTY
@given(any_sets())
def test_aggregates_equal_dense_weighted_sums(case):
    emb, phi = case
    assume(emb.n > 0)
    kern = gram(emb)
    assert _close(aggregate_sum(emb).xi, phi.sum(axis=1))
    dem = sinkhorn_weights(kern)
    assert _close(aggregate_democratic(emb, dem).xi, phi @ dem.alpha)
    pooled = gmp_weights(kern, GmpConfig(lam=1.0))
    assert _close(aggregate_gmp(emb, pooled).xi, phi @ pooled.alpha)


def _check_matches(emb, phi, v):
    """matches is phi^T xi, and matches(pool(v)) is K v: elementwise within
    1e-12 of the rounding scale |phi|^T |phi| |v| (cancellation may leave an
    entry near zero, where a purely relative bound would not hold)."""
    xi = emb.pool(v)
    assert _close(emb.matches(xi), phi.T @ xi)
    scale = np.abs(phi).T @ (np.abs(phi) @ np.abs(v))
    assert np.all(np.abs(emb.matches(xi) - gram(emb).matvec(v)) <= 1e-12 * scale)


@PROPERTY
@given(any_sets(max_n=60, max_w=12), st.integers(0, 2**32 - 1))
def test_matches_of_pool_is_kernel_matvec(case, seed):
    """Block rows with zero rows, and dense sets with c = 1."""
    emb, phi = case
    assume(emb.n > 0)
    _check_matches(emb, phi, np.random.default_rng(seed).normal(size=emb.n))


@PROPERTY
@given(st.integers(1, 60), st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_matches_of_pool_is_kernel_matvec_on_embedded_descriptors(n, c, d, seed, bow):
    """Bow rows, and residual rows whose zero residuals give zero rows."""
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(c, d)).astype(np.float32).astype(np.float64)
    points = rng.normal(size=(n, d))
    points[: n // 3] = centroids[rng.integers(0, c, size=n // 3)]
    cfg = EmbeddingConfig("bow" if bow else "residual")
    emb = embed_set(DescriptorSet(points.astype(np.float32)), Codebook(centroids), cfg)
    _check_matches(emb, emb.phi, rng.normal(size=n))


@pytest.mark.parametrize("layout", [((0, 2), (3, 4)), ((0, 1), (1, 4)), ((0, 2),)])
def test_layout_that_does_not_tile_is_rejected(layout):
    with pytest.raises(ValueError, match="tile"):
        EmbeddedSet(phi=np.zeros((4, 2)), assignment=np.array([0, 0]), block_layout=layout)
