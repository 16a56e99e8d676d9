"""Democratic weighting: scaling loop behaviour and its aggregate."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkagg import cli, kernel, matio
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


def _aggregate_args(method, *extra):
    """The parsed arguments of one ``aggregate`` command."""
    return cli._parser().parse_args(
        ["aggregate", "--descriptors", "-", "--codebook", "-", "--output", "-",
         "--method", method, *extra]
    )


def _cell_set(sizes, w, c, seed):
    """An embedded set with one cell of each size, in random blocks of c and at
    random positions; w = 1 is the bow embedding (every row 1)."""
    rng = np.random.default_rng(seed)
    blocks = rng.choice(c, size=len(sizes), replace=False)
    assignment = rng.permutation(np.repeat(blocks, sizes)).astype(np.int64)
    if w == 1:
        rows = np.ones((assignment.size, 1))
    else:
        rows = rng.normal(size=(assignment.size, w))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddedSet._trusted(rows, assignment, c, True)


@st.composite
def _part_cases(draw):
    """(embedded set, budget) with cell sizes that straddle the budget: a cell
    of side s has a block of 8 s^2 bytes, and the budget fits a side of
    exactly ``side``."""
    side = draw(st.integers(2, 10))
    shape = draw(st.sampled_from(["many_small", "one_over", "single", "mixed"]))
    if shape == "many_small":
        sizes = draw(st.lists(st.integers(1, side // 2 + 1), min_size=2, max_size=30))
    elif shape == "one_over":
        sizes = draw(st.lists(st.integers(1, side), min_size=0, max_size=12))
        sizes.insert(draw(st.integers(0, len(sizes))), draw(st.integers(side + 1, 3 * side)))
    elif shape == "single":
        sizes = [draw(st.integers(1, 3 * side))]
    else:
        sizes = draw(st.lists(st.integers(1, 2 * side), min_size=1, max_size=12))
    w = draw(st.sampled_from([1, 3, 8]))
    c = len(sizes) + draw(st.integers(0, 3))
    return _cell_set(sizes, w, c, draw(st.integers(0, 2**32 - 1))), 8 * side**2


def _block_bytes(emb):
    return [8 * idx.size**2 for _, idx in emb.cells()]


class TestPerPartWeights:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_part_cases(), st.sampled_from([0.1, 0.3, 0.5]))
    def test_parts_partition_fit_and_give_whole_kernel_weights(self, case, gamma):
        emb, budget = case
        with mock.patch.object(kernel, "_PART_BUDGET", budget):
            got = list(kernel.parts(emb))
            fit = [kernel.fits(part) for _, part in got]
            _, weights = cli._aggregate_one(emb, _aggregate_args("democratic", "--gamma", str(gamma)))
        if sum(_block_bytes(emb)) <= budget:
            assert len(got) == 1 and got[0][0] == slice(None) and got[0][1] is emb
        else:
            indices = [idx for idx, _ in got]
            np.testing.assert_array_equal(np.sort(np.concatenate(indices)), np.arange(emb.n))
            for k, (idx, part) in enumerate(got):
                assert np.all(np.diff(idx) > 0)
                np.testing.assert_array_equal(part.rows, emb.rows[idx])
                np.testing.assert_array_equal(part.assignment, emb.assignment[idx])
                assert (part.c, part.unit_columns) == (emb.c, emb.unit_columns)
                sizes = _block_bytes(part)
                if len(sizes) >= 2:
                    assert sum(sizes) <= budget
                if k + 1 < len(got):  # greedy: the next part's first cell did not fit
                    assert sum(sizes) + _block_bytes(got[k + 1][1])[0] > budget
                # Only a part of one cell over the budget does not fit.
                assert fit[k] == (sum(sizes) <= budget)
        packed = np.zeros(emb.n, dtype=bool)
        for (idx, _), fits in zip(got, fit):
            packed[idx] = fits
        want = sinkhorn_weights(gram(emb), DemocraticConfig(gamma=gamma)).alpha
        # Packed parts are scaled from their Gram, bit for bit; a cell over the
        # budget from its rows, up to rounding (TestRowsPath pins that side).
        np.testing.assert_array_equal(weights.alpha[packed], want[packed])
        np.testing.assert_allclose(weights.alpha[~packed], want[~packed], rtol=1e-12, atol=0)

    def test_cli_writes_the_whole_kernel_aggregate(self, tmp_path):
        """Cells of 1000 (8 MB block, over the budget), 300, 50 and 20."""
        rng = np.random.default_rng(190)
        centroids = 10.0 * np.eye(4, 8)
        desc = np.concatenate([centroids[k] + rng.normal(size=(m, 8))
                               for k, m in enumerate((1000, 300, 50, 20))])
        desc = desc[rng.permutation(desc.shape[0])].astype(np.float32)
        mkds, mkcb = tmp_path / "d.mkds", tmp_path / "c.mkcb"
        matio.write_matrix_file(mkds, matio.MAGIC_DESCRIPTORS, desc)
        matio.write_matrix_file(mkcb, matio.MAGIC_CODEBOOK, centroids)
        out, ref = tmp_path / "cli.mkvc", tmp_path / "ref.mkvc"
        assert cli.main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                         "--method", "democratic", "--output", str(out)]) == 0

        emb = embed_set(DescriptorSet(desc), Codebook(centroids), EmbeddingConfig())
        assert len(list(kernel.parts(emb))) > 1
        weights = sinkhorn_weights(gram(emb), DemocraticConfig())
        matio.save_vector(ref, aggregate_democratic(emb, weights).xi)
        assert out.read_bytes() == ref.read_bytes()

    def test_peak_memory_is_one_burst(self):
        """Bursts of 2000, 1500 and 1000 plus 1500 scattered descriptors: the
        whole kernel and its clipped copy would take 2 x 58 MB."""
        rng = np.random.default_rng(191)
        assignment = np.concatenate([np.repeat([0, 1, 2], [2000, 1500, 1000]),
                                     rng.integers(3, 16, size=1500)])
        rows = rng.normal(size=(6000, 128))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        emb = EmbeddedSet._trusted(rows, rng.permutation(assignment), 16, True)
        args = _aggregate_args("democratic")
        tracemalloc.start()
        try:
            cli._aggregate_one(emb, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (8 * 2000**2) + rows.nbytes


@st.composite
def _descriptor_sets(draw):
    """(descriptors, codebook, embedding): a few centroids, each with a burst
    of near-duplicates, plus scattered descriptors."""
    seed = draw(st.integers(0, 2**32 - 1))
    c, d = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    centroids = 4.0 * rng.normal(size=(c, d))
    bursts = [centroids[k] + 0.5 * rng.normal(size=d) + 1e-3 * rng.normal(size=(m, d))
              for k, m in enumerate(rng.integers(0, 20, size=c))]
    scattered = centroids[rng.integers(0, c, size=draw(st.integers(1, 40)))]
    desc = np.concatenate([*bursts, scattered + rng.normal(size=scattered.shape)])
    return DescriptorSet(desc), Codebook(centroids), draw(st.sampled_from(["bow", "residual"]))


class TestPermutationProperty:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_descriptor_sets(), st.integers(0, 2**32 - 1))
    def test_permuting_descriptors_permutes_weights(self, case, seed):
        """Blocks reorder with the descriptors, so only rounding may differ."""
        descriptors, codebook, kind = case
        perm = np.random.default_rng(seed).permutation(descriptors.n)
        moved = DescriptorSet(descriptors.data[perm])
        cfg = EmbeddingConfig(kind)
        for method in ("democratic", "gmp"):
            args = _aggregate_args(method)
            agg, weights = cli._aggregate_one(embed_set(descriptors, codebook, cfg), args)
            agg_p, weights_p = cli._aggregate_one(embed_set(moved, codebook, cfg), args)
            want = weights.alpha[perm]
            assert np.max(np.abs(weights_p.alpha - want)) <= 1e-10 * np.max(np.abs(want))
            assert np.max(np.abs(agg_p.xi - agg.xi)) <= 1e-10 * np.max(np.abs(agg.xi))
