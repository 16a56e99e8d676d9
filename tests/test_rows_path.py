"""Democratic weights of an embedded set from its rows, against the Gram path.

From an embedded set, a cell's clipped block is applied as
max(R R^T, 0) v = R (R^T v) + N v, forming only the matches of its outer
rows, so the weights differ from ``sinkhorn_weights(gram(...))`` only by
rounding. The properties run every cell through the rows side
(``_MAX_OUTER_SHARE`` = 1) as well as through the default choice of side, on
bow sets, normalized and unnormalized residual sets with zero rows, and dense
sets with c = 1, whose cells are all core, all outer or mixed.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mkagg import cli, democratic, kernel
from mkagg.democratic import DemocraticConfig, sinkhorn_weights
from mkagg.embed import EmbeddingConfig, embed_set
from mkagg.kernel import gram
from mkagg.types import Codebook, DescriptorSet, EmbeddedSet

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)
RTOL = 1e-12


def _assert_rows_path_matches(emb, force_rows, gamma=0.3):
    cfg = DemocraticConfig(gamma=gamma)
    with pytest.MonkeyPatch.context() as mp:
        if force_rows:
            mp.setattr(democratic, "_MAX_OUTER_SHARE", 1.0)
        got = sinkhorn_weights(emb, cfg).alpha
    want = sinkhorn_weights(gram(emb), cfg).alpha
    assert np.all(np.abs(got - want) <= RTOL * want)


def _cosines(rows):
    """Each nonzero row's cosine to the cell's normalized row sum."""
    total = rows.sum(axis=0)
    norm = np.linalg.norm(total)
    u = total / norm if norm > 0 else total
    rows = rows[np.any(rows != 0.0, axis=1)]
    return rows @ u / np.linalg.norm(rows, axis=1)


@st.composite
def _descriptor_sets(draw):
    """Embedded descriptors: per cell a burst of near-duplicates of one offset
    point, scattered points, and points on their centroid (zero residuals)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, d = draw(st.integers(1, 4)), draw(st.integers(2, 12))
    centroids = 4.0 * rng.normal(size=(c, d))
    parts = []
    for k in range(c):
        offset = centroids[k] + draw(st.floats(0.05, 1.0)) * rng.normal(size=d)
        jitter = draw(st.sampled_from([1e-4, 1e-2, 0.3]))
        parts.append(offset + jitter * rng.normal(size=(draw(st.integers(0, 40)), d)))
    parts.append(centroids[rng.integers(0, c, size=draw(st.integers(0, 30)))] + rng.normal(size=(1, d)))
    parts.append(centroids[rng.integers(0, c, size=draw(st.integers(0, 5)))])
    points = np.concatenate(parts)
    assume(points.shape[0] > 0)
    # Centroids on the float32 grid, so that on-centroid points give exact zeros.
    codebook = Codebook(centroids.astype(np.float32).astype(np.float64))
    kind = draw(st.sampled_from(["bow", "residual", "unnormalized"]))
    cfg = EmbeddingConfig("bow" if kind == "bow" else "residual", normalize_residuals=kind == "residual")
    return embed_set(DescriptorSet(points[rng.permutation(points.shape[0])]), codebook, cfg)


@st.composite
def _shaped_cells(draw):
    """(embedded set, shape): cells whose nonzero rows are all core, all outer
    or mixed, plus zero rows, as a block set or a dense set with c = 1.

    All-core cells are near-duplicates of one direction. All-outer cells are
    pairs 0.3 e +- v with v orthogonal to e and |v| = 1: the pairs sum along e,
    and every row is about 73 degrees off it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["core", "outer", "mixed"]))
    w = draw(st.integers(3, 16))
    n_cells = 1 if draw(st.booleans()) else draw(st.integers(2, 4))
    rows, assignment = [], []
    for k in range(n_cells):
        m = draw(st.integers(1, 40))
        base = rng.normal(size=w)
        base /= np.linalg.norm(base)
        burst = base + 0.1 / np.sqrt(w) * rng.normal(size=(m, w))
        spread = rng.normal(size=(m, w))
        spread -= np.outer(spread @ base, base)
        spread /= np.linalg.norm(spread, axis=1, keepdims=True)
        scale = rng.uniform(0.5, 2.0, size=(m, 1)) if draw(st.booleans()) else np.ones((m, 1))
        if shape == "core":
            cell = scale * burst
        elif shape == "outer":
            cell = np.concatenate([scale * (0.3 * base + spread), scale * (0.3 * base - spread)])
        else:
            cell = np.concatenate([scale * burst, rng.normal(size=(draw(st.integers(1, 10)), w))])
        cell = np.concatenate([cell, np.zeros((draw(st.integers(0, 3)), w))])
        rows.append(cell)
        assignment.append(np.full(cell.shape[0], k))
    cos = np.concatenate([_cosines(cell) for cell in rows])
    margin = 1e-6
    core, outer = cos >= 1 / np.sqrt(2) + margin, cos < 1 / np.sqrt(2) - margin
    assume({"core": np.all(core), "outer": np.all(outer), "mixed": np.any(core) and np.any(outer)}[shape])
    rows, assignment = np.concatenate(rows), np.concatenate(assignment)
    if n_cells == 1 and draw(st.booleans()):
        return EmbeddedSet(phi=rows.T), shape
    order = rng.permutation(rows.shape[0])
    return EmbeddedSet._trusted(rows[order], assignment[order], n_cells + 1, False), shape


class TestRowsPathProperty:
    @PROPERTY
    @given(_descriptor_sets(), st.booleans(), st.sampled_from([0.1, 0.3, 0.5]))
    def test_embedded_descriptors(self, emb, force_rows, gamma):
        """Bow sets (all core), and residual sets with bursts, scattered rows
        and zero rows, normalized or not."""
        _assert_rows_path_matches(emb, force_rows, gamma)

    @PROPERTY
    @given(_shaped_cells(), st.booleans())
    def test_cells_all_core_all_outer_and_mixed(self, case, force_rows):
        emb, _ = case
        _assert_rows_path_matches(emb, force_rows)

    def test_unclipped_is_the_rows_product(self):
        """Without clipping a cell is R (R^T v) whatever its shape."""
        rng = np.random.default_rng(5)
        rows = np.concatenate([1.0 + 0.01 * rng.normal(size=(30, 4)), np.zeros((2, 4))])
        emb = EmbeddedSet._trusted(rows, np.repeat([0, 1], 16), 2, False)
        cfg = DemocraticConfig(clip=False)
        got = sinkhorn_weights(emb, cfg).alpha
        want = sinkhorn_weights(gram(emb), cfg).alpha
        assert np.all(np.abs(got - want) <= RTOL * want)
        assert np.all(got[-2:] == 1.0)  # zero rows keep weight 1

    def test_empty_set_rejected(self):
        emb = EmbeddedSet._trusted(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 1, False)
        with pytest.raises(ValueError, match="empty"):
            sinkhorn_weights(emb)


def _burst_set(sizes, n_scattered, w=128, c=16, seed=0):
    """Unit rows: per cell of ``sizes`` near-duplicates of one direction (a
    burst) and one random row in 20 (outer rows), plus ``n_scattered`` random
    rows in the other cells."""
    rng = np.random.default_rng(seed)
    bursts = [rng.normal(size=w) + 0.2 * rng.normal(size=(m, w)) for m in sizes]
    for burst in bursts:
        burst[::20] = rng.normal(size=burst[::20].shape)
    rows = np.concatenate([*bursts, rng.normal(size=(n_scattered, w))])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    assignment = np.concatenate([np.repeat(np.arange(len(sizes)), sizes),
                                 rng.integers(len(sizes), c, size=n_scattered)])
    order = rng.permutation(rows.shape[0])
    return EmbeddedSet._trusted(rows[order], assignment[order], c, True)


def _aggregate_args(method):
    return cli._parser().parse_args(["aggregate", "--descriptors", "-", "--codebook", "-",
                                     "--output", "-", "--method", method])


class TestCommandLine:
    def test_gram_never_gets_a_block_over_the_budget(self, monkeypatch):
        """Bursts of 1200 and 800 (over the budget) and 900 scattered rows."""
        emb = _burst_set([1200, 800], 900)
        sizes = []

        def recording_gram(part):
            sizes.extend(idx.size for _, idx in part.cells())
            return gram(part)

        monkeypatch.setattr(cli, "gram", recording_gram)
        _, weights = cli._aggregate_one(emb, _aggregate_args("democratic"))
        assert sizes and max(8 * s**2 for s in sizes) <= kernel._PART_BUDGET
        assert sum(sizes) == 900
        want = sinkhorn_weights(gram(emb), DemocraticConfig()).alpha
        assert np.all(np.abs(weights.alpha - want) <= RTOL * want)
        # The scattered rows form packed parts, scaled from their Gram bit for bit.
        scattered = emb.assignment >= 2
        np.testing.assert_array_equal(weights.alpha[scattered], want[scattered])

    def test_peak_memory_is_rows_not_a_burst_gram(self):
        """Bursts of 2000, 1500 and 1000 near-duplicates plus 1500 scattered
        rows: one burst's Gram alone is 32 MB, the set's rows 6 MB."""
        emb = _burst_set([2000, 1500, 1000], 1500)
        tracemalloc.start()
        try:
            cli._aggregate_one(emb, _aggregate_args("democratic"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < emb.rows.nbytes + 4 * 2**20
