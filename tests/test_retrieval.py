"""Ranking, average precision, synthetic data, weight export, TSV formats."""

import numpy as np
import pytest

from mkagg.democratic import DemocraticConfig, sinkhorn_weights
from mkagg.embed import EmbeddingConfig, embed_set
from mkagg.kernel import gram
from mkagg.retrieval import (
    GroundTruth,
    average_precision,
    export_weights,
    mean_average_precision,
    rank,
    read_ground_truth,
    read_manifest,
)
from mkagg.types import (
    AggregateVector,
    Codebook,
    DataFormatError,
    DescriptorSet,
    EmbeddedSet,
    WeightVector,
)
from oracles import SyntheticSpec, generate_synthetic


def _unit_vec(values):
    v = np.asarray(values, dtype=np.float64)
    return AggregateVector(v / np.linalg.norm(v), ("raw", "l2"))


class TestRank:
    def test_self_match_first(self):
        query = _unit_vec([1.0, 0.0])
        index = [("other", _unit_vec([0.0, 1.0])), ("me", query)]
        ranked = rank(query, index)
        assert ranked[0][0] == "me"
        assert abs(ranked[0][1] - 1.0) <= 1e-12

    def test_empty_index(self):
        assert rank(_unit_vec([1.0]), []) == []

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(50)
        query = _unit_vec(rng.normal(size=8))
        index = [(f"i{i:03d}", _unit_vec(rng.normal(size=8))) for i in range(100)]
        ranked = rank(query, index)
        scores = {item_id: float(query.xi @ vec.xi) for item_id, vec in index}
        oracle = sorted(scores, key=lambda item_id: (-scores[item_id], item_id))
        assert [item_id for item_id, _ in ranked] == oracle

    def test_tie_break_ascending_id(self):
        v = _unit_vec([1.0, 0.0])
        index = [("b", v), ("a", v)]
        assert [item_id for item_id, _ in rank(v, index)] == ["a", "b"]


class TestAveragePrecision:
    def test_hand_computed(self):
        """Relevant at ranks 1 and 3 of 4: AP = (1 + 2/3) / 2."""
        ap = average_precision(["r1", "x", "r2", "y"], {"r1", "r2"})
        assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) <= 1e-12

    def test_perfect_ranking(self):
        assert average_precision(["a", "b", "x"], {"a", "b"}) == 1.0

    def test_junk_removed_before_scoring(self):
        """Junk at rank 1 is deleted, promoting the relevant item to rank 1."""
        ap = average_precision(["j", "r", "x"], {"r"}, junk={"j"})
        assert ap == 1.0

    def test_zero_relevant_rejected(self):
        with pytest.raises(ValueError, match="no relevant"):
            average_precision(["a"], set())

    def test_exclude_self(self):
        ap = average_precision(["q", "r"], {"r"}, exclude_id="q")
        assert ap == 1.0

    def test_exclude_self_empties_relevant(self):
        with pytest.raises(ValueError, match="no relevant"):
            average_precision(["q", "x"], {"q"}, exclude_id="q")

    def test_missing_relevant_counts_against(self):
        with pytest.warns(UserWarning, match="missing"):
            ap = average_precision(["r1", "x"], {"r1", "gone"})
        assert abs(ap - 0.5) <= 1e-12


class TestMeanAveragePrecision:
    def test_mean_over_queries(self):
        truth = GroundTruth(relevant={"q1": frozenset({"a"}), "q2": frozenset({"b"})})
        rankings = {"q1": ["a", "b"], "q2": ["a", "b"]}
        got = mean_average_precision(rankings, truth)
        assert abs(got - (1.0 + 0.5) / 2.0) <= 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(51)
        ids = [f"i{i}" for i in range(10)]
        truth = GroundTruth(relevant={"q": frozenset(ids[:3])})
        for _ in range(10):
            order = list(rng.permutation(ids))
            got = mean_average_precision({"q": order}, truth)
            assert 0.0 <= got <= 1.0

    def test_deterministic(self):
        truth = GroundTruth(relevant={"q": frozenset({"a"})})
        first = mean_average_precision({"q": ["b", "a"]}, truth)
        assert first == mean_average_precision({"q": ["b", "a"]}, truth)


class TestGroundTruth:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="both relevant and junk"):
            GroundTruth(relevant={"q": frozenset({"a"})}, junk={"q": frozenset({"a"})})

    def test_tsv_round_trip(self, tmp_path):
        truth = GroundTruth(
            relevant={"q1": frozenset({"a", "b"}), "q2": frozenset({"c"})},
            junk={"q1": frozenset({"z"})},
        )
        path = tmp_path / "truth.tsv"
        path.write_text("q1\trel\ta\nq1\trel\tb\n\nq2\trel\tc\nq1\tjunk\tz\n")
        back = read_ground_truth(path)
        assert back.relevant == truth.relevant
        assert back.junk == truth.junk

    def test_bad_tag_rejected(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("q1\tmaybe\ta\n")
        with pytest.raises(DataFormatError, match="tag"):
            read_ground_truth(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("a\t/tmp/a.mkvc\nb\t/tmp/b.mkvc\n")
        assert read_manifest(path) == [("a", "/tmp/a.mkvc"), ("b", "/tmp/b.mkvc")]

    def test_repeated_id_names_its_line(self, tmp_path):
        path = tmp_path / "index.tsv"
        path.write_text("a\t/tmp/a.mkvc\nb\t/tmp/b.mkvc\n\na\t/tmp/c.mkvc\n")
        with pytest.raises(DataFormatError, match=r"index.tsv:4: id 'a' repeats line 1"):
            read_manifest(path)


class TestGenerateSynthetic:
    def test_zero_noise_identical_bursts(self):
        spec = SyntheticSpec(n_images=4, burst_size=5, n_distinct=2, d=8, noise_sigma=0.0, seed=1)
        images, _ = generate_synthetic(spec)
        for _, ds in images:
            burst = ds.data[:5]
            assert np.all(burst == burst[0])

    def test_group_relevance_is_mutual(self):
        spec = SyntheticSpec(n_images=6, burst_size=3, n_distinct=2, d=8, seed=2)
        images, truth = generate_synthetic(spec)
        ids = [img_id for img_id, _ in images]
        for img_id in ids:
            for other in truth.relevant[img_id]:
                assert img_id in truth.relevant[other]

    def test_shared_distinct_content(self):
        """Groupmates share distinctive rows exactly when noise is zero."""
        spec = SyntheticSpec(n_images=4, burst_size=3, n_distinct=2, d=8, noise_sigma=0.0, seed=3)
        images, truth = generate_synthetic(spec)
        by_id = dict(images)
        for img_id, rel in truth.relevant.items():
            for other in rel:
                np.testing.assert_array_equal(
                    by_id[img_id].data[3:], by_id[other].data[3:]
                )

    def test_byte_determinism(self):
        spec = SyntheticSpec(n_images=20, burst_size=30, n_distinct=3, d=16, seed=7)
        first, _ = generate_synthetic(spec)
        second, _ = generate_synthetic(spec)
        assert len(first) == len(second) == 20
        for (id_a, ds_a), (id_b, ds_b) in zip(first, second):
            assert id_a == id_b
            assert ds_a.data.tobytes() == ds_b.data.tobytes()

    def test_expected_shapes(self):
        spec = SyntheticSpec(n_images=5, burst_size=4, n_distinct=3, d=6, seed=4)
        images, truth = generate_synthetic(spec)
        assert len(images) == 5
        for _, ds in images:
            assert ds.data.shape == (7, 6)
        # 5 images -> groups of 2 and 3: every image has at least one relevant.
        assert all(truth.relevant[img_id] for img_id, _ in images)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_images=0, burst_size=1, n_distinct=1, d=1)
        with pytest.raises(ValueError):
            SyntheticSpec(n_images=1, burst_size=1, n_distinct=1, d=1, noise_sigma=-0.5)


class TestExportWeights:
    def _bow_toy(self):
        ds = DescriptorSet(np.array([[0.0], [0.1], [-0.1], [0.05], [10.0]], dtype=np.float32))
        cb = Codebook(np.array([[0.0], [10.0]]))
        return embed_set(ds, cb, EmbeddingConfig("bow"))

    @staticmethod
    def _contributions(text):
        return np.array([float(line.split("\t")[2]) for line in text.strip().split("\n")[1:]])

    def test_uniform_weights_give_row_sums(self):
        emb = self._bow_toy()
        text = export_weights(emb, WeightVector(np.ones(5), "uniform"))
        assert text.split("\n")[0] == "idx\tweight\tcontribution"
        np.testing.assert_allclose(self._contributions(text), [4, 4, 4, 4, 1], atol=1e-12)

    def test_democratic_contributions_equal_one(self):
        emb = self._bow_toy()
        w = sinkhorn_weights(gram(emb), DemocraticConfig(gamma=0.5))
        np.testing.assert_allclose(self._contributions(export_weights(emb, w)), 1.0, atol=1e-12)

    def test_matches_matrix_vector_oracle(self):
        rng = np.random.default_rng(52)
        emb = EmbeddedSet(phi=rng.normal(size=(8, 8)))
        alpha = rng.uniform(0.5, 2.0, size=8)
        text = export_weights(emb, WeightVector(alpha, "gmp"))
        oracle = np.diag(alpha) @ emb.phi.T @ emb.phi @ alpha
        np.testing.assert_allclose(self._contributions(text), oracle, rtol=1e-10)

    def test_length_mismatch(self):
        emb = EmbeddedSet(phi=np.eye(2))
        with pytest.raises(ValueError, match="length"):
            export_weights(emb, WeightVector(np.ones(3), "uniform"))
