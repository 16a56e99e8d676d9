"""End-to-end command-line behaviour, exit codes, file pipelines."""

import struct
import warnings

import numpy as np
import pytest

from mkagg import cli, kernel, matio
from mkagg.cli import main
from mkagg.democratic import DemocraticConfig, aggregate_democratic, sinkhorn_weights
from mkagg.embed import EmbeddingConfig, embed_set, train_codebook
from mkagg.gmp import GmpConfig, gmp_weights
from mkagg.kernel import gram
from mkagg.normalize import NormalizeConfig, apply_chain
from mkagg.types import AggregateVector, Codebook, DescriptorSet
from oracles import failing_writes


@pytest.fixture
def toy_files(tmp_path):
    """MKDS with the [4,1] BOW toy plus a matching 2-centroid MKCB."""
    descriptors = np.array([[0.0], [0.1], [-0.1], [0.05], [10.0]], dtype=np.float32)
    codebook = np.array([[0.0], [10.0]], dtype=np.float32)
    mkds = tmp_path / "toy.mkds"
    mkcb = tmp_path / "toy.mkcb"
    matio.write_matrix_file(mkds, matio.MAGIC_DESCRIPTORS, descriptors)
    matio.write_matrix_file(mkcb, matio.MAGIC_CODEBOOK, codebook)
    return mkds, mkcb


class TestTrainCodebook:
    def test_happy_path(self, tmp_path):
        rng = np.random.default_rng(60)
        mkds = tmp_path / "train.mkds"
        matio.write_matrix_file(
            mkds, matio.MAGIC_DESCRIPTORS, rng.normal(size=(64, 4)).astype(np.float32)
        )
        out = tmp_path / "cb.mkcb"
        code = main(["train-codebook", "--input", str(mkds), "--clusters", "8",
                     "--seed", "3", "--output", str(out)])
        assert code == 0
        mat, header = matio.read_matrix_file(out, matio.MAGIC_CODEBOOK)
        assert header.rows == 8 and header.cols == 4

    def test_too_many_clusters_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        mkds = tmp_path / "train.mkds"
        matio.write_matrix_file(
            mkds, matio.MAGIC_DESCRIPTORS, rng.normal(size=(4, 2)).astype(np.float32)
        )
        code = main(["train-codebook", "--input", str(mkds), "--clusters", "10",
                     "--seed", "0", "--output", str(tmp_path / "cb.mkcb")])
        assert code == 2
        assert "at least" in capsys.readouterr().err

    def test_fewer_distinct_descriptors_than_clusters_exit_2(self, tmp_path, capsys):
        """30 rows of 3 distinct points and 4 clusters: the error names the cause."""
        mkds, out = tmp_path / "train.mkds", tmp_path / "cb.mkcb"
        matio.write_matrix_file(mkds, matio.MAGIC_DESCRIPTORS, np.repeat(np.eye(3, 2), 10, axis=0))
        code = main(["train-codebook", "--input", str(mkds), "--clusters", "4", "--output", str(out)])
        assert code == 2
        assert "3 distinct descriptors, fewer than 4 clusters" in capsys.readouterr().err
        assert not out.exists()
        assert main(["train-codebook", "--input", str(mkds), "--clusters", "3", "--output", str(out)]) == 0

    def test_same_seed_byte_identical(self, tmp_path):
        rng = np.random.default_rng(62)
        mkds = tmp_path / "train.mkds"
        matio.write_matrix_file(
            mkds, matio.MAGIC_DESCRIPTORS, rng.normal(size=(50, 3)).astype(np.float32)
        )
        out_a, out_b = tmp_path / "a.mkcb", tmp_path / "b.mkcb"
        for out in (out_a, out_b):
            assert main(["train-codebook", "--input", str(mkds), "--clusters", "5",
                         "--seed", "9", "--output", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestAggregate:
    def test_bow_democratic_toy(self, toy_files, tmp_path):
        mkds, mkcb = toy_files
        out = tmp_path / "v.mkvc"
        code = main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--embedding", "bow", "--method", "democratic", "--gamma", "0.5",
                     "--output", str(out)])
        assert code == 0
        np.testing.assert_allclose(matio.load_vector(out), [2.0, 1.0], atol=1e-6)

    def test_sum_is_plain_counts(self, toy_files, tmp_path):
        mkds, mkcb = toy_files
        out = tmp_path / "v.mkvc"
        assert main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--embedding", "bow", "--method", "sum", "--output", str(out)]) == 0
        np.testing.assert_allclose(matio.load_vector(out), [4.0, 1.0], atol=1e-6)

    def test_gmp_lambda_one(self, toy_files, tmp_path):
        mkds, mkcb = toy_files
        out = tmp_path / "v.mkvc"
        assert main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--embedding", "bow", "--method", "gmp", "--lambda", "1.0",
                     "--output", str(out)]) == 0
        np.testing.assert_allclose(matio.load_vector(out), [0.8, 0.5], atol=1e-6)

    def test_gmp_tiny_lambda_counts_each_word_once(self, toy_files, tmp_path):
        mkds, mkcb = toy_files
        out = tmp_path / "v.mkvc"
        assert main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--embedding", "bow", "--method", "gmp", "--lambda", "1e-17",
                     "--output", str(out)]) == 0
        np.testing.assert_allclose(matio.load_vector(out), [1.0, 1.0], atol=1e-6)

    def test_gmp_builds_no_kernel_unless_dumped(self, toy_files, tmp_path, monkeypatch):
        def no_gram(_embedded):
            raise AssertionError("gmp built a kernel")

        monkeypatch.setattr(cli, "gram", no_gram)
        mkds, mkcb = toy_files
        out = tmp_path / "v.mkvc"
        assert main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--embedding", "bow", "--method", "gmp", "--output", str(out)]) == 0
        np.testing.assert_allclose(matio.load_vector(out), [0.8, 0.5], atol=1e-6)

    @pytest.mark.parametrize("dump", [False, True])
    @pytest.mark.parametrize(
        "method, expected", [("sum", [4.0, 1.0]), ("democratic", [2.0, 1.0]), ("gmp", [0.8, 0.5])]
    )
    def test_kernel_built_once_per_part_for_democratic_only(
        self, toy_files, tmp_path, monkeypatch, method, expected, dump
    ):
        # A budget of one 4x4 block splits the toy's cells (4 and 1 descriptors) into two parts.
        monkeypatch.setattr(kernel, "_PART_BUDGET", 8 * 4**2)
        built = []

        def counting_gram(embedded):
            built.append(embedded.n)
            return gram(embedded)

        monkeypatch.setattr(cli, "gram", counting_gram)
        mkds, mkcb = toy_files
        out = tmp_path / "v.mkvc"
        argv = ["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                "--embedding", "bow", "--method", method, "--gamma", "0.5", "--output", str(out)]
        assert main(argv + (["--dump-weights", str(tmp_path / "w.tsv")] if dump else [])) == 0
        assert built == ([4, 1] if method == "democratic" else [])
        np.testing.assert_allclose(matio.load_vector(out), expected, atol=1e-6)

    @pytest.mark.parametrize("method", ["sum", "democratic", "gmp"])
    def test_each_method_reads_only_its_own_settings(self, toy_files, tmp_path, method):
        mkds, mkcb = toy_files
        unused = {
            "sum": ["--gamma", "0.9", "--iters", "0", "--lambda", "-1"],
            "democratic": ["--lambda", "-1"],
            "gmp": ["--gamma", "0.9", "--iters", "0"],
        }[method]
        assert main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--method", method, "--output", str(tmp_path / "v.mkvc"), *unused]) == 0

    @pytest.mark.parametrize("method", ["sum", "democratic", "gmp"])
    @pytest.mark.parametrize("embedding", ["bow", "residual"])
    def test_dumped_contributions_are_weighted_kernel_row_sums(self, tmp_path, method, embedding):
        rng = np.random.default_rng(63)
        descriptors = DescriptorSet(rng.normal(size=(300, 3)).astype(np.float32))
        codebook = Codebook(rng.normal(size=(5, 3)).astype(np.float32))
        mkds, mkcb, dump = tmp_path / "d.mkds", tmp_path / "c.mkcb", tmp_path / "w.tsv"
        matio.write_matrix_file(mkds, matio.MAGIC_DESCRIPTORS, descriptors.data)
        matio.write_matrix_file(mkcb, matio.MAGIC_CODEBOOK, codebook.centroids)
        assert main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--embedding", embedding, "--method", method, "--output",
                     str(tmp_path / "v.mkvc"), "--dump-weights", str(dump)]) == 0

        kern = gram(embed_set(descriptors, codebook, EmbeddingConfig(embedding)))
        alpha = {
            "sum": np.ones(kern.n),
            "democratic": sinkhorn_weights(kern, DemocraticConfig()).alpha,
            "gmp": gmp_weights(kern, GmpConfig()).alpha,
        }[method]
        oracle = alpha * kern.matvec(alpha)
        rows = [line.split("\t") for line in dump.read_text().split("\n")[1:-1]]
        weights, contributions = np.array([row[1:] for row in rows], dtype=np.float64).T
        np.testing.assert_allclose(weights, alpha, rtol=1e-11)
        # Within 1e-12 of the oracle, plus half a unit in the 12th printed digit.
        nonzero = contributions != 0
        half_unit = np.zeros(kern.n)
        half_unit[nonzero] = 0.5 * 10.0 ** (np.floor(np.log10(np.abs(contributions[nonzero]))) - 11)
        assert np.all(np.abs(contributions - oracle) <= 1e-12 * np.abs(oracle) + half_unit)

    def test_dump_weights(self, toy_files, tmp_path):
        mkds, mkcb = toy_files
        out = tmp_path / "v.mkvc"
        dump = tmp_path / "w.tsv"
        assert main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--embedding", "bow", "--method", "democratic", "--gamma", "0.5",
                     "--output", str(out), "--dump-weights", str(dump)]) == 0
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "idx\tweight\tcontribution"
        weights = [float(line.split("\t")[1]) for line in lines[1:]]
        np.testing.assert_allclose(weights, [0.5, 0.5, 0.5, 0.5, 1.0], atol=1e-9)

    @pytest.mark.parametrize("failing", ["v.mkvc", "w.tsv"])
    def test_failed_write_leaves_no_partial_file(self, toy_files, tmp_path, monkeypatch, capsys, failing):
        mkds, mkcb = toy_files
        failing_writes(monkeypatch, failing)
        code = main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--embedding", "bow", "--method", "democratic", "--output",
                     str(tmp_path / "v.mkvc"), "--dump-weights", str(tmp_path / "w.tsv")])
        assert code == 3
        assert "No space" in capsys.readouterr().err
        written = {"v.mkvc"} if failing == "w.tsv" else set()
        assert {p.name for p in tmp_path.iterdir()} == {"toy.mkds", "toy.mkcb", *written}

    def test_bad_magic_exit_3(self, toy_files, tmp_path, capsys):
        _, mkcb = toy_files
        bogus = tmp_path / "bogus.mkds"
        bogus.write_bytes(struct.pack("<4sIQQ", b"XXXX", 1, 1, 1) + b"\x00" * 4)
        code = main(["aggregate", "--descriptors", str(bogus), "--codebook", str(mkcb),
                     "--embedding", "bow", "--method", "sum",
                     "--output", str(tmp_path / "v.mkvc")])
        assert code == 3
        assert "magic" in capsys.readouterr().err


class TestNonFinitePayload:
    """A NaN in a well-formed file is a precondition error (exit 2), not a format error (3)."""

    @staticmethod
    def _write_raw(path, magic, values):
        values = np.asarray(values, dtype="<f4")
        path.write_bytes(struct.pack("<4sIQQ", magic, 1, *values.shape) + values.tobytes())
        return path

    def test_descriptors_exit_2(self, toy_files, tmp_path, capsys):
        _, mkcb = toy_files
        mkds = self._write_raw(tmp_path / "nan.mkds", b"MKDS", [[0.0], [np.nan]])
        assert main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--output", str(tmp_path / "v.mkvc")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_codebook_exit_2(self, toy_files, tmp_path, capsys):
        mkds, _ = toy_files
        mkcb = self._write_raw(tmp_path / "nan.mkcb", b"MKCB", [[0.0], [np.nan]])
        assert main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--output", str(tmp_path / "v.mkvc")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_vector_exit_2(self, tmp_path, capsys):
        mkvc = self._write_raw(tmp_path / "nan.mkvc", b"MKVC", [[1.0, np.nan]])
        assert main(["normalize", "--input", str(mkvc), "--output", str(tmp_path / "n.mkvc")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_rotation_exit_2(self, tmp_path, capsys):
        mkvc = tmp_path / "v.mkvc"
        matio.save_vector(mkvc, np.array([1.0, 2.0], dtype=np.float32))
        mkrt = self._write_raw(tmp_path / "nan.mkrt", b"MKRT", [[1.0, 0.0], [0.0, np.nan]])
        for _ in range(2):
            assert main(["normalize", "--input", str(mkvc), "--rn", str(mkrt),
                         "--output", str(tmp_path / "n.mkvc")]) == 2
            err = capsys.readouterr().err
            assert "rotation" in err and "finite" in err
        assert not (tmp_path / "n.mkvc").exists()


class TestNormalize:
    def _write_vec(self, tmp_path, values):
        path = tmp_path / "raw.mkvc"
        matio.save_vector(path, np.asarray(values, dtype=np.float32))
        return path

    def test_alpha_half(self, tmp_path):
        src = self._write_vec(tmp_path, [4.0, 0.0])
        out = tmp_path / "n.mkvc"
        assert main(["normalize", "--input", str(src), "--alpha", "0.5",
                     "--output", str(out)]) == 0
        np.testing.assert_allclose(matio.load_vector(out), [1.0, 0.0], atol=1e-6)

    def test_alpha_zero_binarizes(self, tmp_path):
        src = self._write_vec(tmp_path, [-3.0, 0.0, 2.0])
        out = tmp_path / "n.mkvc"
        assert main(["normalize", "--input", str(src), "--alpha", "0",
                     "--output", str(out)]) == 0
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(matio.load_vector(out), expected, atol=1e-6)

    def test_rn_and_truncate_match_module(self, tmp_path):
        rng = np.random.default_rng(63)
        vectors = rng.normal(size=(30, 8)).astype(np.float32)
        manifest = tmp_path / "vecs.tsv"
        lines = []
        for i, row in enumerate(vectors):
            p = tmp_path / f"v{i}.mkvc"
            matio.save_vector(p, row)
            lines.append(f"v{i}\t{p}")
        manifest.write_text("\n".join(lines) + "\n")

        rot_path = tmp_path / "rot.mkrt"
        assert main(["rn-fit", "--vectors", str(manifest), "--max-eigvecs", "4",
                     "--output", str(rot_path)]) == 0
        rot32, _ = matio.read_matrix_file(rot_path, matio.MAGIC_ROTATION)
        assert np.max(np.abs(rot32.astype(np.float64).T @ rot32.astype(np.float64) - np.eye(8))) <= 1e-6

        src = self._write_vec(tmp_path, list(rng.normal(size=8)))
        out = tmp_path / "n.mkvc"
        assert main(["normalize", "--input", str(src), "--alpha", "0.5",
                     "--rn", str(rot_path), "--truncate", "4", "--output", str(out)]) == 0

        cfg = NormalizeConfig(alpha_exponent=0.5, rotation=rot32.astype(np.float64), truncate_to=4)
        oracle = apply_chain(AggregateVector(matio.load_vector(src)), cfg)
        np.testing.assert_allclose(matio.load_vector(out), oracle.xi, atol=1e-6)

    def test_rn_fit_reports_principal_rows(self, tmp_path, capsys):
        """n vectors give at most min(n - 1, D) principal rows; more eigenvectors still exit 0."""
        rng = np.random.default_rng(64)
        for n, expected in ((5, 4), (30, 8)):
            manifest = tmp_path / f"vecs{n}.tsv"
            lines = []
            for i, row in enumerate(rng.normal(size=(n, 8)).astype(np.float32)):
                p = tmp_path / f"v{n}_{i}.mkvc"
                matio.save_vector(p, row)
                lines.append(f"v{i}\t{p}")
            manifest.write_text("\n".join(lines) + "\n")
            assert main(["rn-fit", "--vectors", str(manifest), "--max-eigvecs", "8",
                         "--output", str(tmp_path / "rot.mkrt")]) == 0
            out = capsys.readouterr().out
            assert f"(at most {expected} principal rows from {n} training vectors)" in out

    def test_rn_fit_without_max_eigvecs(self, tmp_path):
        """The flag is optional and ignored: with or without it, the same rotation bytes."""
        manifest = tmp_path / "vecs.tsv"
        lines = []
        for i, row in enumerate(np.random.default_rng(65).normal(size=(6, 10)).astype(np.float32)):
            matio.save_vector(tmp_path / f"v{i}.mkvc", row)
            lines.append(f"v{i}\t{tmp_path / f'v{i}.mkvc'}")
        manifest.write_text("\n".join(lines) + "\n")
        outs = [tmp_path / "a.mkrt", tmp_path / "b.mkrt"]
        assert main(["rn-fit", "--vectors", str(manifest), "--output", str(outs[0])]) == 0
        assert main(["rn-fit", "--vectors", str(manifest), "--max-eigvecs", "2", "--output", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_empty_rotation_exit_2(self, tmp_path, capsys):
        src = self._write_vec(tmp_path, [3.0, 4.0])
        rot_path = tmp_path / "empty.mkrt"
        rot_path.write_bytes(struct.pack("<4sIQQ", b"MKRT", 1, 0, 0))
        assert main(["normalize", "--input", str(src), "--rn", str(rot_path),
                     "--output", str(tmp_path / "n.mkvc")]) == 2
        assert "rotation" in capsys.readouterr().err

    def test_rewritten_rotation_is_checked_again(self, tmp_path, capsys):
        """The same path with new bytes in one process: the new content is checked."""
        src = self._write_vec(tmp_path, [3.0, 4.0])
        rot_path = tmp_path / "rot.mkrt"
        argv = ["normalize", "--input", str(src), "--alpha", "1", "--rn", str(rot_path),
                "--output", str(tmp_path / "n.mkvc")]
        matio.write_matrix_file(rot_path, matio.MAGIC_ROTATION, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert main(argv) == 0
        np.testing.assert_allclose(matio.load_vector(tmp_path / "n.mkvc"), [0.8, 0.6], atol=1e-6)
        matio.write_matrix_file(rot_path, matio.MAGIC_ROTATION, np.array([[0.0, 1.0], [1.0, 1.0]]))
        for _ in range(2):
            assert main(argv) == 2
            assert "orthonormal" in capsys.readouterr().err

    def test_zero_vector_exit_4(self, tmp_path, capsys):
        src = self._write_vec(tmp_path, [0.0, 0.0])
        code = main(["normalize", "--input", str(src), "--alpha", "0.5",
                     "--output", str(tmp_path / "n.mkvc")])
        assert code == 4
        assert "zero" in capsys.readouterr().err.lower()


class TestEval:
    def _build_corpus(self, tmp_path):
        """Three unit vectors: q matches a exactly, b is orthogonal."""
        vecs = {
            "q": np.array([1.0, 0.0], dtype=np.float32),
            "a": np.array([1.0, 0.0], dtype=np.float32),
            "b": np.array([0.0, 1.0], dtype=np.float32),
        }
        index_lines, query_lines = [], []
        for name, vec in vecs.items():
            p = tmp_path / f"{name}.mkvc"
            matio.save_vector(p, vec)
            index_lines.append(f"{name}\t{p}")
            if name == "q":
                query_lines.append(f"{name}\t{p}")
        (tmp_path / "index.tsv").write_text("\n".join(index_lines) + "\n")
        (tmp_path / "queries.tsv").write_text("\n".join(query_lines) + "\n")
        return tmp_path / "index.tsv", tmp_path / "queries.tsv"

    def test_map_reported(self, tmp_path, capsys):
        index, queries = self._build_corpus(tmp_path)
        truth = tmp_path / "truth.tsv"
        truth.write_text("q\trel\ta\n")
        code = main(["eval", "--index", str(index), "--queries", str(queries),
                     "--truth", str(truth), "--exclude-self"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[-1].startswith("mAP\t")
        assert abs(float(out[-1].split("\t")[1]) - 1.0) <= 1e-9

    def test_missing_relevant_ids_named_per_query(self, tmp_path, capsys):
        """Each of three queries lacks one relevant id in the index: one stderr
        line per query names it, no warning escapes, and the APs count the
        missing ids against the queries as before."""
        index, _ = self._build_corpus(tmp_path)
        truth = tmp_path / "truth.tsv"
        argv = ["eval", "--index", str(index), "--queries", str(index), "--truth", str(truth), "--exclude-self"]
        truth.write_text("q\trel\ta\nq\trel\tgone_q\na\trel\tq\na\trel\tgone_a\nb\trel\tq\nb\trel\tgone_b\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == "q\t0.500000\na\t0.500000\nb\t0.250000\nmAP\t0.416667\n"
        assert captured.err.splitlines() == [
            f"mkagg: warning: query {q!r}: relevant id(s) ['gone_{q}'] not in the index" for q in "qab"
        ]
        truth.write_text("q\trel\ta\na\trel\tq\nb\trel\tq\n")
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_self_only_relevant_with_exclude_errors(self, tmp_path, capsys):
        index, queries = self._build_corpus(tmp_path)
        truth = tmp_path / "truth.tsv"
        truth.write_text("q\trel\tq\n")
        code = main(["eval", "--index", str(index), "--queries", str(queries),
                     "--truth", str(truth), "--exclude-self"])
        assert code == 2
        assert "no relevant" in capsys.readouterr().err

    def test_empty_queries_exit_2(self, tmp_path, capsys):
        index, queries = self._build_corpus(tmp_path)
        queries.write_text("")
        truth = tmp_path / "truth.tsv"
        truth.write_text("q\trel\ta\n")
        code = main(["eval", "--index", str(index), "--queries", str(queries),
                     "--truth", str(truth)])
        assert code == 2
        captured = capsys.readouterr()
        assert "no queries to evaluate" in captured.err
        assert captured.out == ""

    def test_repeated_id_exit_3(self, tmp_path, capsys):
        index, _ = self._build_corpus(tmp_path)
        index.write_text(index.read_text() + index.read_text().split("\n")[1] + "\n")
        truth = tmp_path / "truth.tsv"
        truth.write_text("a\trel\tq\n")
        code = main(["eval", "--index", str(index), "--queries", str(index),
                     "--truth", str(truth)])
        assert code == 3
        assert "id 'a' repeats line 2" in capsys.readouterr().err

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        index, queries = self._build_corpus(tmp_path)
        truth = tmp_path / "truth.tsv"
        truth.write_text("q\trel\ta\nq\tjunk\tb\n")
        outputs = []
        for threads in ("1", "4"):
            assert main(["--threads", threads, "eval", "--index", str(index),
                         "--queries", str(queries), "--truth", str(truth)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestDemo2d:
    def test_sum_pairs_most_similar(self, tmp_path):
        out = tmp_path / "demo.tsv"
        assert main(["demo2d", "--output", str(out)]) == 0
        rows = {}
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "label\tx\ty"
        for line in lines[1:]:
            label, x, y = line.split("\t")
            rows.setdefault(label, []).append(np.array([float(x), float(y)]))
        assert len(rows["cluster"]) == 10

        def cosine(u, v):
            return float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))

        cos_sum = cosine(rows["sum_a"][0], rows["sum_b"][0])
        cos_dem = cosine(rows["democratic_a"][0], rows["democratic_b"][0])
        cos_gmp = cosine(rows["gmp_a"][0], rows["gmp_b"][0])
        assert cos_sum > cos_dem
        assert cos_sum > cos_gmp

    def test_failed_write_leaves_no_output(self, tmp_path, monkeypatch):
        failing_writes(monkeypatch)
        assert main(["demo2d", "--output", str(tmp_path / "demo.tsv")]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["demo2d", "--output", str(a)]) == 0
        assert main(["demo2d", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFilePipelineMatchesInProcess:
    def test_aggregate_then_normalize(self, toy_files, tmp_path):
        """Composing stages through files only loses float32 rounding."""
        mkds, mkcb = toy_files
        agg_path = tmp_path / "agg.mkvc"
        norm_path = tmp_path / "norm.mkvc"
        assert main(["aggregate", "--descriptors", str(mkds), "--codebook", str(mkcb),
                     "--embedding", "bow", "--method", "democratic", "--gamma", "0.5",
                     "--output", str(agg_path)]) == 0
        assert main(["normalize", "--input", str(agg_path), "--alpha", "0.5",
                     "--output", str(norm_path)]) == 0

        descriptors = DescriptorSet(np.array([[0.0], [0.1], [-0.1], [0.05], [10.0]], dtype=np.float32))
        codebook = Codebook(np.array([[0.0], [10.0]]))
        emb = embed_set(descriptors, codebook, EmbeddingConfig("bow"))
        w = sinkhorn_weights(gram(emb), DemocraticConfig(gamma=0.5))
        oracle = apply_chain(aggregate_democratic(emb, w), NormalizeConfig(alpha_exponent=0.5))
        np.testing.assert_allclose(matio.load_vector(norm_path), oracle.xi, atol=1e-6)
