"""Binary matrix format: round-trips and malformed-file handling."""

import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mkagg import matio
from mkagg.types import (
    BadMagicError,
    BadVersionError,
    DataFormatError,
    DimensionOverflowError,
    TruncatedFileError,
)
from oracles import failing_writes


class TestRoundTrip:
    def test_zeros_identity(self, tmp_path):
        path = tmp_path / "m.mkds"
        mat = np.zeros((3, 2), dtype=np.float32)
        matio.write_matrix_file(path, matio.MAGIC_DESCRIPTORS, mat)
        back, header = matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)
        np.testing.assert_array_equal(back, mat)
        assert (header.rows, header.cols) == (3, 2)
        assert header.version == 1

    def test_single_value_sizes(self, tmp_path):
        """Header is 24 bytes; each value adds 4."""
        path = tmp_path / "m.mkvc"
        matio.write_matrix_file(path, matio.MAGIC_VECTOR, np.array([[42.0]]))
        assert path.stat().st_size == 24 + 4

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "m.mkds"
        matio.write_matrix_file(path, matio.MAGIC_DESCRIPTORS, np.zeros((0, 5), dtype=np.float32))
        assert path.stat().st_size == 24
        back, header = matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)
        assert back.shape == (0, 5)
        assert header.rows == 0 and header.cols == 5

    def test_random_float32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        mat = rng.normal(size=(100, 64)).astype(np.float32)
        path = tmp_path / "m.mkds"
        matio.write_matrix_file(path, matio.MAGIC_DESCRIPTORS, mat)
        back, _ = matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)
        assert back.tobytes() == mat.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (200, 5), (1, 128)])
    def test_shapes_round_trip(self, tmp_path, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        mat = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "m.mkcb"
        matio.write_matrix_file(path, matio.MAGIC_CODEBOOK, mat)
        back, _ = matio.read_matrix_file(path, matio.MAGIC_CODEBOOK)
        assert back.tobytes() == mat.tobytes()


class TestMalformedFiles:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        header = struct.pack("<4sIQQ", b"XXXX", 1, 1, 1)
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(BadMagicError, match="magic"):
            matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)

    def test_truncated_payload(self, tmp_path):
        """Header promises 2x3 but only 5 floats follow."""
        path = tmp_path / "m.bin"
        header = struct.pack("<4sIQQ", b"MKDS", 1, 2, 3)
        path.write_bytes(header + b"\x00" * (4 * 5))
        with pytest.raises(TruncatedFileError, match="payload"):
            matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)

    def test_file_shorter_than_its_size_on_open(self, tmp_path, monkeypatch):
        """A payload that ends early while being read is an error, not uninitialized data."""
        path = tmp_path / "m.mkds"
        matio.write_matrix_file(path, matio.MAGIC_DESCRIPTORS, np.ones((2, 2)))
        full = os.stat(path)
        with open(path, "r+b") as fh:
            fh.truncate(full.st_size - 4)
        monkeypatch.setattr(matio.os, "fstat", lambda fd: full)
        with pytest.raises(TruncatedFileError, match="ended"):
            matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"MKDS\x01")
        with pytest.raises(TruncatedFileError, match="header"):
            matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.bin"
        header = struct.pack("<4sIQQ", b"MKDS", 9, 1, 1)
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(BadVersionError, match="version"):
            matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "m.bin"
        header = struct.pack("<4sIQQ", b"MKDS", 1, 2**50, 1)
        path.write_bytes(header)
        with pytest.raises(DimensionOverflowError, match="rows"):
            matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)

    def test_dimension_overflow_cols(self, tmp_path):
        path = tmp_path / "m.bin"
        header = struct.pack("<4sIQQ", b"MKDS", 1, 1, 2**50)
        path.write_bytes(header)
        with pytest.raises(DimensionOverflowError, match="cols"):
            matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)

    def test_nonfinite_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            matio.write_matrix_file(
                tmp_path / "m.bin", matio.MAGIC_DESCRIPTORS, np.array([[np.inf]])
            )


class TestVectorHelpers:
    def test_save_load_vector(self, tmp_path):
        path = tmp_path / "v.mkvc"
        vec = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        matio.save_vector(path, vec)
        np.testing.assert_array_equal(matio.load_vector(path), vec.astype(np.float64))

    def test_load_vector_rejects_matrix(self, tmp_path):
        path = tmp_path / "v.mkvc"
        matio.write_matrix_file(path, matio.MAGIC_VECTOR, np.zeros((2, 2)))
        with pytest.raises(DimensionOverflowError, match="one row or one column"):
            matio.load_vector(path)


WRITERS = {
    "matrix": lambda path: matio.write_matrix_file(path, matio.MAGIC_VECTOR, np.ones((1, 64))),
    "text": lambda path: matio.write_text_file(path, "id\tweight\n" * 64),
}


class TestFailedWrite:
    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, writer, existing):
        path = tmp_path / "out"
        if existing:
            path.write_bytes(b"previous")
        failing_writes(monkeypatch)
        with pytest.raises(OSError, match="No space"):
            WRITERS[writer](path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", WRITERS)
    def test_write_leaves_only_the_target(self, tmp_path, writer):
        path = tmp_path / "out"
        path.write_bytes(b"previous")
        WRITERS[writer](path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() != b"previous"

    def test_text_is_utf8(self, tmp_path):
        path = tmp_path / "out.tsv"
        matio.write_text_file(path, "caf\u00e9\n")
        assert path.read_bytes() == "caf\u00e9\n".encode("utf-8")


MAGICS = (matio.MAGIC_DESCRIPTORS, matio.MAGIC_CODEBOOK, matio.MAGIC_VECTOR, matio.MAGIC_ROTATION)
FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


def _read_bytes(data: bytes, magic: bytes) -> None:
    """Read ``data`` as a matrix file: it must give a matrix that matches its
    header or raise DataFormatError, and nothing else."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bin"
        path.write_bytes(data)
        try:
            mat, header = matio.read_matrix_file(path, magic)
        except DataFormatError:
            return
    assert header.magic == magic and header.version == matio.FORMAT_VERSION
    assert mat.shape == (header.rows, header.cols)
    assert len(data) == matio.HEADER_SIZE + 4 * mat.size


_SIZES = st.one_of(st.integers(0, 6), st.integers(0, 2**64 - 1))


@st.composite
def _headed_bytes(draw):
    """A header with a known magic, a likely version and random sizes, then
    random payload bytes."""
    header = struct.pack(
        "<4sIQQ", draw(st.sampled_from(MAGICS)), draw(st.sampled_from([1, 1, 0, 2, 2**32 - 1])),
        draw(_SIZES), draw(_SIZES),
    )
    return header + draw(st.binary(max_size=120))


@st.composite
def _valid_files(draw):
    """(file bytes, magic) of a valid matrix file."""
    magic = draw(st.sampled_from(MAGICS))
    mat = draw(arrays(np.float32, st.tuples(st.integers(0, 5), st.integers(0, 5))))
    return struct.pack("<4sIQQ", magic, 1, *mat.shape) + mat.astype("<f4").tobytes(), magic


class TestReaderFuzz:
    @FUZZ
    @given(st.one_of(st.binary(max_size=120), _headed_bytes()), st.sampled_from(MAGICS))
    def test_random_bytes(self, data, magic):
        _read_bytes(data, magic)

    @FUZZ
    @given(_valid_files(), st.data())
    def test_truncated_valid_file(self, case, data):
        raw, magic = case
        _read_bytes(raw[: data.draw(st.integers(0, len(raw)))], magic)

    @FUZZ
    @given(_valid_files(), st.data())
    def test_flipped_valid_file(self, case, data):
        raw, magic = case
        flips = data.draw(st.lists(
            st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), min_size=1, max_size=4
        ))
        garbled = bytearray(raw)
        for pos, mask in flips:
            garbled[pos] ^= mask
        _read_bytes(bytes(garbled), magic)
