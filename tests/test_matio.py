"""Binary matrix format: round-trips and malformed-file handling."""

import os
import struct

import numpy as np
import pytest

from mkagg import matio
from mkagg.types import (
    BadMagicError,
    BadVersionError,
    DimensionOverflowError,
    TruncatedFileError,
)


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
