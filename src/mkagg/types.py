"""Shared domain types for descriptor aggregation pipelines.

All types are immutable after construction and may be shared freely across
threads. Block structure has one representation: an embedded set stores one
in-block row per descriptor plus the descriptor's block, and a kernel is a
tuple of diagonal blocks (a dense kernel is one block). The public
constructors validate their input; the pipeline stages build their results
through the private ``_trusted`` constructors, which skip what holds by
construction. Raw descriptors are stored as float32 (the usual descriptor-file
dtype); everything derived from them (embeddings, kernels, weights,
aggregates) is kept in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DataFormatError(Exception):
    """A file does not conform to one of the declared on-disk formats."""


class BadMagicError(DataFormatError):
    pass


class BadVersionError(DataFormatError):
    pass


class TruncatedFileError(DataFormatError):
    pass


class DimensionOverflowError(DataFormatError):
    pass


class NumericalError(Exception):
    """A numerical procedure failed."""


class ScalingError(NumericalError):
    """Sinkhorn scaling met a nonpositive row sum (kernel needs clipping)."""


class ZeroVectorError(NumericalError):
    """A zero vector reached an operation that requires a nonzero norm."""


def _as_finite(arr: np.ndarray, name: str, dtype: np.dtype | type) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must contain only finite values")
    return out


@dataclass(frozen=True)
class DescriptorSet:
    """An image's n local descriptors, one per row, in input space R^d.

    Row order is significant: weight vectors index descriptors positionally.
    n = 0 is representable (an image with no features) but rejected by the
    aggregation operations downstream.
    """

    data: np.ndarray

    def __post_init__(self):
        data = _as_finite(self.data, "descriptors", np.float32)
        if data.ndim != 2:
            raise ValueError(f"descriptor array must be 2-D, got shape {data.shape}")
        if data.shape[1] < 1:
            raise ValueError("descriptor dimensionality d must be >= 1")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Codebook:
    """Visual vocabulary: c centroids in the descriptor space."""

    centroids: np.ndarray

    def __post_init__(self):
        cent = _as_finite(self.centroids, "centroids", np.float64)
        if cent.ndim != 2 or cent.shape[0] < 1:
            raise ValueError(f"centroids must be a nonempty 2-D array, got shape {cent.shape}")
        # Duplicate centroids would make hard assignment ambiguous. Rows equal
        # under == (so -0.0 equals 0.0) are adjacent after a lexicographic
        # sort; report the lowest index that has a later duplicate.
        order = np.lexsort(cent.T)
        ordered = cent[order]
        dup = np.all(ordered[1:] == ordered[:-1], axis=1)
        if np.any(dup):
            first = np.minimum(order[1:], order[:-1])[dup].min()
            raise ValueError(f"centroid {first} is duplicated")
        object.__setattr__(self, "centroids", cent)

    @property
    def c(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, unvalidated."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, init=False)
class EmbeddedSet:
    """Per-descriptor embeddings in R^D, stored block by block.

    R^D splits into c contiguous blocks of width w (D = c*w), one per
    centroid, and descriptor i may be nonzero only in block ``assignment[i]``.
    ``rows`` is the n x w array of those in-block entries, so block support
    holds by construction:

      * the residual embedding has w = d;
      * the bow embedding has w = 1;
      * a set built from an arbitrary dense matrix is one block, c = 1, w = D.

    The constructor takes the dense D x n matrix ``phi`` (one column per
    descriptor), optionally with ``assignment`` and a ``block_layout`` of c
    half-open row ranges that must tile D in order with equal widths, checks
    that every column is zero outside its block and keeps only the rows.
    The ``phi`` property materializes the dense matrix again, for tests and
    reference implementations; the pipeline never reads it.
    """

    rows: np.ndarray
    assignment: np.ndarray
    c: int
    unit_columns: bool

    def __init__(
        self,
        phi: np.ndarray,
        assignment: np.ndarray | None = None,
        block_layout: tuple[tuple[int, int], ...] | None = None,
        unit_columns: bool = False,
    ):
        phi = _as_finite(phi, "embeddings", np.float64)
        if phi.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-D, got shape {phi.shape}")
        dim, n = phi.shape
        if (assignment is None) != (block_layout is None):
            raise ValueError("assignment and block_layout must be given together")
        if assignment is None:
            assignment = np.zeros(n, dtype=np.int64)
            layout = ((0, dim),)
        else:
            assignment = np.ascontiguousarray(assignment, dtype=np.int64)
            if assignment.shape != (n,):
                raise ValueError("assignment length must match the number of columns")
            layout = tuple((int(s), int(e)) for s, e in block_layout)
            for k, (s, e) in enumerate(layout):
                if not (0 <= s < e <= dim):
                    raise ValueError(f"block {k} range [{s},{e}) is out of bounds")
            if assignment.size and (assignment.min() < 0 or assignment.max() >= len(layout)):
                raise ValueError("assignment refers to a centroid without a block")
            width = layout[0][1] if layout else 0
            tiling = tuple((k * width, (k + 1) * width) for k in range(len(layout)))
            if not layout or layout != tiling or len(layout) * width != dim:
                raise ValueError("block_layout must tile the embedding rows with equal contiguous blocks")

        c = len(layout)
        rows = np.ascontiguousarray(phi.reshape(c, dim // c, n)[assignment, :, np.arange(n)])
        # The rows hold every in-block entry, so phi has no other nonzero
        # entry exactly when both counts agree.
        if np.count_nonzero(rows) != np.count_nonzero(phi):
            raise ValueError("column has nonzero entries outside its assigned block")
        if unit_columns:
            norms = np.linalg.norm(rows, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ValueError("unit_columns declared but some column norm is not 1")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "unit_columns", bool(unit_columns))

    @classmethod
    def _trusted(
        cls, rows: np.ndarray, assignment: np.ndarray, c: int, unit_columns: bool
    ) -> "EmbeddedSet":
        """Wrap parts that already hold every invariant: ``rows`` a finite
        C-contiguous float64 n x w array, ``assignment`` int64 in [0, c), and
        ``unit_columns`` true only for rows of norm 1. Checks nothing."""
        return _unchecked(cls, rows=rows, assignment=assignment, c=c, unit_columns=unit_columns)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    @property
    def dim(self) -> int:
        return self.c * self.width

    @property
    def block_layout(self) -> tuple[tuple[int, int], ...]:
        w = self.width
        return tuple((k * w, (k + 1) * w) for k in range(self.c))

    @property
    def phi(self) -> np.ndarray:
        """The dense D x n embedding matrix, materialized on every access."""
        out = np.zeros((self.c, self.width, self.n))
        out[self.assignment, :, np.arange(self.n)] = self.rows
        return out.reshape(self.dim, self.n)

    def cells(self) -> list[tuple[int, np.ndarray]]:
        """(block, ascending descriptor indices) for every nonempty block."""
        order = np.argsort(self.assignment, kind="stable")
        cuts = np.flatnonzero(np.diff(self.assignment[order])) + 1
        return [(int(self.assignment[idx[0]]), idx) for idx in np.split(order, cuts) if idx.size]

    def pool(self, alpha: np.ndarray) -> np.ndarray:
        """The D-vector sum_i alpha_i phi_i, one product per block."""
        if alpha.shape[0] != self.n:
            raise ValueError(
                f"weight vector has length {alpha.shape[0]}, embeddings have {self.n} columns"
            )
        out = np.zeros((self.c, self.width))
        for k, idx in self.cells():
            out[k] = alpha[idx] @ self.rows[idx]
        return out.reshape(-1)

    def matches(self, xi: np.ndarray) -> np.ndarray:
        """The n-vector of matches phi_i . xi, one product per block: the
        adjoint of ``pool``, so ``matches(pool(a))`` is K a without K."""
        if xi.shape != (self.dim,):
            raise ValueError(f"vector has shape {xi.shape}, embeddings have dimension {self.dim}")
        blocks = xi.reshape(self.c, self.width)
        out = np.zeros(self.n)
        for k, idx in self.cells():
            out[idx] = self.rows[idx] @ blocks[k]
        return out


@dataclass(frozen=True)
class KernelBlock:
    """One diagonal block of a block-diagonal Gram matrix.

    ``indices`` are the global descriptor indices the block covers (ascending);
    ``values`` is the dense symmetric sub-matrix over those descriptors.
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        vals = _as_finite(self.values, "kernel block", np.float64)
        if idx.ndim != 1 or vals.shape != (idx.size, idx.size):
            raise ValueError("block values must be square and match the index count")
        if idx.size > 1 and np.any(np.diff(idx) <= 0):
            raise ValueError("block indices must be strictly ascending")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)


_SYM_RTOL = 1e-9


def _check_symmetric(mat: np.ndarray, what: str) -> None:
    bound = _SYM_RTOL * np.maximum(1.0, np.abs(mat))
    if np.any(np.abs(mat - mat.T) > bound):
        raise ValueError(f"{what} is not symmetric within tolerance")


@dataclass(frozen=True)
class KernelMatrix:
    """The n x n Gram matrix of pairwise embedding similarities.

    Stored as diagonal blocks whose ``indices`` partition the descriptors;
    entries between different blocks are exact zeros. A matrix without block
    structure is a single block over every descriptor (``from_dense``).
    """

    n: int
    blocks: tuple[KernelBlock, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("kernel order must be >= 1")
        blocks = tuple(self.blocks)
        covered = np.concatenate([b.indices for b in blocks]) if blocks else np.empty(0, np.int64)
        if not np.array_equal(np.sort(covered), np.arange(self.n)):
            raise ValueError("block indices must partition the descriptor range")
        for b in blocks:
            _check_symmetric(b.values, "kernel block")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "KernelMatrix":
        mat = np.asarray(mat, dtype=np.float64)
        n = mat.shape[0]
        return cls(n=n, blocks=(KernelBlock(indices=np.arange(n), values=mat),))

    @classmethod
    def from_blocks(cls, blocks: tuple[KernelBlock, ...], n: int) -> "KernelMatrix":
        return cls(n=n, blocks=tuple(blocks))

    @classmethod
    def _trusted(cls, n: int, blocks) -> "KernelMatrix":
        """Wrap (indices, values) pairs that already hold every invariant:
        ascending int64 indices partitioning range(n), finite float64 values
        that are exactly symmetric. Checks nothing."""
        blocks = tuple(_unchecked(KernelBlock, indices=idx, values=vals) for idx, vals in blocks)
        return _unchecked(cls, n=n, blocks=blocks)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for b in self.blocks:
            out[np.ix_(b.indices, b.indices)] = b.values
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError("vector length does not match kernel order")
        out = np.zeros(self.n)
        for b in self.blocks:
            out[b.indices] = b.values @ v[b.indices]
        return out

    def abs_row_sums(self) -> np.ndarray:
        out = np.zeros(self.n)
        for b in self.blocks:
            out[b.indices] = np.abs(b.values).sum(axis=1)
        return out


_WEIGHT_METHODS = ("uniform", "democratic", "gmp")


@dataclass(frozen=True)
class WeightVector:
    """Per-descriptor aggregation weights, tagged with how they were computed."""

    alpha: np.ndarray
    method: str

    def __post_init__(self):
        alpha = _as_finite(self.alpha, "weights", np.float64)
        if alpha.ndim != 1:
            raise ValueError("weights must be a 1-D vector")
        if self.method not in _WEIGHT_METHODS:
            raise ValueError(f"unknown weight method {self.method!r}")
        if self.method == "democratic" and np.any(alpha <= 0.0):
            raise ValueError("democratic weights must be strictly positive")
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class AggregateVector:
    """A pooled image vector plus the ordered list of transforms applied to it.

    ``state`` starts at ("raw",) and records normalization steps such as
    "rotated", "power(0.5)", "truncated(128)" and "l2" in application order.
    """

    xi: np.ndarray
    state: tuple[str, ...] = ("raw",)

    def __post_init__(self):
        xi = _as_finite(self.xi, "aggregate", np.float64)
        if xi.ndim != 1:
            raise ValueError("aggregate must be a 1-D vector")
        state = tuple(self.state)
        if not state:
            raise ValueError("state must record at least the raw stage")
        if state[-1] == "l2":
            norm = np.linalg.norm(xi)
            if abs(norm - 1.0) > 1e-6:
                raise ValueError(f"l2-normalized vector has norm {norm}")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "state", state)

    @property
    def dim(self) -> int:
        return self.xi.shape[0]

    @property
    def is_normalized(self) -> bool:
        return bool(self.state) and self.state[-1] == "l2"
