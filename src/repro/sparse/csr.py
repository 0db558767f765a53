"""Compressed sparse row matrix — the workhorse container.

Everything in the SPCG pipeline (sparsification, ILU factorization,
wavefront scheduling, triangular solves, SpMV) operates on this class.
The canonical form required by the numeric kernels is: sorted column
indices within each row and no duplicate entries; :meth:`check_format`
verifies it and conversions from COO establish it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, SparseFormatError
from ..util import segment_sum_by_id

__all__ = ["CSRMatrix"]

#: ``(indptr, row ids)`` of the structure most recently multiplied.  Row
#: ids depend on ``indptr`` alone (never mutated in place), so matrices
#: sharing one ``indptr`` object share the entry.  One slot bounds the
#: memory to a single matrix while the hundreds of products of an
#: iterative solve reuse it; recomputing them per product costs a fifth
#: of the SpMV and a second ``nnz``-long temporary, which on larger
#: matrices makes the allocator trim and re-fault the heap on every call.
#: Readers and writers swap the whole tuple, so concurrent callers at
#: worst recompute.
_last_row_ids: tuple = (None, None)


def _spmv_row_ids(a: "CSRMatrix") -> np.ndarray:
    global _last_row_ids
    indptr, ids = _last_row_ids
    if indptr is not a.indptr:
        ids = a.row_ids()
        _last_row_ids = (a.indptr, ids)
    return ids


class CSRMatrix:
    """Sparse matrix in compressed sparse row format (Figure 1b of the paper).

    Parameters
    ----------
    indptr:
        Row pointer array of length ``n_rows + 1``.
    indices:
        Column indices, length ``nnz``.
    data:
        Values, length ``nnz``.
    shape:
        ``(n_rows, n_cols)``.
    check:
        When ``True`` (default) validate the format invariants.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape: tuple[int, int], *,
                 check: bool = True):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data)
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 0:
            raise ShapeError(f"invalid shape {shape!r}")
        self.shape = (int(shape[0]), int(shape[1]))
        if check:
            self.check_format()

    # -- basic properties ------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to a dense matrix."""
        n, m = self.shape
        return self.nnz / (n * m) if n and m else 0.0

    def row_lengths(self) -> np.ndarray:
        """Stored entries per row, length ``n_rows``."""
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry, length ``nnz``.

        Computed on each call, not stored: a long-lived matrix should not
        carry an extra ``nnz``-long array for its lifetime.
        """
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         self.row_lengths())

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of row *i*'s ``(columns, values)``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # -- validation ------------------------------------------------------
    def check_format(self) -> None:
        """Validate CSR invariants, raising :class:`SparseFormatError`.

        Checks: indptr length/monotonicity, index bounds, array lengths,
        sorted-and-unique columns within each row (the canonical form the
        numeric kernels assume).
        """
        n, m = self.shape
        if self.indptr.ndim != 1 or self.indptr.shape[0] != n + 1:
            raise SparseFormatError(
                f"indptr must have length n_rows+1={n + 1}, "
                f"got {self.indptr.shape}")
        if self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise SparseFormatError(
                "indices/data length must equal indptr[-1]")
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= m:
                raise SparseFormatError("column index out of bounds")
            # Sorted & unique within rows: differences inside a row must be
            # strictly positive.  Row boundaries are exempt.
            d = np.diff(self.indices)
            row_start = np.zeros(nnz, dtype=bool)
            # Interior row starts; boundaries equal to nnz come from
            # trailing empty rows and mark no entry.
            starts = self.indptr[1:-1]
            row_start[starts[starts < nnz]] = True
            interior = ~row_start[1:]
            if np.any(d[interior] <= 0):
                raise SparseFormatError(
                    "column indices must be sorted and unique within rows")

    # -- constructors / conversions --------------------------------------
    @classmethod
    def from_dense(cls, dense, *, dtype=None) -> "CSRMatrix":
        """Build from a dense 2-D array, storing its nonzero entries."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-D array")
        if dtype is not None:
            dense = dense.astype(dtype, copy=False)
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, cols.astype(np.int64), dense[rows, cols].copy(),
                   dense.shape, check=False)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array.

        Duplicate coordinates (possible with ``check=False``) are
        summed, matching :meth:`matvec` and the COO convention.
        """
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.row_ids(), self.indices), self.data)
        return out

    def tocoo(self):
        """Convert to :class:`~repro.sparse.coo.COOMatrix` (copies indices)."""
        from .coo import COOMatrix

        return COOMatrix(self.row_ids(), self.indices.copy(),
                         self.data.copy(), self.shape, check=False)

    def tocsc(self):
        """Convert to :class:`~repro.sparse.csc.CSCMatrix`."""
        from .csc import CSCMatrix

        t = self.transpose()
        return CSCMatrix(t.indptr, t.indices, t.data, self.shape, check=False)

    def transpose(self) -> "CSRMatrix":
        """Return the transpose as a new canonical CSR matrix."""
        n, m = self.shape
        rows = self.row_ids()
        # Stable counting sort by column gives the transpose's row order;
        # within a column the original row order is already ascending, so
        # the result is canonical.
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        order = np.argsort(self.indices, kind="stable")
        return CSRMatrix(indptr, rows[order], self.data[order], (m, n),
                         check=False)

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(self.indptr.copy(), self.indices.copy(),
                         self.data.copy(), self.shape, check=False)

    def astype(self, dtype) -> "CSRMatrix":
        """Return a copy with values cast to *dtype* (indices shared)."""
        return CSRMatrix(self.indptr, self.indices,
                         self.data.astype(dtype), self.shape, check=False)

    # -- numeric kernels ---------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix–vector product ``y = A @ x``.

        Vectorized as a gather + segmented sum; this is the SpMV kernel on
        line 9 of Algorithm 1.  Each row is reduced directly from its own
        products (:func:`~repro.util.segment_sum_by_id`), so its rounding
        error is bounded by that row's terms alone.
        """
        x = np.asarray(x)
        if x.shape != (self.n_cols,):
            raise ShapeError(
                f"x must have shape ({self.n_cols},), got {x.shape}")
        dtype = np.result_type(self.data.dtype, x.dtype)
        prod = np.take(x, self.indices).astype(dtype, copy=False)
        np.multiply(prod, self.data, out=prod)
        y = segment_sum_by_id(prod, _spmv_row_ids(self), self.n_rows)
        if out is None:
            return y
        out[...] = y
        return out

    def matmat(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """Sparse matrix–dense block product ``Y = A @ X``, ``X`` (n, B).

        The batched SpMV of the multi-RHS solver: one gather serves all
        ``B`` columns, then each column is reduced by the 1-D kernel on
        the very products :meth:`matvec` forms for it.  Column ``j`` of
        the result is therefore bitwise identical to ``matvec(X[:, j])``,
        so block solves decompose exactly into single-RHS ones.  The
        gather runs on ``Xᵀ`` so that every column's products are
        contiguous: one ``(nnz, B)`` ``bincount`` over flattened ids
        costs more in memory traffic than ``B`` contiguous ones.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.n_cols:
            raise ShapeError(
                f"x must have shape ({self.n_cols}, B), got {x.shape}")
        dtype = np.result_type(self.data.dtype, x.dtype)
        prod = np.take(np.ascontiguousarray(x.T, dtype=dtype),
                       self.indices, axis=1)
        np.multiply(prod, self.data, out=prod)
        ids = _spmv_row_ids(self)
        y = out if out is not None else np.empty((self.n_rows, x.shape[1]),
                                                  dtype=dtype)
        for j, col in enumerate(prod):
            y[:, j] = segment_sum_by_id(col, ids, self.n_rows)
        return y

    def __matmul__(self, x):
        if isinstance(x, np.ndarray) and x.ndim == 1:
            return self.matvec(x)
        if isinstance(x, np.ndarray) and x.ndim == 2:
            return self.matmat(x)
        return NotImplemented

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (zeros where unstored).

        Duplicate stored coordinates (representable when built with
        ``check=False``) are **summed** — the same assembly semantics
        :meth:`matvec` and the COO conversion apply — so every consumer
        of the diagonal sees the matrix the numeric kernels act on.
        """
        n = min(self.shape)
        out = np.zeros(n, dtype=self.data.dtype)
        rows = self.row_ids()
        mask = (rows == self.indices) & (rows < n)
        np.add.at(out, rows[mask], self.data[mask])
        return out

    def eliminate_zeros(self, tol: float = 0.0) -> "CSRMatrix":
        """Return a copy with entries of magnitude ``<= tol`` removed."""
        keep = np.abs(self.data) > tol
        rows = self.row_ids()[keep]
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(indptr, self.indices[keep], self.data[keep],
                         self.shape, check=False)

    def get(self, i: int, j: int) -> float:
        """Value at ``(i, j)`` (0.0 when unstored). O(log row length)."""
        cols, vals = self.row_slice(i)
        k = np.searchsorted(cols, j)
        if k < cols.shape[0] and cols[k] == j:
            return float(vals[k])
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"dtype={self.data.dtype})")
