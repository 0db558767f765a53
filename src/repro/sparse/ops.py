"""Elementwise and structural operations on CSR matrices.

These implement the algebra the sparsifier needs: the decomposition
``A = Â + S`` (Section 3.2), triangle extraction for the ILU factors, and
symmetry checks that guard the SPD assumptions.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotSymmetricError, ShapeError
from .coo import COOMatrix
from .csr import CSRMatrix

__all__ = [
    "add",
    "subtract",
    "scale",
    "diagonal",
    "extract_lower",
    "extract_upper",
    "extract_strict_lower",
    "extract_strict_upper",
    "is_structurally_symmetric",
    "is_symmetric",
    "symmetrize",
    "permute",
]


def _binary_shapes(a: CSRMatrix, b: CSRMatrix) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def add(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Entrywise sum ``A + B`` (explicit zeros are kept; use
    :meth:`CSRMatrix.eliminate_zeros` to drop them)."""
    _binary_shapes(a, b)
    rows_a = a.row_ids()
    rows_b = b.row_ids()
    dtype = np.result_type(a.dtype, b.dtype)
    coo = COOMatrix(
        np.concatenate([rows_a, rows_b]),
        np.concatenate([a.indices, b.indices]),
        np.concatenate([a.data.astype(dtype, copy=False),
                        b.data.astype(dtype, copy=False)]),
        a.shape, check=False)
    return coo.tocsr()


def subtract(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Entrywise difference ``A - B``."""
    return add(a, scale(b, -1.0))


def scale(a: CSRMatrix, alpha: float) -> CSRMatrix:
    """Scalar multiple ``alpha * A`` (new value array, shared indices)."""
    return CSRMatrix(a.indptr, a.indices, a.data * a.dtype.type(alpha),
                     a.shape, check=False)


def diagonal(a: CSRMatrix) -> np.ndarray:
    """Main diagonal of *A* as a dense vector."""
    return a.diagonal()


def _extract(a: CSRMatrix, keep_mask: np.ndarray) -> CSRMatrix:
    rows = a.row_ids()[keep_mask]
    indptr = np.zeros(a.n_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(indptr, a.indices[keep_mask], a.data[keep_mask],
                     a.shape, check=False)


def extract_lower(a: CSRMatrix) -> CSRMatrix:
    """Lower triangle including the diagonal."""
    return _extract(a, a.indices <= a.row_ids())


def extract_upper(a: CSRMatrix) -> CSRMatrix:
    """Upper triangle including the diagonal."""
    return _extract(a, a.indices >= a.row_ids())


def extract_strict_lower(a: CSRMatrix) -> CSRMatrix:
    """Strictly lower triangle (diagonal excluded)."""
    return _extract(a, a.indices < a.row_ids())


def extract_strict_upper(a: CSRMatrix) -> CSRMatrix:
    """Strictly upper triangle (diagonal excluded)."""
    return _extract(a, a.indices > a.row_ids())


def is_structurally_symmetric(a: CSRMatrix) -> bool:
    """``True`` when the sparsity pattern of *A* equals that of its
    transpose (values ignored)."""
    if a.shape[0] != a.shape[1]:
        return False
    t = a.transpose()
    return (np.array_equal(a.indptr, t.indptr)
            and np.array_equal(a.indices, t.indices))


def is_symmetric(a: CSRMatrix, tol: float = 0.0) -> bool:
    """``True`` when ``|A - A^T|`` is entrywise at most *tol*."""
    if a.shape[0] != a.shape[1]:
        return False
    t = a.transpose()
    if not (np.array_equal(a.indptr, t.indptr)
            and np.array_equal(a.indices, t.indices)):
        # Fall back to an exact difference for pattern-asymmetric storage
        # (a symmetric matrix may still carry explicit zeros).
        d = subtract(a, t)
        return bool(d.nnz == 0 or np.all(np.abs(d.data) <= tol))
    return bool(np.all(np.abs(a.data - t.data) <= tol))


def symmetrize(a: CSRMatrix) -> CSRMatrix:
    """Return ``(A + A^T) / 2``."""
    if a.shape[0] != a.shape[1]:
        raise NotSymmetricError("symmetrize requires a square matrix")
    return scale(add(a, a.transpose()), 0.5)


def permute(a: CSRMatrix, perm: np.ndarray) -> CSRMatrix:
    """Symmetric permutation ``A[perm, :][:, perm]``.

    ``perm[k]`` gives the original index placed at position *k* of the
    reordered matrix (the convention used by RCM).
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = a.n_rows
    if a.shape[0] != a.shape[1]:
        raise ShapeError("symmetric permutation requires a square matrix")
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ShapeError("perm must be a permutation of range(n)")
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n, dtype=np.int64)
    rows = a.row_ids()
    coo = COOMatrix(inv[rows], inv[a.indices], a.data.copy(), a.shape,
                    check=False)
    return coo.tocsr()
