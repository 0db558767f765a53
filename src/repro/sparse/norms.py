"""Matrix norms for sparse matrices.

The sparsification convergence indicator (Section 3.2.2) needs the
inf-norm of ``Â`` (as the largest-eigenvalue proxy), the norm of the
residual matrix ``S``, and an estimate of ``‖Â‖₂`` for the identity
``‖Â⁻¹‖ ≈ κ(Â)/‖Â‖₂``.  The 2-norm is estimated by power iteration on
``AᵀA`` — cheap, matrix-free and good enough for the heuristic (the paper
makes the same accuracy/cost trade-off).
"""

from __future__ import annotations

import numpy as np

from ..util import segment_sum_by_id
from .csr import CSRMatrix

__all__ = ["norm_inf", "norm_1", "norm_fro", "norm_max", "norm_2_est"]


def norm_inf(a: CSRMatrix) -> float:
    """Infinity norm: maximum absolute row sum."""
    if a.nnz == 0:
        return 0.0
    sums = segment_sum_by_id(np.abs(a.data), a.row_ids(), a.n_rows)
    return float(sums.max(initial=0.0))


def norm_1(a: CSRMatrix) -> float:
    """1-norm: maximum absolute column sum."""
    if a.nnz == 0:
        return 0.0
    col_sums = np.zeros(a.n_cols, dtype=np.float64)
    np.add.at(col_sums, a.indices, np.abs(a.data).astype(np.float64))
    return float(col_sums.max(initial=0.0))


def norm_fro(a: CSRMatrix) -> float:
    """Frobenius norm."""
    return float(np.sqrt(np.sum(np.abs(a.data.astype(np.float64)) ** 2)))


def norm_max(a: CSRMatrix) -> float:
    """Largest absolute entry (not a sub-multiplicative norm)."""
    if a.nnz == 0:
        return 0.0
    return float(np.abs(a.data).max())


def norm_2_est(a: CSRMatrix, *, iters: int = 25, seed: int = 0,
               rtol: float = 1e-6) -> float:
    """Spectral-norm estimate by power iteration on ``AᵀA``.

    Returns an estimate of ``σ_max(A)``.  Deterministic for a fixed *seed*.
    Converges geometrically at rate ``(σ₂/σ₁)²``; 25 iterations is ample
    for the indicator's purposes.
    """
    n, m = a.shape
    if a.nnz == 0 or n == 0 or m == 0:
        return 0.0
    at = a.transpose()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max(1, iters)):
        w = a.matvec(v.astype(a.dtype, copy=False)).astype(np.float64)
        z = at.matvec(w.astype(a.dtype, copy=False)).astype(np.float64)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        new_sigma = float(np.sqrt(nz))
        v = z / nz
        if sigma > 0.0 and abs(new_sigma - sigma) <= rtol * sigma:
            sigma = new_sigma
            break
        sigma = new_sigma
    return sigma
