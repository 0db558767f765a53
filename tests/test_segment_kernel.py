"""Accuracy and fault-isolation contracts of the segmented-sum kernel.

SpMV, block SpMV and every wavefront level of the triangular sweeps
reduce each row with :func:`repro.util.segment_sum_by_id`.  Two
properties follow from reducing every row directly from its own terms,
and both are pinned here on row-scaled inputs where a shared prefix sum
would break them:

* the rounding error of row ``i`` is bounded by
  ``len_i · eps · Σ|terms_i|`` — nothing another row holds enters it;
* a non-finite input poisons exactly the rows that reference it.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.precond import ScheduledTriangularSolver, solve_lower_sequential
from repro.sparse import (CSRMatrix, extract_lower, stencil_poisson_1d,
                          stencil_poisson_2d)

EPS = float(np.finfo(np.float64).eps)


def _row_of_entry(a: CSRMatrix) -> np.ndarray:
    return np.repeat(np.arange(a.n_rows), a.row_lengths())


def _row_scaled(a: CSRMatrix, scales: np.ndarray) -> CSRMatrix:
    """``diag(scales) · a`` — row magnitudes spanning many decades."""
    return CSRMatrix(a.indptr, a.indices, a.data * scales[_row_of_entry(a)],
                     a.shape, check=False)


def _two_level_lower(m: int, scales: np.ndarray) -> CSRMatrix:
    """Lower factor with 8 root rows and *m* rows in one wide level.

    Row ``8 + i`` holds three entries in the root columns plus its
    diagonal, all scaled by ``scales[i]``, so one wavefront reduces
    ``m`` rows whose magnitudes span the whole of *scales*.
    """
    n = 8 + m
    rows = [np.arange(8)]
    cols = [np.arange(8)]
    vals = [np.full(8, 2.0)]
    i = np.arange(m)
    for off, v in ((0, -1.0), (3, 0.5), (5, -0.25)):
        rows.append(8 + i)
        cols.append((i + off) % 8)
        vals.append(v * scales)
    rows.append(8 + i)
    cols.append(8 + i)
    vals.append(3.0 * scales)
    r, c, v = (np.concatenate(p) for p in (rows, cols, vals))
    dense = np.zeros((n, n))
    dense[r, c] = v
    return CSRMatrix.from_dense(dense)


def _spmv_error_ratio(a: CSRMatrix, x: np.ndarray, y: np.ndarray) -> float:
    """Largest ``|y_i − fsum(terms_i)| / (len_i · eps · Σ|terms_i|)``."""
    prod = a.data * x[a.indices]
    worst = 0.0
    for i in range(a.n_rows):
        t = prod[a.indptr[i]:a.indptr[i + 1]]
        if t.size == 0:
            assert y[i] == 0.0
            continue
        scale = t.size * EPS * math.fsum(np.abs(t))
        err = abs(y[i] - math.fsum(t))
        worst = max(worst, err / scale if scale else err)
    return worst


def _sweep_error_ratio(low: CSRMatrix, b: np.ndarray,
                       x: np.ndarray) -> float:
    """Largest per-row error of a forward sweep's computed *x*, in units
    of ``(len_i + 2) · eps · |1/d_i| · (|b_i| + Σ|terms_i|)``, with the
    terms ``l_ij · x_j`` formed from the sweep's own earlier rows."""
    lo_d = low.data.astype(np.float64)
    worst = 0.0
    for i in range(low.n_rows):
        lo, hi = low.indptr[i], low.indptr[i + 1]
        cols, vals = low.indices[lo:hi], lo_d[lo:hi]
        off = cols < i
        t = vals[off] * x[cols[off]]
        # The reciprocal pivot as the executor stores it: formed in
        # float64, rounded to the factor dtype.
        inv = float(low.dtype.type(1.0 / vals[~off].sum()))
        bi = float(b[i])
        ref = math.fsum([bi, *(-t)]) * inv
        scale = ((t.size + 2) * EPS * abs(inv)
                 * (abs(bi) + math.fsum(np.abs(t))))
        worst = max(worst, abs(x[i] - ref) / scale)
    return worst


class TestPerRowErrorBound:
    """|y_i − ref_i| ≤ len_i·eps·Σ|terms_i| with ``ref`` from ``fsum``."""

    scales = np.logspace(12, 0, 4000)

    def test_matvec_row_scaled_laplacian(self, make_rng):
        a = _row_scaled(stencil_poisson_1d(4000), self.scales)
        x = make_rng(1).standard_normal(a.n_cols)
        assert _spmv_error_ratio(a, x, a.matvec(x)) <= 1.0

    def test_matmat_row_scaled_laplacian(self, make_rng):
        a = _row_scaled(stencil_poisson_1d(4000), self.scales)
        x = make_rng(2).standard_normal((a.n_cols, 3))
        y = a.matmat(x)
        for j in range(3):
            assert _spmv_error_ratio(a, x[:, j], y[:, j]) <= 1.0

    def test_sweep_fast_path(self, make_rng):
        low = _two_level_lower(4000, self.scales)
        solver = ScheduledTriangularSolver(low)
        assert solver.n_levels == 2
        b = make_rng(3).standard_normal(low.n_rows)
        b[8:] *= self.scales
        assert _sweep_error_ratio(low, b, solver.solve(b)) <= 1.0

    def test_sweep_generic_path_float32_factor(self, make_rng):
        # float32 factor entries under a float64 right-hand side take
        # the allocating (non-fast) branch of the executor.
        low = _two_level_lower(4000, self.scales).astype(np.float32)
        b = make_rng(4).standard_normal(low.n_rows)
        b[8:] *= self.scales
        x = ScheduledTriangularSolver(low, pivot_rtol=0.0).solve(b)
        assert x.dtype == np.float64
        assert _sweep_error_ratio(low, b, x) <= 1.0

    def test_block_sweep(self, make_rng):
        low = _two_level_lower(4000, self.scales)
        b = make_rng(5).standard_normal((low.n_rows, 3))
        b[8:] *= self.scales[:, None]
        x = ScheduledTriangularSolver(low).solve(b)
        for j in range(3):
            assert _sweep_error_ratio(low, b[:, j], x[:, j]) <= 1.0

    @given(st.integers(0, 2 ** 31), st.integers(2, 300),
           st.floats(0.0, 15.0))
    @settings(max_examples=30, deadline=None)
    def test_matvec_random_row_magnitudes(self, seed, n, decades):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((n, n))
        dense[rng.random((n, n)) > 0.05] = 0.0
        scales = 10.0 ** rng.uniform(-decades, decades, size=n)
        a = _row_scaled(CSRMatrix.from_dense(dense), scales)
        x = rng.standard_normal(n)
        assert _spmv_error_ratio(a, x, a.matvec(x)) <= 1.0


class TestNonFiniteIsolation:
    """One ``inf`` poisons only the rows that reference it."""

    def test_matvec(self):
        a = stencil_poisson_2d(30)
        x = np.ones(a.n_rows)
        x[100] = np.inf
        bad = np.flatnonzero(~np.isfinite(a.matvec(x)))
        np.testing.assert_array_equal(
            bad, np.unique(_row_of_entry(a)[a.indices == 100]))
        assert bad.size == 5

    def test_matmat_other_columns_untouched(self):
        a = stencil_poisson_2d(30)
        x = np.ones((a.n_rows, 3))
        x[100, 1] = np.inf
        y = a.matmat(x)
        assert np.isfinite(y[:, [0, 2]]).all()
        assert np.flatnonzero(~np.isfinite(y[:, 1])).size == 5

    def test_sweep_matches_sequential_reachability(self):
        # Rows that depend (transitively) on the poisoned row are
        # non-finite in the sequential oracle; the wavefront executor
        # must poison exactly those, in both the 1-D and block sweeps.
        low = extract_lower(stencil_poisson_2d(30))
        b = np.ones(low.n_rows)
        b[100] = np.inf
        with np.errstate(invalid="ignore"):
            want = ~np.isfinite(solve_lower_sequential(low, b))
            solver = ScheduledTriangularSolver(low)
            got = ~np.isfinite(solver.solve(b))
            block = np.ones((low.n_rows, 3))
            block[:, 1] = b
            xb = solver.solve(block)
        assert 0 < want.sum() < low.n_rows
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(~np.isfinite(xb[:, 1]), want)
        assert np.isfinite(xb[:, [0, 2]]).all()
