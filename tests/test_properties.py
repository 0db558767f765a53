"""Property-based tests (hypothesis) on the core invariants.

Strategy helpers build random sparse matrices directly in canonical CSR
form so shrinking stays meaningful.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (make_preconditioner, sparsify_magnitude,
                        wavefront_aware_sparsify)
from repro.graph import level_schedule, level_schedule_reference
from repro.precond import (ScheduledTriangularSolver, ilu0,
                           solve_lower_sequential)
from repro.sparse import CSRMatrix, add, is_symmetric
from repro.util import gmean, rankdata, segment_sum


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

@st.composite
def dense_matrix(draw, max_n=12, square=True, lower=False,
                 unit_diag=False, spd=False):
    n = draw(st.integers(1, max_n))
    m = n if square else draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    density = draw(st.floats(0.05, 0.6))
    dense = rng.standard_normal((n, m))
    dense[rng.random((n, m)) > density] = 0.0
    if spd:
        dense = np.tril(dense, -1)
        dense = dense + dense.T
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    elif lower:
        dense = np.tril(dense, -1)
        np.fill_diagonal(dense, 1.0 if unit_diag else rng.random(n) + 0.5)
    return dense


@st.composite
def segments(draw):
    total = draw(st.integers(0, 60))
    k = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    bounds = np.sort(rng.integers(0, total + 1, size=k + 1))
    values = rng.standard_normal(total)
    return values, bounds[:-1], bounds[1:]


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

class TestSegmentSumProperties:
    @given(segments())
    @settings(max_examples=60, deadline=None)
    def test_matches_python_sum(self, data):
        values, starts, ends = data
        out = segment_sum(values, starts, ends)
        expect = np.array([values[s:e].sum() for s, e in zip(starts, ends)])
        np.testing.assert_allclose(out, expect, atol=1e-10)

    @given(segments())
    @settings(max_examples=30, deadline=None)
    def test_total_preserved_for_partition(self, data):
        values, _, _ = data
        if values.size == 0:
            return
        mid = values.size // 2
        out = segment_sum(values, np.array([0, mid]),
                          np.array([mid, values.size]))
        assert out.sum() == pytest.approx(values.sum(), abs=1e-9)


class TestCSRProperties:
    @given(dense_matrix(square=False))
    @settings(max_examples=50, deadline=None)
    def test_dense_roundtrip(self, dense):
        a = CSRMatrix.from_dense(dense)
        a.check_format()
        np.testing.assert_allclose(a.to_dense(), dense)

    @given(dense_matrix(square=False))
    @settings(max_examples=50, deadline=None)
    def test_transpose_involution_and_oracle(self, dense):
        a = CSRMatrix.from_dense(dense)
        t = a.transpose()
        t.check_format()
        np.testing.assert_allclose(t.to_dense(), dense.T)
        np.testing.assert_allclose(t.transpose().to_dense(), dense)

    @given(dense_matrix(square=False), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_matvec_linear(self, dense, seed):
        a = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(a.n_cols)
        y = rng.standard_normal(a.n_cols)
        lhs = a.matvec(2.0 * x - 3.0 * y)
        rhs = 2.0 * a.matvec(x) - 3.0 * a.matvec(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestLevelScheduleProperties:
    @given(dense_matrix(lower=True))
    @settings(max_examples=50, deadline=None)
    def test_frontier_equals_reference(self, dense):
        low = CSRMatrix.from_dense(dense)
        a = level_schedule(low)
        b = level_schedule_reference(low)
        np.testing.assert_array_equal(a.level_of, b.level_of)

    @given(dense_matrix(lower=True))
    @settings(max_examples=50, deadline=None)
    def test_schedule_valid_and_complete(self, dense):
        low = CSRMatrix.from_dense(dense)
        sched = level_schedule(low)
        sched.validate_against(low)
        assert np.array_equal(np.sort(sched.rows),
                              np.arange(low.n_rows))

    @given(dense_matrix(lower=True))
    @settings(max_examples=30, deadline=None)
    def test_levels_bounded_by_critical_path(self, dense):
        from repro.graph import dependence_dag

        low = CSRMatrix.from_dense(dense)
        sched = level_schedule(low)
        assert sched.n_levels == dependence_dag(low).critical_path_length()


class TestTriangularSolveProperties:
    @given(dense_matrix(lower=True), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_scheduled_equals_sequential(self, dense, seed):
        low = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(low.n_rows)
        x1 = ScheduledTriangularSolver(low, kind="lower").solve(b)
        x2 = solve_lower_sequential(low, b)
        np.testing.assert_allclose(x1, x2, rtol=1e-7, atol=1e-7)

    @given(dense_matrix(lower=True), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_solution_satisfies_system(self, dense, seed):
        low = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(low.n_rows)
        x = ScheduledTriangularSolver(low, kind="lower").solve(b)
        np.testing.assert_allclose(low.matvec(x), b, rtol=1e-6, atol=1e-6)


def _block_layout(x: np.ndarray, layout: str) -> np.ndarray:
    """*x* as a C-ordered, F-ordered or non-contiguous (strided) block."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.zeros((x.shape[0], 2 * x.shape[1]), dtype=x.dtype)
        wide[:, ::2] = x
        return wide[:, ::2]
    return x


LAYOUTS = st.sampled_from(["C", "F", "strided"])


class TestBlockKernelBitwiseProperties:
    """Column ``j`` of every block call equals the 1-D call, bitwise."""

    @given(dense_matrix(square=False), st.integers(0, 2 ** 31), LAYOUTS)
    @settings(max_examples=40, deadline=None)
    def test_matmat_columns(self, dense, seed, layout):
        # Sparse random matrices routinely contain empty rows.
        a = CSRMatrix.from_dense(dense)
        x = _block_layout(
            np.random.default_rng(seed).standard_normal((a.n_cols, 3)),
            layout)
        y = a.matmat(x)
        for j in range(3):
            np.testing.assert_array_equal(y[:, j],
                                          a.matvec(x[:, j].copy()))

    @given(dense_matrix(max_n=14, lower=True), st.integers(0, 2 ** 31),
           LAYOUTS, st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=40, deadline=None)
    def test_sweep_columns(self, dense, seed, layout, dtype):
        # Rows without off-diagonals and levels without any (the first
        # level always, every level of a diagonal factor) are included;
        # float32 factors under float64 blocks take the generic path.
        low = CSRMatrix.from_dense(dense).astype(dtype)
        solver = ScheduledTriangularSolver(low, kind="lower")
        b = _block_layout(
            np.random.default_rng(seed).standard_normal((low.n_rows, 3)),
            layout)
        x = solver.solve(b)
        for j in range(3):
            np.testing.assert_array_equal(x[:, j],
                                          solver.solve(b[:, j].copy()))

    def test_sweep_columns_diagonal_factor(self, rng):
        low = CSRMatrix.from_dense(np.diag(rng.random(6) + 0.5))
        solver = ScheduledTriangularSolver(low, kind="lower")
        b = rng.standard_normal((6, 2))
        x = solver.solve(b)
        for j in range(2):
            np.testing.assert_array_equal(x[:, j], solver.solve(b[:, j]))

    @given(dense_matrix(spd=True), st.integers(0, 2 ** 31), LAYOUTS)
    @settings(max_examples=25, deadline=None)
    def test_mixed_precision_ilu0_apply_columns(self, dense, seed, layout):
        a = CSRMatrix.from_dense(dense)
        m = make_preconditioner(a, "ilu0", precision="mixed",
                                raise_on_zero_pivot=False, cache=False)
        r = _block_layout(
            np.random.default_rng(seed).standard_normal((a.n_rows, 3)),
            layout)
        z = m.apply(r)
        for j in range(3):
            np.testing.assert_array_equal(z[:, j], m.apply(r[:, j].copy()))


class TestSparsifyProperties:
    @given(dense_matrix(spd=True), st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_decomposition_and_symmetry(self, dense, ratio):
        a = CSRMatrix.from_dense(dense)
        res = sparsify_magnitude(a, ratio)
        np.testing.assert_allclose(add(res.a_hat, res.s).to_dense(),
                                   dense, atol=1e-12)
        assert is_symmetric(res.a_hat, tol=1e-12)
        assert is_symmetric(res.s, tol=1e-12)
        np.testing.assert_allclose(res.a_hat.diagonal(), a.diagonal())
        assert res.dropped_nnz <= int(ratio / 100 * a.nnz)

    @given(dense_matrix(spd=True))
    @settings(max_examples=20, deadline=None)
    def test_algorithm2_never_crashes_and_decomposes(self, dense):
        a = CSRMatrix.from_dense(dense)
        d = wavefront_aware_sparsify(a)
        np.testing.assert_allclose(
            add(d.result.a_hat, d.result.s).to_dense(), dense, atol=1e-12)
        assert d.chosen_ratio in (10.0, 5.0, 1.0)


class TestILUProperties:
    @given(dense_matrix(spd=True))
    @settings(max_examples=30, deadline=None)
    def test_ilu0_matches_a_on_pattern(self, dense):
        a = CSRMatrix.from_dense(dense)
        f = ilu0(a, raise_on_zero_pivot=False)
        prod = f.multiply()
        mask = dense != 0
        # Defining property of ILU(0): (LU)_ij = A_ij on the pattern.
        np.testing.assert_allclose(prod[mask], dense[mask], rtol=1e-6,
                                   atol=1e-8)


class TestStatProperties:
    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_gmean_bounds(self, xs):
        g = gmean(xs)
        assert min(xs) * (1 - 1e-9) <= g <= max(xs) * (1 + 1e-9)

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=40),
           st.floats(0.5, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_gmean_scale_equivariant(self, xs, c):
        assert gmean([c * x for x in xs]) == pytest.approx(c * gmean(xs),
                                                           rel=1e-9)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_rankdata_sums(self, xs):
        r = rankdata(np.array(xs))
        n = len(xs)
        assert r.sum() == pytest.approx(n * (n + 1) / 2)
