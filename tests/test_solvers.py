"""Tests for CG / PCG (Algorithm 1) and the stopping machinery."""

import numpy as np
import pytest

from repro.errors import AbortSolve, InvalidCriterionError, \
    InvalidRequestError, ReproError, ShapeError
from repro.precond import ILU0Preconditioner, IdentityPreconditioner
from repro.solvers import (SolveResult, StoppingCriterion,
                           TerminationReason, cg, pcg)
from repro.sparse import CSRMatrix, random_spd

spla = pytest.importorskip("scipy.sparse.linalg")
sp = pytest.importorskip("scipy.sparse")


class TestStoppingCriterion:
    def test_paper_default(self):
        c = StoppingCriterion.paper_default()
        assert c.atol == 1e-12
        assert c.max_iters == 1000
        assert c.rtol == 0.0

    def test_threshold(self):
        c = StoppingCriterion(rtol=1e-6, atol=1e-10)
        assert c.threshold(1000.0) == pytest.approx(1e-3)
        assert c.threshold(0.0) == pytest.approx(1e-10)

    def test_is_met(self):
        c = StoppingCriterion(rtol=0.0, atol=1e-8)
        assert c.is_met(1e-9, 1.0)
        assert not c.is_met(1e-7, 1.0)
        assert not c.is_met(float("nan"), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StoppingCriterion(rtol=0.0, atol=0.0)
        with pytest.raises(ValueError):
            StoppingCriterion(rtol=-1.0)
        with pytest.raises(ValueError):
            StoppingCriterion(max_iters=0)

    def test_invalid_criterion_error_type(self):
        # The dedicated subclass is both a ReproError and a ValueError,
        # so library-wide handlers and stdlib-style callers both catch it.
        with pytest.raises(InvalidCriterionError):
            StoppingCriterion(rtol=0.0, atol=0.0)
        assert issubclass(InvalidCriterionError, ReproError)
        assert issubclass(InvalidCriterionError, ValueError)

    def test_nonfinite_tolerances_rejected(self):
        with pytest.raises(InvalidCriterionError):
            StoppingCriterion(rtol=float("nan"))
        with pytest.raises(InvalidCriterionError):
            StoppingCriterion(atol=float("inf"))
        with pytest.raises(InvalidCriterionError):
            StoppingCriterion(atol=-1e-12)

    def test_max_iters_type_checked(self):
        with pytest.raises(InvalidCriterionError):
            StoppingCriterion(max_iters=2.5)
        with pytest.raises(InvalidCriterionError):
            StoppingCriterion(max_iters=True)
        # np.integer values (e.g. computed budgets) are acceptable.
        c = StoppingCriterion(max_iters=np.int64(7))
        assert c.max_iters == 7


class TestCG:
    def test_solves_poisson(self, poisson16):
        x_true = np.arange(poisson16.n_rows, dtype=np.float64) / 100
        b = poisson16.matvec(x_true)
        res = cg(poisson16, b,
                 criterion=StoppingCriterion(rtol=1e-12, atol=0.0,
                                             max_iters=2000))
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-7)

    def test_matches_scipy_iterate_count_ballpark(self, poisson16):
        b = poisson16.matvec(np.ones(poisson16.n_rows))
        ours = cg(poisson16, b,
                  criterion=StoppingCriterion(rtol=1e-8, atol=0.0))
        count = [0]
        sp_a = sp.csr_matrix(poisson16.to_dense())
        spla.cg(sp_a, b, rtol=1e-8, atol=0.0,
                callback=lambda xk: count.__setitem__(0, count[0] + 1))
        assert abs(ours.n_iters - count[0]) <= max(3, 0.2 * count[0])

    def test_exact_arithmetic_termination(self):
        # CG converges in at most n iterations (exact arithmetic); allow
        # slack for rounding.
        a = random_spd(25, density=0.3, seed=4)
        b = a.matvec(np.ones(25))
        res = cg(a, b, criterion=StoppingCriterion(rtol=1e-10, atol=0.0,
                                                   max_iters=200))
        assert res.converged
        assert res.n_iters <= 60

    def test_zero_rhs_immediate(self, poisson16):
        res = cg(poisson16, np.zeros(poisson16.n_rows))
        assert res.converged
        assert res.n_iters == 0

    def test_initial_guess_exact(self, poisson16):
        x_true = np.ones(poisson16.n_rows)
        b = poisson16.matvec(x_true)
        res = cg(poisson16, b, x0=x_true)
        assert res.converged
        assert res.n_iters == 0

    def test_max_iterations_reached(self, poisson16):
        b = poisson16.matvec(np.ones(poisson16.n_rows))
        res = cg(poisson16, b,
                 criterion=StoppingCriterion(atol=1e-300, max_iters=3))
        assert not res.converged
        assert res.reason is TerminationReason.MAX_ITERATIONS
        assert res.n_iters == 3

    def test_indefinite_detected(self):
        dense = np.diag([1.0, -1.0, 2.0])
        a = CSRMatrix.from_dense(dense)
        res = cg(a, np.array([1.0, 1.0, 1.0]))
        assert not res.converged
        assert res.reason is TerminationReason.INDEFINITE

    def test_residual_history_monotone_overall(self, poisson16):
        b = poisson16.matvec(np.ones(poisson16.n_rows))
        res = cg(poisson16, b)
        assert res.residual_norms[0] > res.residual_norms[-1]
        assert len(res.residual_norms) == res.n_iters + 1

    def test_callback_invoked(self, poisson16):
        b = poisson16.matvec(np.ones(poisson16.n_rows))
        seen = []
        cg(poisson16, b, callback=lambda k, r: seen.append((k, r)))
        assert seen[0][0] == 0
        assert len(seen) >= 2

    def test_shape_validation(self, poisson16):
        with pytest.raises(ShapeError):
            cg(poisson16, np.ones(7))
        with pytest.raises(ShapeError):
            cg(poisson16, np.ones(poisson16.n_rows), x0=np.ones(3))


class TestPCG:
    def test_identity_preconditioner_equals_cg(self, poisson16):
        b = poisson16.matvec(np.ones(poisson16.n_rows))
        plain = cg(poisson16, b)
        ident = pcg(poisson16, b, IdentityPreconditioner(poisson16.n_rows))
        assert plain.n_iters == ident.n_iters
        np.testing.assert_allclose(plain.x, ident.x, atol=1e-10)

    def test_ilu0_reduces_iterations(self, poisson16):
        b = poisson16.matvec(np.ones(poisson16.n_rows))
        plain = cg(poisson16, b)
        prec = pcg(poisson16, b, ILU0Preconditioner(poisson16))
        assert prec.converged
        assert prec.n_iters < plain.n_iters

    def test_solution_correct_with_ilu0(self, poisson16, rng):
        x_true = rng.standard_normal(poisson16.n_rows)
        b = poisson16.matvec(x_true)
        res = pcg(poisson16, b, ILU0Preconditioner(poisson16),
                  criterion=StoppingCriterion(rtol=1e-12, atol=0.0))
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_preconditioner_size_mismatch(self, poisson16):
        with pytest.raises(ShapeError):
            pcg(poisson16, np.ones(poisson16.n_rows),
                IdentityPreconditioner(poisson16.n_rows + 1))

    def test_rectangular_rejected(self, rng):
        from conftest import random_csr

        a = random_csr(rng, 4, 6)
        with pytest.raises(ShapeError):
            pcg(a, np.ones(6))

    def test_float32_system(self, poisson16):
        a32 = poisson16.astype(np.float32)
        b = a32.matvec(np.ones(a32.n_rows, dtype=np.float32))
        res = pcg(a32, b, ILU0Preconditioner(a32),
                  criterion=StoppingCriterion(rtol=1e-5, atol=0.0))
        assert res.converged
        assert res.x.dtype == np.float32


class TestPCGBreakdownPaths:
    """The non-converged exits of Algorithm 1, exercised directly."""

    def test_nan_in_curvature_breaks_down(self, poisson16):
        # A NaN matrix entry first surfaces in w = A·p, so the p·w
        # curvature check is the line that must catch it.
        data = poisson16.data.copy()
        data[1] = float("nan")
        a = CSRMatrix(poisson16.indptr, poisson16.indices, data,
                      poisson16.shape, check=False)
        res = pcg(a, np.ones(a.n_rows))
        assert not res.converged
        assert res.reason is TerminationReason.NUMERICAL_BREAKDOWN
        assert res.n_iters == 0

    def test_nan_preconditioner_breaks_down_at_start(self, poisson16):
        class NaNPreconditioner(IdentityPreconditioner):
            def apply(self, r, out=None):
                return np.full_like(r, np.nan)

        b = poisson16.matvec(np.ones(poisson16.n_rows))
        res = pcg(poisson16, b, NaNPreconditioner(poisson16.n_rows))
        assert not res.converged
        assert res.reason is TerminationReason.NUMERICAL_BREAKDOWN
        assert res.n_iters == 0

    def test_nan_preconditioner_mid_iteration(self, poisson16):
        class FlakyPreconditioner(IdentityPreconditioner):
            applies = 0

            def apply(self, r, out=None):
                FlakyPreconditioner.applies += 1
                if FlakyPreconditioner.applies == 4:
                    return np.full_like(r, np.nan)
                return super().apply(r, out=out)

        b = poisson16.matvec(np.ones(poisson16.n_rows))
        res = pcg(poisson16, b, FlakyPreconditioner(poisson16.n_rows))
        assert not res.converged
        assert res.reason is TerminationReason.NUMERICAL_BREAKDOWN
        assert res.n_iters == 3

    def test_indefinite_with_preconditioner(self):
        a = CSRMatrix.from_dense(np.diag([1.0, -1.0, 2.0]))
        res = pcg(a, np.ones(3), IdentityPreconditioner(3))
        assert not res.converged
        assert res.reason is TerminationReason.INDEFINITE

    def test_zero_rhs_immediate_with_ilu0(self, poisson16):
        res = pcg(poisson16, np.zeros(poisson16.n_rows),
                  ILU0Preconditioner(poisson16))
        assert res.converged
        assert res.n_iters == 0
        assert res.reason is TerminationReason.CONVERGED

    def test_exact_x0_early_return_with_ilu0(self, poisson16):
        x_true = np.ones(poisson16.n_rows)
        b = poisson16.matvec(x_true)
        res = pcg(poisson16, b, ILU0Preconditioner(poisson16), x0=x_true)
        assert res.converged
        assert res.n_iters == 0

    def test_callback_abort_at_start(self, poisson16):
        def bail(k, _r):
            raise AbortSolve("immediately")

        b = poisson16.matvec(np.ones(poisson16.n_rows))
        res = pcg(poisson16, b, callback=bail)
        assert not res.converged
        assert res.reason is TerminationReason.GUARD_TRIPPED
        assert res.n_iters == 0
        assert isinstance(res.extra["abort"], AbortSolve)

    def test_callback_abort_mid_loop_keeps_iterate(self, poisson16):
        def bail(k, _r):
            if k >= 5:
                raise AbortSolve("enough")

        b = poisson16.matvec(np.ones(poisson16.n_rows))
        res = pcg(poisson16, b, callback=bail)
        assert res.reason is TerminationReason.GUARD_TRIPPED
        assert res.n_iters == 5
        # Best-effort iterate, not the zero initial guess.
        assert float(np.linalg.norm(res.x)) > 0
        assert len(res.residual_norms) == 6


class TestSolveResult:
    def test_properties(self):
        r = SolveResult(x=np.zeros(2), converged=True, n_iters=3,
                        residual_norms=np.array([1.0, 0.1, 0.01, 0.001]),
                        reason=TerminationReason.CONVERGED,
                        tolerance=1e-2)
        assert r.final_residual == pytest.approx(0.001)
        assert r.reduction == pytest.approx(0.001)

    def test_empty_history(self):
        r = SolveResult(x=np.zeros(1), converged=False, n_iters=0,
                        residual_norms=np.array([]),
                        reason=TerminationReason.MAX_ITERATIONS,
                        tolerance=1e-2)
        assert np.isnan(r.final_residual)
        assert np.isnan(r.reduction)


class _CountingCSR(CSRMatrix):
    """A CSR matrix that counts its SpMVs (``matvec`` and ``matmat``)."""

    spmvs = 0

    def matvec(self, x, out=None):
        self.spmvs += 1
        return super().matvec(x, out=out)

    def matmat(self, x, out=None):
        self.spmvs += 1
        return super().matmat(x, out=out)


def _counting(a: CSRMatrix) -> _CountingCSR:
    return _CountingCSR(a.indptr, a.indices, a.data, a.shape)


def _entry_points():
    from repro.batch import pcg_block
    from repro.solvers import pipelined_cg, s_step_cg
    from repro.streams import recycling_pcg

    return {
        "pcg": pcg,
        "recycling_pcg": recycling_pcg,
        "pipelined_cg": pipelined_cg,
        "s_step_cg-s2": lambda *a, **k: s_step_cg(*a, s=2, **k),
        "s_step_cg-s4": lambda *a, **k: s_step_cg(*a, s=4, **k),
        "pcg_block": pcg_block,
    }


class TestSharedInputValidation:
    """Every CG entry point shares one input validator: a bad input
    raises the same exception type everywhere, before any SpMV."""

    N = 36

    def _case(self, case, entry, width):
        n = self.N
        a = random_spd(n, density=0.2, seed=4)
        b = np.ones(n) if width is None else np.ones((n, width))
        kwargs = {}
        precond = None
        if case == "non_square":
            dense = a.to_dense()
            a = CSRMatrix.from_dense(np.hstack([dense, dense[:, :1]]))
        elif case == "b_shape":
            b = np.ones(n + 1) if width is None else np.ones((n + 1, width))
        elif case == "x0_shape":
            kwargs["x0"] = np.ones(b.shape[:-1] + (b.shape[-1] - 1,))
        elif case in ("x0_nan", "x0_inf"):
            x0 = np.ones(b.shape)
            x0.flat[-1] = np.nan if case == "x0_nan" else np.inf
            kwargs["x0"] = x0
        elif case == "precond_order":
            precond = IdentityPreconditioner(n + 1)
        if entry == "pcg_block" and width is None and "x0" in kwargs:
            # pcg_block promotes a 1-D b to one column; x0 follows it.
            kwargs["x0"] = kwargs["x0"][:, None]
        return _counting(a), b, precond, kwargs

    ERRORS = {"non_square": ShapeError, "b_shape": ShapeError,
              "x0_shape": ShapeError, "x0_nan": InvalidRequestError,
              "x0_inf": InvalidRequestError, "precond_order": ShapeError}

    @pytest.mark.parametrize("case", sorted(ERRORS))
    @pytest.mark.parametrize("entry", sorted(_entry_points()))
    def test_rejected_before_any_spmv(self, entry, case):
        a, b, precond, kwargs = self._case(case, entry, None)
        with pytest.raises(self.ERRORS[case]):
            _entry_points()[entry](a, b, precond, **kwargs)
        assert a.spmvs == 0

    @pytest.mark.parametrize("case", ["x0_nan", "x0_inf", "x0_shape"])
    @pytest.mark.parametrize("entry", ["pipelined_cg", "s_step_cg-s2",
                                       "s_step_cg-s4", "pcg_block"])
    def test_block_rhs_rejected_before_any_spmv(self, entry, case):
        """An ``(n, B)`` block is checked whole: a bad last column
        stops the solve before the first column runs."""
        a, b, precond, kwargs = self._case(case, entry, 3)
        with pytest.raises(self.ERRORS[case]):
            _entry_points()[entry](a, b, precond, **kwargs)
        assert a.spmvs == 0
