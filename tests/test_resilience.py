"""Tests for the resilience layer: fault injection, guards, fallback.

The acceptance scenarios mirror the breakdown modes sparsification can
cause in practice: for each injected fault the *plain* ``spcg`` pipeline
fails or stalls, while ``robust_spcg`` converges to the paper tolerance
and its report names the failure class and the recovering rung.
"""

import dataclasses

import numpy as np
import pytest

import repro.resilience.fallback as fallback_module
import repro.serve.scheduler as scheduler_module
from repro.chaos import ChaosConfig, ChaosPlan
from repro.core import spcg
from repro.core.spcg import _PRECONDITIONERS, make_preconditioner
from repro.errors import (AbortSolve, DeviceModelError,
                          NotPositiveDefiniteError, SingularFactorError)
from repro.machine import A100, iteration_value_traffic
from repro.machine.kernels import iteration_cost
from repro.machine.timeline import Timeline
from repro.resilience import (TRANSIENT_FAILURES, FailureClass,
                              FallbackPolicy, FaultPlan, FaultSpec,
                              GuardConfig, GuardTrip, ResidualGuard,
                              RobustSolveReport, classify_failure,
                              default_ladder, robust_spcg)
from repro.serve import (BreakerPolicy, RetryPolicy, ServeScheduler,
                         precond_ladder)
from repro.solvers import (SolveResult, StoppingCriterion,
                           TerminationReason, pcg)
from repro.sparse import CSRMatrix, stencil_poisson_2d


@pytest.fixture(scope="module")
def poisson20() -> CSRMatrix:
    return stencil_poisson_2d(20)


@pytest.fixture(scope="module")
def poisson24() -> CSRMatrix:
    return stencil_poisson_2d(24)


def _rhs(a: CSRMatrix) -> np.ndarray:
    return a.matvec(np.ones(a.n_rows))


def _tolerance_met(report: RobustSolveReport, b: np.ndarray) -> bool:
    crit = StoppingCriterion.paper_default()
    return report.result.final_residual <= crit.threshold(
        float(np.linalg.norm(b)))


# ---------------------------------------------------------------------------
# Acceptance scenarios: plain spcg fails, robust_spcg recovers.
# ---------------------------------------------------------------------------


class TestInjectedFaultScenarios:
    def test_zero_pivot_recovers_by_pivot_boost(self, poisson20):
        b = _rhs(poisson20)
        spec = FaultSpec("zero_pivot", rungs=("spcg",), rows=(0,))

        with pytest.raises(SingularFactorError):
            spcg(poisson20, b, raise_on_zero_pivot=True,
                 fault_plan=FaultPlan(spec))

        report = robust_spcg(poisson20, b, fault_plan=FaultPlan(spec))
        assert report.converged
        assert _tolerance_met(report, b)
        # Recovered on the SAME rung: the ladder retried with boosting.
        assert report.recovered_by == "spcg"
        assert report.failure_classes == ("zero_pivot",)
        assert not report.attempts[0].pivot_boosted
        assert report.attempts[1].pivot_boosted
        assert report.attempts[1].converged

    def test_transient_nan_apply_recovers_by_retry(self, poisson20):
        b = _rhs(poisson20)

        def make_plan():
            return FaultPlan(FaultSpec("nan_apply", rungs=("spcg",),
                                       at_apply=2, max_triggers=1))

        plain = spcg(poisson20, b, fault_plan=make_plan())
        assert not plain.converged
        assert plain.solve.reason is TerminationReason.NUMERICAL_BREAKDOWN

        report = robust_spcg(poisson20, b, fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        # The fault was transient (max_triggers=1): the same rung's
        # retry succeeds without descending the ladder.
        assert report.recovered_by == "spcg"
        assert report.failure_classes == ("nan_or_inf",)
        assert report.recovered

    def test_corrupted_sparsification_recovers_by_full(self, poisson20):
        b = _rhs(poisson20)

        def make_plan():
            return FaultPlan(FaultSpec("corrupt_values",
                                       rungs=("spcg", "spcg-safe"),
                                       fraction=0.2, scale=1e8))

        plain = spcg(poisson20, b, fault_plan=make_plan())
        assert not plain.converged

        report = robust_spcg(poisson20, b, fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        # Both sparsified rungs are corrupted; the unsparsified ILU rung
        # is the first healthy one.
        assert report.recovered_by == "full"
        assert report.failure_classes == ("stagnation", "stagnation")
        # The guard aborted the doomed attempts well under the cap.
        assert all(a.n_iters < 1000 for a in report.attempts)

    def test_frozen_apply_stagnation_recovers(self, poisson20):
        b = _rhs(poisson20)

        def make_plan():
            return FaultPlan(FaultSpec("freeze_apply", rungs=("spcg",),
                                       at_apply=3))

        plain = spcg(poisson20, b, fault_plan=make_plan())
        assert not plain.converged
        assert plain.solve.reason is TerminationReason.MAX_ITERATIONS

        report = robust_spcg(poisson20, b, fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        assert report.recovered_by == "spcg-safe"
        assert report.failure_classes == ("stagnation",)
        assert report.attempts[0].n_iters < 1000

    def test_offset_apply_stagnation_recovers(self, poisson24):
        # An apply fault cannot make PCG diverge on an SPD operator (α
        # stays an exact line search), so a stuck-at offset stalls the
        # residual instead.
        b = _rhs(poisson24)

        def make_plan():
            return FaultPlan(FaultSpec("offset_apply", rungs=("spcg",),
                                       scale=1e11))

        history = []
        plain = spcg(poisson24, b, fault_plan=make_plan(),
                     callback=lambda k, r: history.append(r))
        assert not plain.converged
        best = np.minimum.accumulate(history)
        assert max(np.asarray(history) / best) < 1e2

        report = robust_spcg(poisson24, b, fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        assert report.recovered_by == "spcg-safe"
        assert report.failure_classes == ("stagnation",)
        assert report.attempts[0].n_iters < 1000

    def test_operator_fault_divergence_recovers(self, poisson24):
        # Scaling one row of A breaks the operator's symmetry, and with
        # it the CG recurrence: the residual grows without bound.
        b = _rhs(poisson24)

        def make_plan():
            return FaultPlan(FaultSpec("scale_operator", rungs=("spcg",),
                                       rows=(0,), scale=1e3))

        plain = spcg(poisson24, b, fault_plan=make_plan())
        assert not plain.converged

        report = robust_spcg(poisson24, b, fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        assert report.recovered_by == "spcg-safe"
        assert report.failure_classes[0] == "divergence"
        # Divergence is caught within a few iterations, not at the cap.
        assert report.attempts[0].n_iters < 50

    def test_indefinite_ic0_recovers(self, poisson20):
        b = _rhs(poisson20)

        def make_plan():
            return FaultPlan(FaultSpec("flip_diagonal", rungs=("spcg",),
                                       rows=(0,)))

        with pytest.raises(NotPositiveDefiniteError):
            spcg(poisson20, b, preconditioner="ic0",
                 fault_plan=make_plan())

        report = robust_spcg(poisson20, b, preconditioner="ic0",
                             fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        assert report.recovered_by == "spcg-safe"
        # First attempt breaks down, the shift-escalated retry still
        # sees the flipped diagonal, then the next rung is healthy.
        assert report.failure_classes == ("indefinite", "indefinite")
        assert report.attempts[1].shifted


# ---------------------------------------------------------------------------
# Fault plan unit behaviour.
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meltdown")

    def test_out_of_scope_matrix_untouched(self, poisson20):
        plan = FaultPlan(FaultSpec("zero_pivot", rungs=("spcg",),
                                   rows=(0,)))
        assert plan.corrupt_matrix(poisson20, "full") is poisson20
        assert plan.total_fired() == 0

    def test_trigger_bookkeeping_and_reset(self, poisson20):
        spec = FaultSpec("zero_pivot", rows=(0,), max_triggers=1)
        plan = FaultPlan(spec)
        c1 = plan.corrupt_matrix(poisson20)
        assert c1 is not poisson20
        assert c1.data[0] == 0.0
        assert plan.fired(spec) == 1
        # Exhausted: the second call is a no-op.
        assert plan.corrupt_matrix(poisson20) is poisson20
        plan.reset()
        assert plan.fired(spec) == 0
        assert plan.corrupt_matrix(poisson20) is not poisson20

    def test_fault_row_out_of_range(self, poisson20):
        plan = FaultPlan(FaultSpec("zero_pivot", rows=(10**6,)))
        with pytest.raises(IndexError):
            plan.corrupt_matrix(poisson20)

    def test_corrupt_values_deterministic(self, poisson20):
        spec = FaultSpec("corrupt_values", fraction=0.1, scale=7.0,
                         seed=42)
        c1 = FaultPlan(spec).corrupt_matrix(poisson20)
        c2 = FaultPlan(spec).corrupt_matrix(poisson20)
        np.testing.assert_array_equal(c1.data, c2.data)
        assert not np.array_equal(c1.data, poisson20.data)

    def test_corrupt_operator_scales_rows_in_scope(self, poisson20):
        spec = FaultSpec("scale_operator", rungs=("spcg",), rows=(3,),
                         scale=5.0)
        plan = FaultPlan(spec)
        assert plan.corrupt_operator(poisson20, "full") is poisson20
        assert plan.corrupt_matrix(poisson20, "spcg") is poisson20
        bad = plan.corrupt_operator(poisson20, "spcg")
        assert plan.fired(spec) == 1
        x = np.arange(poisson20.n_rows, dtype=np.float64)
        want = poisson20.matvec(x)
        want[3] *= 5.0
        np.testing.assert_array_equal(bad.matvec(x), want)
        with pytest.raises(IndexError):
            FaultPlan(FaultSpec("scale_operator", rows=(10**6,))
                      ).corrupt_operator(poisson20)

    def test_wrap_preconditioner_passthrough(self, poisson20):
        from repro.precond import IdentityPreconditioner

        m = IdentityPreconditioner(poisson20.n_rows)
        plan = FaultPlan(FaultSpec("nan_apply", rungs=("spcg",)))
        assert plan.wrap_preconditioner(m, "full") is m
        wrapped = plan.wrap_preconditioner(m, "spcg")
        assert wrapped is not m
        assert wrapped.n == m.n

    @pytest.mark.parametrize("wrap", [
        lambda m: FaultPlan(FaultSpec("nan_apply")).wrap_preconditioner(m),
        lambda m: ChaosPlan(ChaosConfig()).wrap_preconditioner(m),
    ], ids=["fault_plan", "chaos_plan"])
    def test_wrapped_preconditioner_priced_like_inner(self, poisson20, wrap):
        """A fault proxy keeps the wrapped operator's cost metadata: a
        mixed-precision factor stays priced at float32 value bytes."""
        m = make_preconditioner(poisson20, "ilu0", precision="mixed",
                                cache=False)
        wrapped = wrap(m)
        assert wrapped is not m
        assert wrapped.value_dtype == m.value_dtype == np.float32
        assert iteration_value_traffic(A100, poisson20, wrapped) \
            == iteration_value_traffic(A100, poisson20, m)
        assert iteration_cost(A100, poisson20, wrapped).total \
            == iteration_cost(A100, poisson20, m).total


class TestTimelineFaults:
    def test_sync_failure_raises(self):
        plan = FaultPlan(FaultSpec("sync_failure"))
        tl = Timeline(fault_hook=plan.timeline_hook())
        with pytest.raises(DeviceModelError, match="sync failure"):
            tl.record("spmv", "solve", 1e-6)
        assert tl.events == []

    def test_event_match_filters(self):
        plan = FaultPlan(FaultSpec("sync_failure",
                                   event_match="trisolve"))
        tl = Timeline(fault_hook=plan.timeline_hook())
        tl.record("spmv", "solve", 1e-6)  # does not match
        assert len(tl.events) == 1
        with pytest.raises(DeviceModelError):
            tl.record("trisolve_fwd", "solve", 1e-6)

    def test_max_triggers_transient(self):
        plan = FaultPlan(FaultSpec("sync_failure", max_triggers=1))
        tl = Timeline(fault_hook=plan.timeline_hook())
        with pytest.raises(DeviceModelError):
            tl.record("spmv", "solve", 1e-6)
        tl.record("spmv", "solve", 1e-6)  # fault exhausted
        assert len(tl.events) == 1

    def test_no_timeline_specs_means_no_hook(self):
        plan = FaultPlan(FaultSpec("zero_pivot", rows=(0,)))
        assert plan.timeline_hook() is None


# ---------------------------------------------------------------------------
# Guards.
# ---------------------------------------------------------------------------


class TestResidualGuard:
    def test_nan_trips_immediately(self):
        guard = ResidualGuard(GuardConfig())
        guard(0, 1.0)
        with pytest.raises(GuardTrip) as ei:
            guard(1, float("nan"))
        assert ei.value.failure is FailureClass.NAN_OR_INF
        assert guard.tripped is ei.value

    def test_divergence_trips(self):
        guard = ResidualGuard(GuardConfig(divergence_factor=100.0,
                                          min_iterations=0))
        guard(0, 1.0)
        guard(1, 0.5)
        with pytest.raises(GuardTrip) as ei:
            guard(2, 51.0)
        assert ei.value.failure is FailureClass.DIVERGENCE

    def test_stagnation_trips(self):
        guard = ResidualGuard(GuardConfig(stagnation_window=5,
                                          min_iterations=0))
        with pytest.raises(GuardTrip) as ei:
            for k in range(100):
                guard(k, 1.0)
        assert ei.value.failure is FailureClass.STAGNATION

    def test_floor_suppresses_trips(self):
        cfg = GuardConfig(stagnation_window=5, min_iterations=0,
                          floor=2.0, divergence_factor=10.0)
        guard = ResidualGuard(cfg)
        for k in range(100):  # all at/below floor: never trips
            guard(k, 1.0)
        assert guard.tripped is None

    def test_min_iterations_grace(self):
        guard = ResidualGuard(GuardConfig(divergence_factor=2.0,
                                          min_iterations=10))
        guard(0, 1.0)
        guard(3, 100.0)  # would diverge, but inside the grace period
        with pytest.raises(GuardTrip):
            guard(10, 100.0)

    def test_chain_called_first(self):
        seen = []
        guard = ResidualGuard(GuardConfig(),
                              chain=lambda k, r: seen.append(k))
        guard(0, 1.0)
        with pytest.raises(GuardTrip):
            guard(1, float("inf"))
        assert seen == [0, 1]

    def test_reset(self):
        guard = ResidualGuard(GuardConfig())
        guard(0, 1.0)
        with pytest.raises(GuardTrip):
            guard(1, float("nan"))
        guard.reset()
        assert guard.history == []
        assert guard.tripped is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(divergence_factor=0.5)
        with pytest.raises(ValueError):
            GuardConfig(stagnation_window=1)
        with pytest.raises(ValueError):
            GuardConfig(stagnation_improvement=0.0)

    def test_guard_aborts_pcg(self, poisson20):
        b = _rhs(poisson20)
        guard = ResidualGuard(GuardConfig(stagnation_window=2,
                                          stagnation_improvement=0.999,
                                          min_iterations=0))
        res = pcg(poisson20, b, callback=guard)
        assert not res.converged
        assert res.reason is TerminationReason.GUARD_TRIPPED
        assert res.extra["abort"] is guard.tripped


class TestClassifyFailure:
    def test_exception_mapping(self):
        from repro.errors import FillLimitExceeded, ReproError

        assert classify_failure(SingularFactorError(0, 0.0)) \
            is FailureClass.ZERO_PIVOT
        assert classify_failure(NotPositiveDefiniteError("i")) \
            is FailureClass.INDEFINITE
        assert classify_failure(FillLimitExceeded("f")) \
            is FailureClass.FILL_EXPLOSION
        assert classify_failure(DeviceModelError("s")) \
            is FailureClass.SYNC_FAILURE
        assert classify_failure(FloatingPointError()) \
            is FailureClass.NAN_OR_INF
        assert classify_failure(ReproError("x")) is FailureClass.UNKNOWN
        assert classify_failure(GuardTrip(FailureClass.DIVERGENCE, 3,
                                          1.0)) \
            is FailureClass.DIVERGENCE

    def test_result_mapping(self):
        def res(reason, converged=False, extra=None):
            return SolveResult(x=np.zeros(1), converged=converged,
                               n_iters=1,
                               residual_norms=np.array([1.0]),
                               reason=reason, tolerance=1e-12,
                               extra=extra or {})

        assert classify_failure(res(TerminationReason.CONVERGED,
                                    converged=True)) is None
        assert classify_failure(res(TerminationReason.MAX_ITERATIONS)) \
            is FailureClass.NO_CONVERGENCE
        assert classify_failure(res(TerminationReason.INDEFINITE)) \
            is FailureClass.INDEFINITE
        assert classify_failure(
            res(TerminationReason.NUMERICAL_BREAKDOWN)) \
            is FailureClass.NAN_OR_INF
        assert classify_failure(res(TerminationReason.CORRUPTED)) \
            is FailureClass.SILENT_CORRUPTION
        assert classify_failure(res(TerminationReason.DEVICE_CRASH)) \
            is FailureClass.DEVICE_CRASH
        trip = GuardTrip(FailureClass.STAGNATION, 7, 1.0)
        assert classify_failure(res(TerminationReason.GUARD_TRIPPED,
                                    extra={"abort": trip})) \
            is FailureClass.STAGNATION

    def test_unclassifiable_raises(self):
        with pytest.raises(TypeError):
            classify_failure("not an outcome")


# ---------------------------------------------------------------------------
# Fallback ladder mechanics.
# ---------------------------------------------------------------------------


class TestFallbackLadder:
    def test_default_ladder_shape(self):
        names = [r.name for r in default_ladder("ilu0")]
        assert names == ["spcg", "spcg-safe", "full", "ic0", "fsai",
                         "jacobi", "cg"]

    def test_default_ladder_elides_duplicates(self):
        assert "ic0" not in [r.name for r in default_ladder("ic0")]
        assert "fsai" not in [r.name for r in default_ladder("fsai")]
        assert "jacobi" not in [r.name for r in default_ladder("jacobi")]

    def test_healthy_solve_single_attempt(self, poisson20):
        b = _rhs(poisson20)
        report = robust_spcg(poisson20, b)
        assert report.converged
        assert report.n_attempts == 1
        assert not report.recovered
        assert report.recovered_by == "spcg"
        assert report.failure_classes == ()
        assert report.decision is not None
        np.testing.assert_allclose(report.x, np.ones(poisson20.n_rows),
                                   atol=1e-6)

    def test_iteration_budget_caps_attempts(self, poisson20):
        b = _rhs(poisson20)
        policy = FallbackPolicy(max_iters_per_attempt=2)
        report = robust_spcg(poisson20, b, policy=policy)
        assert not report.converged
        assert report.recovered_by is None
        assert all(a.n_iters <= 2 for a in report.attempts)
        assert all(a.failure is FailureClass.NO_CONVERGENCE
                   for a in report.attempts)
        # Best-effort result is still returned.
        assert report.result is not None
        assert np.isfinite(report.result.final_residual)

    def test_seconds_budget_caps_iterations(self, poisson20):
        b = _rhs(poisson20)
        # A vanishingly small modeled budget forces the 1-iteration floor.
        policy = FallbackPolicy(seconds_budget_per_attempt=1e-30)
        report = robust_spcg(poisson20, b, policy=policy)
        assert all(a.n_iters <= 1 for a in report.attempts)
        assert all(np.isfinite(a.modeled_seconds)
                   for a in report.attempts if a.n_iters > 0)

    def test_summary_names_attempts(self, poisson20):
        b = _rhs(poisson20)
        plan = FaultPlan(FaultSpec("zero_pivot", rungs=("spcg",),
                                   rows=(0,)))
        report = robust_spcg(poisson20, b, fault_plan=plan)
        text = report.summary()
        assert "zero_pivot" in text
        assert "[boosted]" in text
        assert "recovered by 'spcg'" in text

    def test_user_callback_chained(self, poisson20):
        b = _rhs(poisson20)
        seen = []
        report = robust_spcg(poisson20, b,
                             callback=lambda k, r: seen.append(k))
        assert report.converged
        assert seen[0] == 0
        assert len(seen) >= 2


# ---------------------------------------------------------------------------
# One failure policy: robust_spcg and the serving breaker agree.
# ---------------------------------------------------------------------------

#: The degradation order both ladders descend.
_DEGRADATION = ("ic0", "fsai", "jacobi")

#: Reasons whose serving retry is pinned, whatever the taxonomy says.
_SCHEDULER_RETRIES = {
    TerminationReason.NUMERICAL_BREAKDOWN: True,
    TerminationReason.CORRUPTED: True,
    TerminationReason.DEVICE_CRASH: True,
    TerminationReason.INDEFINITE: False,
    TerminationReason.MAX_ITERATIONS: False,
}

_FAILED_REASONS = [r for r in TerminationReason
                   if r is not TerminationReason.CONVERGED]


def _fail_first(solver, mark):
    """Wrap *solver* so its first result is rewritten by *mark*."""
    calls = []

    def run(*args, **kwargs):
        res = solver(*args, **kwargs)
        if not calls:
            res = mark(res)
        calls.append(res)
        return res

    return run


class TestOneFailurePolicy:
    @pytest.mark.parametrize("kind", _PRECONDITIONERS)
    def test_ladders_agree_and_never_upgrade(self, kind):
        fallback = tuple(r.precond for r in default_ladder(kind)
                         if r.method == "pcg")
        breaker = precond_ladder(kind)
        assert fallback == breaker
        for ladder in (fallback, breaker):
            ranks = [_DEGRADATION.index(k) if k in _DEGRADATION else -1
                     for k in ladder]
            assert ranks == sorted(set(ranks)), ladder

    @pytest.mark.parametrize("reason", _FAILED_REASONS,
                             ids=[r.value for r in _FAILED_REASONS])
    def test_transient_reasons_retried_by_both_paths(self, reason,
                                                     monkeypatch):
        failed = SolveResult(x=np.zeros(1), converged=False, n_iters=1,
                             residual_norms=np.array([1.0]),
                             reason=reason, tolerance=1e-12)
        transient = classify_failure(failed) in TRANSIENT_FAILURES
        assert transient is _SCHEDULER_RETRIES.get(reason, transient)

        # robust_spcg: a transient first attempt reruns the same rung.
        def fail_solve(res):
            return dataclasses.replace(res, converged=False, reason=reason)

        monkeypatch.setattr(fallback_module, "pcg",
                            _fail_first(fallback_module.pcg, fail_solve))
        a = stencil_poisson_2d(8)
        report = robust_spcg(a, _rhs(a))
        assert report.converged
        assert report.attempts[0].rung == "spcg"
        assert (report.attempts[1].rung == "spcg") is transient

        # Scheduler: a transient failure is retried and counted by the
        # breaker (threshold 1 opens it, so the retry runs one rung down).
        def fail_column(block):
            block.converged[0] = False
            block.reasons[0] = reason
            return block

        monkeypatch.setattr(
            scheduler_module, "pcg_block",
            _fail_first(scheduler_module.pcg_block, fail_column))
        sched = ServeScheduler(preconditioner="ilu0",
                               retry=RetryPolicy(max_retries=1),
                               breaker=BreakerPolicy(threshold=1))
        sched.submit(a, _rhs(a))
        report = sched.run()
        (out,) = report.outcomes
        assert out.extra["attempts"] == int(transient)
        assert [d.kind for d in report.dispatches] \
            == (["ilu0", "ic0"] if transient else ["ilu0"])


# ---------------------------------------------------------------------------
# Harness integration.
# ---------------------------------------------------------------------------


class TestHarnessIntegration:
    def test_run_experiment_attaches_report(self, poisson20):
        from repro.harness import run_experiment

        plan = FaultPlan(FaultSpec("zero_pivot", rungs=("spcg",),
                                   rows=(0,)))
        res = run_experiment(poisson20, run_fixed_ratios=False,
                             robust=True, fault_plan=plan)
        assert res.robust is not None
        assert res.robust.converged
        assert res.robust.failure_classes == ("zero_pivot",)
        plain = run_experiment(poisson20, run_fixed_ratios=False)
        assert plain.robust is None

    def test_failed_metrics_carry_failure_class(self, poisson20):
        from repro.harness.experiment import _metrics_for

        plan = FaultPlan(FaultSpec("zero_pivot", rows=(0,)))
        bad = plan.corrupt_matrix(poisson20)
        # ILU(0) with raise-on-zero-pivot off still factors; IC(0) on an
        # indefinite matrix is the reliable failed-build path.
        flip = FaultPlan(FaultSpec("flip_diagonal", rows=(0,)))
        bad = flip.corrupt_matrix(bad)
        m = _metrics_for(poisson20, bad, _rhs(poisson20),
                         __import__("repro.machine",
                                    fromlist=["A100"]).A100,
                         "ic0", 1, "spcg", 10.0, 0.0,
                         StoppingCriterion.paper_default())
        assert m.failed
        assert m.failure_class == "indefinite"
        assert np.isnan(m.per_iteration_seconds)
        assert np.isnan(m.factor_seconds)

    def test_suite_robust_mode(self):
        from repro.datasets import SUITE
        from repro.harness import run_suite

        names = [s.name for s in SUITE][:2]

        def plans(_name):
            return FaultPlan(FaultSpec("zero_pivot", rungs=("spcg",),
                                       rows=(0,)))

        res = run_suite(names, robust=True, fault_plan_factory=plans,
                        run_fixed_ratios=False)
        summary = res.resilience_summary()
        assert summary is not None
        assert summary.n_robust == 2
        assert summary.n_converged == 2
        assert summary.n_recovered == 2
        assert summary.recovery_rate == 1.0
        assert res.failure_taxonomy() == {"zero_pivot": 2}
        assert "zero_pivot" in summary.summary()

        # Robust mode must not perturb the baseline aggregates.
        base = run_suite(names, run_fixed_ratios=False)
        assert base.resilience_summary() is None
        a1 = dataclasses.asdict(res.aggregates())
        a2 = dataclasses.asdict(base.aggregates())
        for key, v1 in a1.items():
            v2 = a2[key]
            if isinstance(v1, float) and np.isnan(v1):
                assert np.isnan(v2)
            else:
                assert v1 == v2

    def test_suite_robust_without_faults_reports_na(self):
        # Zero faulted matrices make the recovery rate *undefined*; the
        # old 0/0 → 0.0 read as "nothing ever recovered".
        from repro.datasets import SUITE
        from repro.harness import run_suite

        names = [s.name for s in SUITE][:2]
        res = run_suite(names, robust=True, run_fixed_ratios=False)
        summary = res.resilience_summary()
        assert summary is not None
        assert summary.n_recovered == 0
        assert summary.failure_taxonomy == ()
        assert np.isnan(summary.recovery_rate)
        assert "n/a (no faults)" in summary.summary()
        assert "recovery rate 0%" not in summary.summary()


# ---------------------------------------------------------------------------
# Solver-level plumbing the resilience layer relies on.
# ---------------------------------------------------------------------------


class TestSolverPlumbing:
    def test_spcg_forwards_callback(self, poisson20):
        b = _rhs(poisson20)
        seen = []
        res = spcg(poisson20, b,
                   callback=lambda k, r: seen.append((k, r)))
        assert res.converged
        assert len(seen) == res.solve.n_iters + 1

    def test_abort_solve_from_spcg_callback(self, poisson20):
        b = _rhs(poisson20)

        def bail(k, _r):
            if k >= 3:
                raise AbortSolve("enough")

        res = spcg(poisson20, b, callback=bail)
        assert not res.converged
        assert res.solve.reason is TerminationReason.GUARD_TRIPPED
        assert isinstance(res.solve.extra["abort"], AbortSolve)
        assert res.solve.n_iters == 3
