"""Resilience layer: fault injection, breakdown guards, robust solves.

SPCG perturbs the preconditioner on purpose, so breakdown is a design
consequence, not an edge case: sparsification can zero a pivot, degrade
a factor into uselessness, or strip definiteness from ``Â``.  The paper
handles this by dropping non-converging configurations from its
statistics; a production solver must instead degrade gracefully and say
what happened.  This subpackage provides the three pieces:

* :mod:`~repro.resilience.faults` — a deterministic fault-injection
  layer (:class:`FaultPlan`) able to zero pivots, corrupt sparsified
  values, inject NaN/Inf into preconditioner applies, corrupt the
  system operator and fail modeled device syncs, so every robustness
  claim below is testable; its :class:`FaultyPreconditioner` /
  :class:`FaultyMatrix` proxies are the apply / SpMV injection seam
  the serving chaos plan uses too;
* :mod:`~repro.resilience.guards` — residual-stream health monitors
  (divergence, stagnation, NaN) that abort a doomed solve early via the
  solver's callback hook, plus the breakdown classifier mapping any
  outcome onto the :class:`FailureClass` taxonomy and the
  :data:`TRANSIENT_FAILURES` worth a retry;
* :mod:`~repro.resilience.fallback` — :func:`robust_spcg`, a fallback
  ladder (chosen ratio → safe ratio → unsparsified preconditioner →
  IC(0) → FSAI → Jacobi → CG) with per-attempt iteration/modeled-
  seconds budgets, pivot-boost and diagonal-shift escalation, and a
  structured :class:`RobustSolveReport`.  Its preconditioner rungs are
  :func:`precond_ladder`, which the serving circuit breaker walks too.
"""

from .faults import (APPLY_FAULTS, MATRIX_FAULTS, OPERATOR_FAULTS,
                     TIMELINE_FAULTS, FaultPlan, FaultSpec, FaultyMatrix,
                     FaultyPreconditioner)
from .guards import (TRANSIENT_FAILURES, FailureClass, GuardConfig,
                     GuardTrip, ResidualGuard, classify_failure)
from .fallback import (AttemptRecord, FallbackPolicy, FallbackRung,
                       RobustSolveReport, default_ladder, precond_ladder,
                       robust_spcg)

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultyPreconditioner",
    "FaultyMatrix",
    "MATRIX_FAULTS",
    "APPLY_FAULTS",
    "OPERATOR_FAULTS",
    "TIMELINE_FAULTS",
    "FailureClass",
    "TRANSIENT_FAILURES",
    "GuardTrip",
    "GuardConfig",
    "ResidualGuard",
    "classify_failure",
    "FallbackRung",
    "FallbackPolicy",
    "AttemptRecord",
    "RobustSolveReport",
    "precond_ladder",
    "default_ladder",
    "robust_spcg",
]
