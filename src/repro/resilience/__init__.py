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
  claim below is testable;
* :mod:`~repro.resilience.guards` — residual-stream health monitors
  (divergence, stagnation, NaN) that abort a doomed solve early via the
  solver's callback hook, plus the breakdown classifier mapping any
  outcome onto the :class:`FailureClass` taxonomy;
* :mod:`~repro.resilience.fallback` — :func:`robust_spcg`, a fallback
  ladder (chosen ratio → safe ratio → unsparsified ILU → IC(0) →
  Jacobi → CG) with per-attempt iteration/modeled-seconds budgets,
  pivot-boost and diagonal-shift escalation, and a structured
  :class:`RobustSolveReport`.
"""

from .faults import (APPLY_FAULTS, MATRIX_FAULTS, OPERATOR_FAULTS,
                     TIMELINE_FAULTS, FaultPlan, FaultSpec,
                     FaultyPreconditioner)
from .guards import (FailureClass, GuardConfig, GuardTrip, ResidualGuard,
                     classify_failure)
from .fallback import (AttemptRecord, FallbackPolicy, FallbackRung,
                       RobustSolveReport, default_ladder, robust_spcg)

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultyPreconditioner",
    "MATRIX_FAULTS",
    "APPLY_FAULTS",
    "OPERATOR_FAULTS",
    "TIMELINE_FAULTS",
    "FailureClass",
    "GuardTrip",
    "GuardConfig",
    "ResidualGuard",
    "classify_failure",
    "FallbackRung",
    "FallbackPolicy",
    "AttemptRecord",
    "RobustSolveReport",
    "default_ladder",
    "robust_spcg",
]
