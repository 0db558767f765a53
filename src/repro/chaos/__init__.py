"""Device fault injection and the chaos acceptance harness.

The serving stack claims to *self-heal*: detect silent corruption
(ABFT checksums, periodic true-residual checks), restart crashed or
corrupted solves from verified checkpoints, walk the preconditioner
ladder when one matrix keeps failing transiently, and brown out accuracy
under overload instead of shedding requests.  This package supplies the
adversary those claims are tested against:

* :class:`ChaosPlan` / :class:`ChaosConfig` — a seeded schedule of
  modeled device faults (transient kernel garbage, stalls, crashes,
  silent bit flips in SpMV / trisolve outputs) injected at iteration
  boundaries through the resilience layer's operator proxies.
* :func:`run_chaos_study` — the goodput-vs-fault-rate sweep comparing
  the self-healing scheduler against a fail-fast baseline, with
  *audited* goodput (returned iterates are re-verified against the true
  residual, so silently wrong answers never count).

Everything is deterministic at fixed seeds, which is what lets CI
assert a hard goodput floor under 5% per-sweep fault rate.
"""

from .harness import ChaosStudyResult, ChaosStudyRow, run_chaos_study
from .plan import ChaosConfig, ChaosEvent, ChaosPlan, FaultKind

__all__ = [
    "FaultKind",
    "ChaosConfig",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosStudyRow",
    "ChaosStudyResult",
    "run_chaos_study",
]
