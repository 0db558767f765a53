"""Triangular-solve engine selection and the two-sweep preconditioner.

Two SpTRSV executors occupy different points in the sync/parallelism
design space:

* :class:`~repro.precond.triangular.ScheduledTriangularSolver` — maximal
  row parallelism, one device barrier per wavefront;
* :class:`~repro.precond.triangular.PartitionedTriangularSolver` —
  ``P`` fenced sub-triangles with block-local syncs plus a Jacobi
  correction loop, two device barriers per sweep.  It executes as one
  level-scheduled sweep over the factor's block diagonal per correction
  round, so all partitions' level-*k* rows run as one kernel.

Which wins is a property of the *factor*: deep narrow wavefront chains
(band-limited factors, the regime sparsification helps least) favour
partitioning, shallow wide ones favour level scheduling.  The planner
here prices both on the modeled device — the same cost model the rest
of the pipeline reports — and ``engine="auto"`` picks the cheaper one
per factor.  Plans are pattern-only, so they are memoized in
:mod:`repro.perf` by structure fingerprint like the other inspector
artifacts (:func:`repro.perf.cache.cached_trisolve_plan`).

:class:`TwoSweepPreconditioner` is the one place a triangular-factor
preconditioner turns into two sweeps: every such class builds both
executors through :func:`make_triangular_solver` and inherits its
apply and cost metadata from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix
from ..graph.levels import LevelSchedule, level_profile, level_schedule
from ..graph.partition import RowPartition, partition_profiles, partition_rows
from .base import Preconditioner
from .triangular import (
    PartitionedTriangularSolver,
    ScheduledTriangularSolver,
    _PIVOT_RTOL,
)

__all__ = ["ENGINES", "PART_CANDIDATES", "TrisolvePlan", "plan_trisolve",
           "make_triangular_solver", "TwoSweepPreconditioner"]

#: Accepted values of the ``engine`` knob everywhere it appears
#: (preconditioner constructors, ``spcg``, the CLI).
ENGINES = ("auto", "levels", "partitioned")

#: Partition counts the auto planner prices (clamped to the matrix
#: order).  Powers of two spanning one to a few thread blocks per SM's
#: worth of sub-triangles — finer grids only add correction sweeps.
PART_CANDIDATES = (2, 4, 8, 16)


@dataclass(frozen=True)
class TrisolvePlan:
    """Outcome of pricing both engines for one triangular factor.

    Attributes
    ----------
    engine:
        The chosen executor, ``"levels"`` or ``"partitioned"`` (never
        ``"auto"`` — the plan *is* the resolution of auto).
    n_parts:
        Partition count of the winning (or best) partitioned candidate;
        meaningful even when levels wins, so callers forcing
        ``engine="partitioned"`` reuse the tuned ``P``.
    levels_seconds, partitioned_seconds:
        Modeled seconds of one solve under each engine on *device*.
    device:
        Name of the device the plan was priced on.
    """

    engine: str
    n_parts: int
    levels_seconds: float
    partitioned_seconds: float
    device: str

    @property
    def speedup(self) -> float:
        """Modeled levels/partitioned ratio (> 1 ⇒ partitioning wins)."""
        if self.partitioned_seconds <= 0.0:
            return 1.0
        return self.levels_seconds / self.partitioned_seconds


def plan_trisolve(tri: CSRMatrix, *, kind: str = "lower",
                  engine: str = "auto", n_parts: int | None = None,
                  device=None,
                  schedule: LevelSchedule | None = None) -> TrisolvePlan:
    """Price both SpTRSV engines for *tri* and resolve the choice.

    ``engine="levels"``/``"partitioned"`` force the outcome but still
    record both modeled costs (the CI smoke job asserts on the gap);
    ``"auto"`` picks the cheaper.  ``n_parts=None`` sweeps
    :data:`PART_CANDIDATES` and keeps the best partitioned candidate.
    The plan depends only on the sparsity pattern and the device.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    # Machine imports are lazy: machine.kernels imports precond.base at
    # module scope, so a top-level import here would be cyclic.
    from ..machine.device import A100
    from ..machine.kernels import time_trisolve, time_trisolve_partitioned

    dev = A100 if device is None else device
    sched = schedule if schedule is not None else level_schedule(tri,
                                                                 kind=kind)
    rows_pl, nnz_pl = level_profile(tri, sched, kind)
    t_levels = time_trisolve(dev, rows_pl, nnz_pl)

    n = tri.n_rows
    candidates = ([int(n_parts)] if n_parts is not None
                  else [p for p in PART_CANDIDATES if p <= n] or [1])
    best_p, best_t = candidates[0], np.inf
    for p in candidates:
        part = partition_rows(tri, p, kind=kind)
        profs = partition_profiles(tri, part)
        t = time_trisolve_partitioned(dev, profs, part.depth,
                                      part.coupling_rows,
                                      part.coupling_nnz)
        if t < best_t:
            best_p, best_t = part.n_parts, t
    chosen = engine
    if engine == "auto":
        chosen = "partitioned" if best_t < t_levels else "levels"
    return TrisolvePlan(engine=chosen, n_parts=best_p,
                        levels_seconds=float(t_levels),
                        partitioned_seconds=float(best_t),
                        device=dev.name)


def make_triangular_solver(tri: CSRMatrix, *, kind: str = "lower",
                           unit_diagonal: bool = False,
                           engine: str = "auto",
                           n_parts: int | None = None,
                           device=None,
                           schedule: LevelSchedule | None = None,
                           partition: RowPartition | None = None,
                           plan: TrisolvePlan | None = None,
                           pivot_rtol: float | None = _PIVOT_RTOL):
    """Build the SpTRSV executor *plan_trisolve* selects for *tri*.

    The one-stop constructor the preconditioners call: resolves
    ``engine`` (pricing both candidates when ``"auto"``), then builds a
    :class:`ScheduledTriangularSolver` or
    :class:`PartitionedTriangularSolver` accordingly.  Pass a cached
    *plan* (see :func:`repro.perf.cache.cached_trisolve_plan`) to skip
    the pricing; *schedule*/*partition* short-circuit the respective
    inspectors.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine != "levels":
        if plan is None:
            plan = plan_trisolve(tri, kind=kind, engine=engine,
                                 n_parts=n_parts, device=device,
                                 schedule=schedule)
        if plan.engine == "partitioned":
            return PartitionedTriangularSolver(tri, kind=kind,
                                               unit_diagonal=unit_diagonal,
                                               n_parts=plan.n_parts,
                                               partition=partition,
                                               pivot_rtol=pivot_rtol)
    return ScheduledTriangularSolver(tri, kind=kind,
                                     unit_diagonal=unit_diagonal,
                                     schedule=schedule,
                                     pivot_rtol=pivot_rtol)


class TwoSweepPreconditioner(Preconditioner):
    """``M⁻¹ r = U⁻¹ (s ⊙ L⁻¹ r)``: a forward sweep, then a backward one.

    The one apply of every triangular-factor preconditioner (ILU(0),
    ILU(K), IC(0), ILUT, SSOR) — Algorithm 1, line 13.  A subclass
    computes its factors and passes them here; both sweeps are built by
    :func:`make_triangular_solver` for the requested *engine*, and the
    cost metadata comes from the factors, whatever the engine.

    Parameters
    ----------
    lower, upper:
        The forward (lower) and backward (upper) triangular factors.
    unit_lower:
        ``lower`` stores only the strict triangle (implicit unit
        diagonal, the LU convention); one op per row is still charged.
    engine, n_parts, device:
        SpTRSV executor choice, forwarded to
        :func:`make_triangular_solver`.
    schedules:
        Optional precomputed ``(lower, upper)`` wavefront schedules;
        computed here otherwise.
    scale:
        Optional per-row scale applied between the sweeps (SSOR's middle
        diagonal); charged one op per row.
    """

    def __init__(self, lower: CSRMatrix, upper: CSRMatrix, *,
                 unit_lower: bool, engine: str,
                 n_parts: int | None = None, device=None,
                 schedules: tuple[LevelSchedule, LevelSchedule] | None = None,
                 scale: np.ndarray | None = None):
        if schedules is None:
            schedules = (level_schedule(lower, kind="lower"),
                         level_schedule(upper, kind="upper"))
        self._fwd = make_triangular_solver(
            lower, kind="lower", unit_diagonal=unit_lower, engine=engine,
            n_parts=n_parts, device=device, schedule=schedules[0])
        self._bwd = make_triangular_solver(
            upper, kind="upper", unit_diagonal=False, engine=engine,
            n_parts=n_parts, device=device, schedule=schedules[1])
        #: Engines the (forward, backward) sweeps resolved to.
        self.engine = (self._fwd.engine, self._bwd.engine)
        self._scale = scale
        self._levels = (schedules[0].n_levels, schedules[1].n_levels)
        n = lower.n_rows
        self._nnz = (lower.nnz + upper.nnz + (n if unit_lower else 0)
                     + (n if scale is not None else 0))

    @property
    def n(self) -> int:
        return self._fwd.n

    @property
    def value_dtype(self) -> np.dtype:
        return np.dtype(self._fwd.dtype)

    def apply(self, r: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """``z = U⁻¹ (s ⊙ L⁻¹ r)`` via two triangular sweeps."""
        y = self._fwd.solve(r)
        if self._scale is not None:
            y = y * (self._scale if y.ndim == 1 else self._scale[:, None])
        return self._bwd.solve(y, out=out)

    def apply_nnz(self) -> int:
        return self._nnz

    def apply_levels(self) -> tuple[int, int]:
        """Wavefronts of the factors' level schedules (engine-independent)."""
        return self._levels

    def solvers(self) -> tuple:
        """The (forward, backward) triangular solvers, for the cost model."""
        return self._fwd, self._bwd
