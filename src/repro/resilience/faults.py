"""Deterministic fault injection for the SPCG pipeline.

Sparsification deliberately perturbs the preconditioner, so the failure
modes the paper works around by *dropping configurations* (Section 4) —
zeroed pivots, degraded factors, NaN propagation — must be reproducible
on demand for the resilience layer to be testable.  A :class:`FaultPlan`
is a declarative, seeded list of :class:`FaultSpec` entries; the SPCG
driver and the :func:`~repro.resilience.fallback.robust_spcg` ladder
thread the plan through four injection points:

* **matrix faults** (``zero_pivot``, ``flip_diagonal``,
  ``corrupt_values``) corrupt the *sparsified* matrix before the
  preconditioner is factored — modeling sparsification zeroing a pivot
  or memory corruption of Â's value array;
* **apply faults** (``nan_apply``, ``negate_apply``, ``freeze_apply``,
  ``scale_apply``, ``offset_apply``) wrap the preconditioner in a
  :class:`FaultyPreconditioner` and perturb ``z = M⁻¹ r`` at a chosen
  application count — modeling transient kernel faults;
* **operator faults** (``scale_operator``) corrupt the system matrix
  the CG iteration multiplies by — modeling memory corruption of ``A``
  itself;
* **timeline faults** (``sync_failure``) hook the machine model's
  :class:`~repro.machine.timeline.Timeline` and fail a recorded kernel
  event — modeling a lost device synchronization.

Every fault is deterministic: triggers are counted, random corruption is
seeded, and exhausted faults stay exhausted across retries (which is what
lets the fallback ladder demonstrate recovery from *transient* faults).

:class:`FaultyPreconditioner` and :class:`FaultyMatrix` are the one
injection seam per kernel: attribute-delegating proxies that pass each
``apply`` / ``matmat`` output through a *landing function* the fault
schedule supplies.  :class:`FaultPlan` lands its count-triggered specs
there; the serving chaos plan (:class:`repro.chaos.ChaosPlan`) lands its
seeded per-boundary draws through the same proxies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeviceModelError
from ..machine.timeline import KernelEvent
from ..precond.base import Preconditioner
from ..sparse.csr import CSRMatrix

__all__ = ["FaultSpec", "FaultPlan", "FaultyPreconditioner",
           "FaultyMatrix", "MATRIX_FAULTS", "APPLY_FAULTS",
           "OPERATOR_FAULTS", "TIMELINE_FAULTS"]

#: Fault kinds that corrupt the matrix handed to the factorization.
MATRIX_FAULTS = ("zero_pivot", "flip_diagonal", "corrupt_values")
#: Fault kinds that perturb preconditioner applications.
APPLY_FAULTS = ("nan_apply", "negate_apply", "freeze_apply", "scale_apply",
                "offset_apply")
#: Fault kinds that corrupt the system operator ``A`` of the iteration.
OPERATOR_FAULTS = ("scale_operator",)
#: Fault kinds that fire inside the machine-model timeline.
TIMELINE_FAULTS = ("sync_failure",)

_ALL_KINDS = (MATRIX_FAULTS + APPLY_FAULTS + OPERATOR_FAULTS
              + TIMELINE_FAULTS)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    Attributes
    ----------
    kind:
        One of :data:`MATRIX_FAULTS`, :data:`APPLY_FAULTS`,
        :data:`OPERATOR_FAULTS` or :data:`TIMELINE_FAULTS`.
    rungs:
        Fallback-ladder rung names (see
        :mod:`~repro.resilience.fallback`) the fault is scoped to;
        ``None`` applies everywhere.  Scoping a fault to ``("spcg",)``
        models a failure specific to the sparsified configuration, which
        the ladder escapes by falling back.
    rows:
        Target rows for ``zero_pivot`` / ``flip_diagonal`` /
        ``scale_operator``.
    at_apply:
        First preconditioner application (0-based count) an apply fault
        fires at.
    max_triggers:
        Fire at most this many times across the whole plan lifetime
        (``None`` = unlimited).  A finite count models *transient*
        faults that a retry survives.
    fraction, scale:
        For ``corrupt_values``: fraction of stored entries perturbed and
        the multiplicative factor applied; ``scale`` is also the factor
        of ``scale_apply`` and ``scale_operator`` and the additive
        magnitude of ``offset_apply`` (a stuck-at-value output fault).
        No apply fault can make PCG diverge on an SPD ``A``: whatever
        ``z`` the preconditioner returns, ``r_k ⟂ p_{k-1}`` holds, so α
        is the exact line search along ``p`` and ``‖e‖_A`` never grows
        — in exact arithmetic the residual stays within ``√κ(A)`` of
        its best value.  Scalings and sign flips cancel in α and β
        outright; a large offset swamps ``M⁻¹ r`` and the solve
        stagnates.  Genuine
        divergence needs a broken operator: ``scale_operator``
        multiplies the target rows of ``A`` by ``scale``, the operator
        is no longer symmetric and the recurrence blows up.
    value:
        Injected value for ``nan_apply`` (default NaN; use ``inf`` to
        model an overflow instead).
    event_match:
        Substring matched against ``KernelEvent.name``/``phase`` for
        ``sync_failure`` (empty = match every event).
    seed:
        RNG seed for the random corruption kinds.
    """

    kind: str
    rungs: tuple[str, ...] | None = None
    rows: tuple[int, ...] = ()
    at_apply: int = 0
    max_triggers: int | None = None
    fraction: float = 0.05
    scale: float = 1e6
    value: float = float("nan")
    event_match: str = ""
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {_ALL_KINDS}")


class FaultPlan:
    """A deterministic schedule of faults plus its trigger bookkeeping.

    The plan is the single mutable object threaded through a solve (or a
    whole fallback ladder): each spec's trigger count lives here, so a
    fault with ``max_triggers=1`` that fired during attempt 1 stays
    exhausted during attempt 2.  :meth:`reset` rearms everything.
    """

    def __init__(self, specs: FaultSpec | list[FaultSpec]
                 | tuple[FaultSpec, ...] = ()):
        if isinstance(specs, FaultSpec):
            specs = (specs,)
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self._fired: dict[int, int] = {i: 0 for i in range(len(self.specs))}
        self._frozen: dict[int, np.ndarray] = {}

    # -- bookkeeping ------------------------------------------------------
    def reset(self) -> None:
        """Rearm every fault (clears trigger counts and frozen caches)."""
        self._fired = {i: 0 for i in range(len(self.specs))}
        self._frozen.clear()

    def fired(self, spec: FaultSpec) -> int:
        """How many times *spec* has triggered so far."""
        return self._fired[self.specs.index(spec)]

    def total_fired(self) -> int:
        """Total triggers across all specs (diagnostics)."""
        return sum(self._fired.values())

    def _armed(self, idx: int) -> bool:
        spec = self.specs[idx]
        return (spec.max_triggers is None
                or self._fired[idx] < spec.max_triggers)

    @staticmethod
    def _in_scope(spec: FaultSpec, rung: str | None) -> bool:
        return spec.rungs is None or rung is None or rung in spec.rungs

    def _active(self, kinds: tuple[str, ...], rung: str | None
                ) -> list[int]:
        return [i for i, s in enumerate(self.specs)
                if s.kind in kinds and self._in_scope(s, rung)
                and self._armed(i)]

    # -- matrix faults ----------------------------------------------------
    def corrupt_matrix(self, a: CSRMatrix, rung: str | None = None
                       ) -> CSRMatrix:
        """Apply every armed matrix fault in scope to a copy of *a*.

        Returns *a* itself when no fault fires (the common path stays
        allocation-free).
        """
        idxs = self._active(MATRIX_FAULTS, rung)
        if not idxs:
            return a
        data = a.data.copy()
        for i in idxs:
            spec = self.specs[i]
            if spec.kind == "zero_pivot":
                pos = _diag_positions(a, spec.rows)
                data[pos] = 0.0
            elif spec.kind == "flip_diagonal":
                pos = _diag_positions(a, spec.rows)
                data[pos] = -np.abs(data[pos])
            else:  # corrupt_values
                rng = np.random.default_rng(spec.seed)
                k = max(1, int(spec.fraction * a.nnz))
                pos = rng.choice(a.nnz, size=min(k, a.nnz), replace=False)
                data[pos] *= spec.scale
            self._fired[i] += 1
        return CSRMatrix(a.indptr, a.indices, data, a.shape, check=False)

    # -- operator faults --------------------------------------------------
    def corrupt_operator(self, a: CSRMatrix, rung: str | None = None
                         ) -> CSRMatrix:
        """Apply every armed operator fault in scope to a copy of *a*.

        The result is the matrix the CG iteration multiplies by; *a*
        itself is returned when no fault fires.
        """
        idxs = self._active(OPERATOR_FAULTS, rung)
        if not idxs:
            return a
        data = a.data.copy()
        for i in idxs:
            spec = self.specs[i]
            for r in spec.rows:
                if not 0 <= r < a.n_rows:
                    raise IndexError(
                        f"fault row {r} out of range for n={a.n_rows}")
                data[a.indptr[r]:a.indptr[r + 1]] *= spec.scale
            self._fired[i] += 1
        return CSRMatrix(a.indptr, a.indices, data, a.shape, check=False)

    # -- apply faults -----------------------------------------------------
    def wrap_preconditioner(self, m: Preconditioner,
                            rung: str | None = None) -> Preconditioner:
        """Wrap *m* so in-scope apply faults can fire; *m* when none."""
        idxs = [i for i, s in enumerate(self.specs)
                if s.kind in APPLY_FAULTS and self._in_scope(s, rung)]
        if not idxs:
            return m
        applies = 0

        def land(z: np.ndarray) -> np.ndarray:
            nonlocal applies
            count = applies
            applies += 1
            for i in idxs:
                spec = self.specs[i]
                if count < spec.at_apply or not self._armed(i):
                    continue
                self._fired[i] += 1
                if spec.kind == "nan_apply":
                    z = z.copy()
                    z[0] = spec.value
                elif spec.kind == "negate_apply":
                    z = -z
                elif spec.kind == "scale_apply":
                    z = z * spec.scale
                elif spec.kind == "offset_apply":
                    z = z + spec.scale
                else:  # freeze_apply: replay the first perturbed-era output
                    frozen = self._frozen.get(i)
                    if frozen is None:
                        self._frozen[i] = z.copy()
                    else:
                        z = frozen.copy()
            return z

        return FaultyPreconditioner(m, land)

    # -- timeline faults --------------------------------------------------
    def timeline_hook(self, rung: str | None = None):
        """A ``Timeline.fault_hook`` firing in-scope ``sync_failure``
        specs, or ``None`` when the plan has none."""
        idxs = [i for i, s in enumerate(self.specs)
                if s.kind in TIMELINE_FAULTS and self._in_scope(s, rung)]
        if not idxs:
            return None

        def hook(ev: KernelEvent) -> KernelEvent:
            for i in idxs:
                spec = self.specs[i]
                if not self._armed(i):
                    continue
                if spec.event_match and spec.event_match not in ev.name \
                        and spec.event_match not in ev.phase:
                    continue
                self._fired[i] += 1
                raise DeviceModelError(
                    f"injected sync failure on kernel {ev.name!r} "
                    f"(phase {ev.phase!r})")
            return ev

        return hook

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(s.kind for s in self.specs)
        return f"FaultPlan([{kinds}], fired={self.total_fired()})"


def _diag_positions(a: CSRMatrix, rows: tuple[int, ...]) -> np.ndarray:
    """Flat data positions of the diagonal entries of *rows* (skipping
    rows without a stored diagonal)."""
    out = []
    for r in rows:
        if not 0 <= r < a.n_rows:
            raise IndexError(f"fault row {r} out of range for n={a.n_rows}")
        lo, hi = int(a.indptr[r]), int(a.indptr[r + 1])
        k = lo + int(np.searchsorted(a.indices[lo:hi], r))
        if k < hi and a.indices[k] == r:
            out.append(k)
    return np.asarray(out, dtype=np.int64)


class FaultyPreconditioner:
    """Preconditioner proxy passing every ``apply`` output through *land*.

    Every other attribute delegates to the wrapped operator, so the
    machine model prices the faulty operator exactly like the healthy
    one (``value_dtype``, nonzeros, levels, barriers): a fault corrupts
    numerics, never the cost structure.
    """

    def __init__(self, inner: Preconditioner, land):
        self._inner = inner
        self._land = land

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def apply(self, r: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        return self._land(self._inner.apply(r, out=out))


class FaultyMatrix:
    """CSR-matrix proxy passing every block ``matmat`` output through
    *land*; ``matvec`` and every other attribute (``indices``/``data``
    for the ABFT checksum, fingerprints, pricing) read the true
    matrix."""

    def __init__(self, inner: CSRMatrix, land):
        self._inner = inner
        self._land = land

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def matmat(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        return self._land(self._inner.matmat(x, out=out))
