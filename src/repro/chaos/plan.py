"""Seeded device-level fault injection (the chaos plan).

A :class:`ChaosPlan` turns the modeled device into an unreliable one,
deterministically: at every iteration boundary the serving scheduler
polls the plan, and with probability ``fault_rate`` one fault fires —
drawn from a seeded stream, so a chaos run is exactly reproducible and
the acceptance suite can pin goodput floors at a fixed seed.

Fault taxonomy (:class:`FaultKind`):

``transient``
    A kernel produced garbage once: the next batched SpMV output gets a
    NaN entry.  Loud — the ABFT checksum (non-finite sum) or the
    curvature check catches it the same sweep.
``stall``
    The device stalls for ``stall_seconds`` modeled seconds (preemption,
    thermal throttle, ECC scrub); purely a timing fault.
``crash``
    The device dies: every resident column is frozen with
    ``DEVICE_CRASH`` and the scheduler pays ``crash_restart_seconds``
    before the device serves again.
``sdc_spmv`` / ``sdc_trisolve``
    Silent data corruption: one entry of the next batched SpMV /
    preconditioner-apply output gets an exponent-or-mantissa bit flip
    (finite, no NaN — nothing loud happens).  SpMV corruption breaks
    the ``r = b − Ax`` invariant and is what the ABFT checksum and the
    true-residual detector exist for; trisolve corruption only perturbs
    the search direction (the recurrence stays consistent), degrading
    convergence rather than the answer — the guard/budget path catches
    it.

Injection seam
--------------
Corruption rides on the resilience layer's operator proxies
(:class:`~repro.resilience.faults.FaultyMatrix`,
:class:`~repro.resilience.faults.FaultyPreconditioner`, built by
:meth:`ChaosPlan.wrap_matrix` / :meth:`ChaosPlan.wrap_preconditioner`),
which delegate everything to the wrapped object and pass each block
SpMV / batched apply output through :meth:`ChaosPlan._corrupt`, so
exactly one armed block-kernel output is corrupted.  ``matvec`` and
single-vector applies (reference solves, verification) pass through.
Arming happens inside the scheduler's slot hook, *after*
:func:`~repro.batch.pcg_block` ran its boundary verification — so the
detectors' own SpMV calls can never consume an armed fault, only the
solver's next sweep can.  Stalls and crashes are returned from
:meth:`poll` for the scheduler to apply to its clock and working set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..resilience.faults import FaultyMatrix, FaultyPreconditioner

__all__ = ["FaultKind", "ChaosConfig", "ChaosEvent", "ChaosPlan"]


class FaultKind(enum.Enum):
    """What kind of modeled device fault fired."""

    TRANSIENT = "transient"
    STALL = "stall"
    CRASH = "crash"
    SDC_SPMV = "sdc_spmv"
    SDC_TRISOLVE = "sdc_trisolve"


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of the seeded fault schedule.

    ``fault_rate`` is the per-sweep probability that *one* fault fires
    at an iteration boundary; the ``p_*`` weights (normalized at draw
    time) pick its kind.  ``flip_bits`` bounds the flipped bit index of
    an SDC event to the top mantissa / low exponent bits of the float64
    layout — relative perturbations between ~2⁻⁸ and 2×, always finite,
    always far above the ABFT tolerance.
    """

    fault_rate: float = 0.0
    seed: int = 0
    p_transient: float = 0.1
    p_stall: float = 0.2
    p_crash: float = 0.1
    p_sdc_spmv: float = 0.4
    p_sdc_trisolve: float = 0.2
    stall_seconds: float = 5e-3
    crash_restart_seconds: float = 2e-2
    flip_bits: tuple[int, int] = (44, 53)

    def __post_init__(self):
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must lie in [0, 1]")
        weights = (self.p_transient, self.p_stall, self.p_crash,
                   self.p_sdc_spmv, self.p_sdc_trisolve)
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("fault-kind weights must be non-negative "
                             "with a positive sum")
        lo, hi = self.flip_bits
        if not 0 <= lo < hi <= 63:
            raise ValueError("flip_bits must satisfy 0 <= lo < hi <= 63")
        if self.stall_seconds < 0 or self.crash_restart_seconds < 0:
            raise ValueError("fault penalties must be non-negative")


@dataclass
class ChaosEvent:
    """One fired fault: its kind, the boundary it fired at, and the
    injection detail (row/column/bit for SDC events) once applied."""

    kind: FaultKind
    sweep: int
    detail: dict = field(default_factory=dict)


def _flip_bit(value: float, bit: int) -> float:
    """Flip one bit of a float64 — the literal SDC model."""
    iv = np.float64(value).view(np.int64)
    return float(np.int64(iv ^ (np.int64(1) << np.int64(bit)))
                 .view(np.float64))


class ChaosPlan:
    """Deterministic fault schedule over a serving run.

    One plan spans the whole run (all blocks): :meth:`poll` advances
    the seeded stream once per iteration boundary, arming at most one
    fault.  ``events`` records every fired fault; ``injected`` records
    the corruptions actually applied to a kernel output (an armed SDC
    whose block ends first never lands, and stays armed for the next
    block of the same wrapped operators).
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.reset()

    def reset(self) -> None:
        """Rewind the plan to its seed (fresh identical schedule)."""
        self._rng = np.random.default_rng(self.config.seed)
        self.events: list[ChaosEvent] = []
        self.injected: list[ChaosEvent] = []
        self._armed: dict[str, ChaosEvent] = {}

    # -- scheduling ----------------------------------------------------
    def poll(self, sweep: int) -> ChaosEvent | None:
        """Advance the schedule one iteration boundary.

        Returns the fault that fires at this boundary (``None`` for a
        healthy sweep).  SDC/transient faults are *armed* here and land
        on the next matching kernel output; stall/crash faults are the
        caller's to apply (clock penalty / working-set wipe).  Each
        fire consumes a fixed number of draws so the stream stays
        aligned across fault kinds.
        """
        cfg = self.config
        if self._rng.random() >= cfg.fault_rate:
            return None
        u_kind, u_row, u_col, u_bit = self._rng.random(4)
        weights = np.array([cfg.p_transient, cfg.p_stall, cfg.p_crash,
                            cfg.p_sdc_spmv, cfg.p_sdc_trisolve])
        kinds = (FaultKind.TRANSIENT, FaultKind.STALL, FaultKind.CRASH,
                 FaultKind.SDC_SPMV, FaultKind.SDC_TRISOLVE)
        cum = np.cumsum(weights / weights.sum())
        kind = kinds[int(np.searchsorted(cum, u_kind, side="right"))]
        event = ChaosEvent(kind, sweep)
        self.events.append(event)
        lo, hi = cfg.flip_bits
        if kind is FaultKind.TRANSIENT:
            self._armed["spmv"] = event
            event.detail.update(mode="nan", u_row=u_row, u_col=u_col)
        elif kind is FaultKind.SDC_SPMV:
            self._armed["spmv"] = event
            event.detail.update(mode="flip", u_row=u_row, u_col=u_col,
                                bit=lo + int(u_bit * (hi - lo)))
        elif kind is FaultKind.SDC_TRISOLVE:
            self._armed["apply"] = event
            event.detail.update(mode="flip", u_row=u_row, u_col=u_col,
                                bit=lo + int(u_bit * (hi - lo)))
        return event

    def n_events(self, kind: FaultKind | None = None) -> int:
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind is kind)

    # -- injection seam ------------------------------------------------
    def _corrupt(self, channel: str, y: np.ndarray) -> np.ndarray:
        event = self._armed.pop(channel, None)
        if event is None:
            return y
        d = event.detail
        row = int(d["u_row"] * y.shape[0]) % y.shape[0]
        col = int(d["u_col"] * y.shape[1]) % y.shape[1]
        before = float(y[row, col])
        if d["mode"] == "nan":
            y[row, col] = np.nan
        else:
            y[row, col] = _flip_bit(before, d["bit"])
        d.update(row=row, col=col, before=before,
                 after=float(y[row, col]))
        self.injected.append(event)
        return y

    def wrap_matrix(self, a) -> FaultyMatrix:
        return FaultyMatrix(a, lambda y: self._corrupt("spmv", y))

    def wrap_preconditioner(self, m) -> FaultyPreconditioner:
        # Only batched (2-D) applies are block-kernel outputs.
        return FaultyPreconditioner(
            m, lambda z: self._corrupt("apply", z) if z.ndim == 2 else z)
