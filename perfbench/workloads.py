"""The four benchmark workloads: inputs, timed calls, verification.

Each workload is one closed-loop caller in one process.  A *round* is
one pass over the workload's fixed list of timed units (one unit per
matrix, or one stream of steps); :meth:`Workload.run_round` times every
unit with ``perf_counter`` around public ``repro`` calls only, then
re-verifies each returned ``x`` against the true residual computed here
with plain NumPy (never trusting the solver's own flag or ``matvec``).
An ``x`` that misses the accuracy is a failed solve.

Inputs come from ``seed`` and are all generated in ``__init__``, before
any timing starts.  Round ``r`` picks its right-hand sides from each
matrix's pool by ``r``, so a given seed replays the same systems in the
same order on every run.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.batch import SolverService
from repro.core import make_preconditioner, spcg, wavefront_aware_sparsify
from repro.datasets import load
from repro.harness import build_heat_stream_operator
from repro.perf.cache import ArtifactCache, use_cache
from repro.solvers import StoppingCriterion, pcg
from repro.streams import DriftSchedule, SolveSession

#: ‖b − A x‖₂ ≤ ACCURACY·‖b‖₂ (‖b‖ = 1: the paper's absolute 1e-12).
ACCURACY = 1e-12
#: Registry matrices of order ~4k; Algorithm 2 picks 10% on all four.
MATRICES = ("thermal_4096_s7", "2d3d_4096_s7", "structural_4096_s7",
            "circuit_4000_s7")
TINY_MATRICES = ("thermal_900_s100", "circuit_900_s100")
#: Right-hand sides generated per matrix; rounds cycle through them.
RHS_POOL = 32
BATCH = 16
#: stream_heat: heat operator, drift schedule, step count.
STREAM = dict(side=64, dt=20.0, steps=48, shock_every=12)
TINY_STREAM = dict(side=12, dt=20.0, steps=6, shock_every=3)
#: ‖f‖₂ of the seeded heat source (the stream study's point source: 100).
STREAM_SOURCE_NORM = 100.0
STREAM_CRITERION = StoppingCriterion(rtol=ACCURACY, atol=0.0,
                                     max_iters=1000)
#: What the benchmark asks of ``pcg``/``pcg_block``.  They stop on their
#: recurrence residual, which the true residual trails by up to ~2e-15 on
#: these systems (measured over 1,472 solves); asked for exactly 1e-12,
#: about one solve in 350 returns a true residual a hair above it.  A
#: caller who needs a true 1e-12 asks for 2% less, which leaves ten times
#: the largest gap seen.  The check stays at ACCURACY: a solver that
#: stops short still fails the run.
SOLVE_CRITERION = StoppingCriterion(rtol=0.98 * ACCURACY, atol=0.0,
                                    max_iters=1000)


class TrueResidual:
    """``‖b − A x‖₂`` for one matrix, via ``np.bincount`` -- an SpMV
    independent of the library's kernels."""

    def __init__(self, a):
        self.a = a
        self.rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))

    def __call__(self, b: np.ndarray, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != b.shape or not np.isfinite(x).all():
            return float("inf")
        ax = np.bincount(self.rows, weights=self.a.data * x[self.a.indices],
                         minlength=self.a.n_rows)
        return float(np.linalg.norm(b - ax))

    def verified(self, b: np.ndarray, res) -> bool:
        """Whether the solve *res* returned converged with an ``x`` that
        meets the accuracy.  A miss is logged to stderr; there is no
        second chance, so a solver that stops short fails here."""
        if res is None or not res.converged:
            return False
        true, limit = self(b, res.x), ACCURACY * float(np.linalg.norm(b))
        if true > limit:
            print(f"perfbench: true residual {true:.6e} > {limit:.6e}",
                  file=sys.stderr)
        return true <= limit


@dataclass
class Unit:
    """One timed unit: ``wall`` is its time to solution (seconds), the
    contiguous interval from ``perf_counter`` reading ``start``."""

    matrix: int
    wall: float
    solves: int
    failed: int
    setup: float | None = None
    solve: float | None = None
    start: float = float("nan")


def _rhs_pool(seed: int, index: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, index])
    pool = []
    for _ in range(RHS_POOL):
        b = rng.standard_normal(n)
        pool.append(b / np.linalg.norm(b))
    return pool


def _failed_unit(matrix: int, solves: int) -> Unit:
    traceback.print_exc(file=sys.stderr)
    return Unit(matrix=matrix, wall=float("nan"), solves=solves,
                failed=solves)


class Workload:
    """Base: the four registry matrices with a seeded RHS pool each."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        names = TINY_MATRICES if tiny else MATRICES
        self.matrices = [load(nm, cache=False) for nm in names]
        self.check = [TrueResidual(a) for a in self.matrices]
        self.rhs = [_rhs_pool(seed, i, a.n_rows)
                    for i, a in enumerate(self.matrices)]

    def warmup(self) -> None:
        """Run once untimed so lazy imports and allocations are paid."""
        self.run_round(0, None)

    def run_round(self, r: int, tracer) -> tuple[list[Unit], dict]:
        """Time one round; returns its units and the artifacts the
        per-layer counts read: ``caches`` and, for streams, ``steps``."""
        raise NotImplementedError


class SpcgCold(Workload):
    """``spcg``'s float64 path as its three public calls, cold cache."""

    name = "spcg_cold"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.split_matches_spcg = self._split_matches_spcg()

    def _split(self, a, b, cache):
        with use_cache(cache):
            t0 = perf_counter()
            decision = wavefront_aware_sparsify(a)
            m = make_preconditioner(decision.a_hat, "ilu0", cache=cache)
            t1 = perf_counter()
            res = pcg(a, b, m, criterion=SOLVE_CRITERION)
            t2 = perf_counter()
        return res, t1 - t0, t2 - t1

    def _split_matches_spcg(self) -> bool:
        """The split measures the shipping pipeline: same x, bitwise."""
        a, b = self.matrices[0], self.rhs[0][0]
        res, _, _ = self._split(a, b, ArtifactCache())
        with use_cache(ArtifactCache()):
            ref = spcg(a, b, criterion=SOLVE_CRITERION)
        return bool(np.array_equal(res.x, ref.x))

    def run_round(self, r, tracer):
        units, caches = [], []
        for i, a in enumerate(self.matrices):
            b = self.rhs[i][r % RHS_POOL]
            cache = ArtifactCache()
            if tracer is not None:
                tracer.unit = i
            try:
                start = perf_counter()
                res, setup, solve = self._split(a, b, cache)
                ok = self.check[i].verified(b, res)
            except Exception:
                units.append(_failed_unit(i, 1))
                continue
            units.append(Unit(matrix=i, wall=setup + solve, solves=1,
                              failed=int(not ok), setup=setup, solve=solve,
                              start=start))
            caches.append(cache)
        return units, {"caches": caches}


class JacobiSpmv(Workload):
    """Plain Jacobi PCG: SpMV and the CG loop, no sweeps, no Algorithm 2.

    The Jacobi preconditioner is rebuilt against a fresh cache at the
    start of every round, so ``setup_s`` is a median over many builds."""

    name = "jacobi_spmv"

    def run_round(self, r, tracer):
        units, caches = [], []
        for i, a in enumerate(self.matrices):
            b = self.rhs[i][r % RHS_POOL]
            cache = ArtifactCache()
            if tracer is not None:
                tracer.unit = i
            try:
                t0 = perf_counter()
                m = make_preconditioner(a, "jacobi", cache=cache)
                t1 = perf_counter()
                res = pcg(a, b, m, criterion=SOLVE_CRITERION)
                t2 = perf_counter()
                ok = self.check[i].verified(b, res)
            except Exception:
                units.append(_failed_unit(i, 1))
                continue
            units.append(Unit(matrix=i, wall=t2 - t1, solves=1,
                              failed=int(not ok), setup=t1 - t0,
                              solve=t2 - t1, start=t1))
            caches.append(cache)
        return units, {"caches": caches}


class BatchRhs16(Workload):
    """16 RHS per matrix through ``SolverService.flush`` (block PCG)."""

    name = "batch_rhs16"

    def warmup(self) -> None:
        for i, a in enumerate(self.matrices):
            svc = SolverService(preconditioner="ilu0", cache=ArtifactCache(),
                                criterion=SOLVE_CRITERION)
            for b in self.rhs[i][:2]:
                svc.submit(a, b)
            svc.flush()

    def run_round(self, r, tracer):
        units, caches = [], []
        for i, a in enumerate(self.matrices):
            bs = [self.rhs[i][(BATCH * r + j) % RHS_POOL]
                  for j in range(BATCH)]
            if tracer is not None:
                tracer.unit = i
            try:
                cache = ArtifactCache()
                with use_cache(cache):
                    t0 = perf_counter()
                    svc = SolverService(preconditioner="ilu0", cache=cache,
                                        criterion=SOLVE_CRITERION)
                    for b in bs:
                        svc.submit(a, b)
                    t1 = perf_counter()
                    report = svc.flush()
                    t2 = perf_counter()
                verified = sum(self.check[i].verified(b, res)
                               for b, res in zip(bs, report.results))
            except Exception:
                units.append(_failed_unit(i, BATCH))
                continue
            units.append(Unit(matrix=i, wall=t2 - t1, solves=BATCH,
                              failed=BATCH - verified, setup=t1 - t0,
                              solve=(t2 - t1) / BATCH, start=t1))
            caches.append(cache)
        return units, {"caches": caches}


class StreamHeat(Workload):
    """A drifting 48-step heat stream through ``SolveSession.step``.

    The drift realization is fixed (``DriftSchedule`` seed 0), so every
    run replays the same shocks and the same Algorithm-2 decisions; the
    run's seed draws the source term of the backward-Euler right-hand
    sides ``b_t = u_{t-1} / dt + f``.  A round is the whole stream from a
    fresh session and cache; every step is a unit.  ``setup`` holds the
    wall of steps that (re)built the preconditioner, ``solve`` the wall
    of steps that reused it."""

    name = "stream_heat"

    def __init__(self, seed: int, tiny: bool = False):
        cfg = TINY_STREAM if tiny else STREAM
        self.dt = cfg["dt"]
        a = build_heat_stream_operator(cfg["side"], cfg["dt"])
        sched = DriftSchedule(seed=0, magnitude=1e-6,
                              shock_every=cfg["shock_every"])
        self.stream = []
        for s in range(1, cfg["steps"] + 1):
            a = sched.evolve(a, s)
            self.stream.append(a)
        self.check = [TrueResidual(a) for a in self.stream]
        f = np.random.default_rng([seed, 0]).standard_normal(a.n_rows)
        self.forcing = STREAM_SOURCE_NORM * f / np.linalg.norm(f)

    def warmup(self) -> None:
        session = SolveSession(preconditioner="ilu0",
                               criterion=STREAM_CRITERION,
                               cache=ArtifactCache())
        u = np.zeros(self.forcing.shape)
        for a in self.stream[:2]:
            u = session.step(a, u / self.dt + self.forcing).result.x

    def run_round(self, r, tracer):
        units = []
        cache = ArtifactCache()
        u = np.zeros(self.forcing.shape)
        with use_cache(cache):
            session = SolveSession(preconditioner="ilu0",
                                   criterion=STREAM_CRITERION, cache=cache)
            for s, a in enumerate(self.stream):
                b = u / self.dt + self.forcing
                if tracer is not None:
                    tracer.unit = s
                try:
                    t0 = perf_counter()
                    rec = session.step(a, b)
                    t1 = perf_counter()
                except Exception:
                    units.extend(_failed_unit(0, 1) for _ in self.stream[s:])
                    break
                u = rec.result.x
                ok = rec.converged and self.check[s].verified(b, rec.result)
                rebuilt = rec.action != "reuse"
                units.append(Unit(matrix=0, wall=t1 - t0, solves=1,
                                  failed=int(not ok),
                                  setup=t1 - t0 if rebuilt else None,
                                  solve=None if rebuilt else t1 - t0,
                                  start=t0))
        return units, {"caches": [cache], "steps": session.report.steps}


WORKLOADS = {w.name: w for w in (SpcgCold, JacobiSpmv, BatchRhs16,
                                 StreamHeat)}
