"""Timing shims for the traced benchmark run.

The benchmark measures the library from outside: nothing under ``src/``
knows it is being timed.  :class:`Tracer` replaces the attributes that
callers look up -- module-level functions in every ``repro`` namespace
that re-exports them, and methods on their classes -- with shims that
record one span per call: name, start, end, parent span, unit id.  Spans
stay in memory; :meth:`Tracer.close_round` folds a round's spans into
per-layer sums (so object references die with the round), measures how
much of each timed unit the top-level spans cover, and keeps a compact
copy that :meth:`Tracer.write` dumps when the run ends.

Untraced runs never construct a ``Tracer``; :meth:`Tracer.uninstall`
restores every patched attribute to the identical original object.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Span names, grouped by layer.  Leaf kernels: sparse.spmv, precond.sweep.
SPMV, SWEEP, APPLY = "sparse.spmv", "precond.sweep", "precond.apply"
FACTORIZE, SPARSIFY, SCHEDULE = ("precond.factorize", "core.sparsify",
                                 "graph.schedule")
PCG, BLOCK, RECYCLE = "solvers.pcg", "batch.pcg_block", "streams.recycle"
FLUSH, STEP = "serve.flush", "streams.step"


def shim_targets() -> list[tuple[str, object, str | None, str | None]]:
    """``(span name, owner, attribute, keep)`` for every shimmed callable.

    ``owner`` is a class when ``attribute`` names a method, else the
    function object itself (patched wherever a module binds it).  ``keep``
    says what the span holds on to until its round is folded: the first
    two arguments (``"args"``), the return value (``"out"``) or nothing.
    """
    from repro.batch import SolverService, pcg_block
    from repro.core import make_preconditioner, wavefront_aware_sparsify
    from repro.graph import level_schedule
    from repro.precond import (ILU0Preconditioner, JacobiPreconditioner,
                               ScheduledTriangularSolver)
    from repro.solvers import pcg
    from repro.sparse import CSRMatrix
    from repro.streams import SolveSession, recycling_pcg

    return [
        (SPMV, CSRMatrix, "matvec", "args"),
        (SPMV, CSRMatrix, "matmat", "args"),
        (SWEEP, ScheduledTriangularSolver, "solve", "args"),
        (APPLY, ILU0Preconditioner, "apply", None),
        (APPLY, JacobiPreconditioner, "apply", None),
        (FACTORIZE, make_preconditioner, None, None),
        (SPARSIFY, wavefront_aware_sparsify, None, "out"),
        (SCHEDULE, level_schedule, None, None),
        (PCG, pcg, None, "out"),
        (BLOCK, pcg_block, None, "out"),
        (RECYCLE, recycling_pcg, None, "out"),
        (FLUSH, SolverService, "flush", None),
        (STEP, SolveSession, "step", None),
    ]


def _bindings(fn, extra_modules) -> list[tuple[object, str]]:
    """Every ``(module, name)`` whose global *name* is *fn*."""
    found = []
    mods = [m for n, m in list(sys.modules.items())
            if n == "repro" or n.startswith("repro.")]
    for mod in mods + list(extra_modules):
        for name, val in list(vars(mod).items()):
            if val is fn:
                found.append((mod, name))
    return found


class Tracer:
    """Span recorder with install/uninstall of the timing shims.

    Parameters
    ----------
    extra_modules:
        Benchmark modules that imported shimmed functions by name; their
        bindings are patched too.
    """

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.unit = -1
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.kept: list[list] = []
        self.round_no = 0
        #: Largest share of a timed unit's wall outside every top-level
        #: span: work the shims do not attribute to any layer.
        self.worst_uncovered = 0.0

    # -- shims ---------------------------------------------------------
    def _shim(self, name: str, fn, keep: str | None):
        spans, stack = self.spans, self._stack
        keep_args, keep_out = keep == "args", keep == "out"

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.unit,
                              args[:2] if keep_args else None,
                              out if keep_out else None)
        return shim

    def install(self) -> None:
        """Patch every target; raises if the shims are already in."""
        if self._patches:
            raise RuntimeError("shims already installed")
        for name, owner, attr, keep in shim_targets():
            if attr is not None:
                orig = owner.__dict__[attr]
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, self._shim(name, orig, keep))
            else:
                shim = self._shim(name, owner, keep)
                for mod, gname in _bindings(owner, self.extra_modules):
                    self._patches.append((mod, gname, owner))
                    setattr(mod, gname, shim)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    # -- per-round folding ---------------------------------------------
    def close_round(self, units, *accs: "LayerSums") -> None:
        """Fold this round's spans into each of *accs*, update
        :attr:`worst_uncovered` from the round's timed *units*, and keep a
        compact copy of the spans for :meth:`write`."""
        spans = self.spans
        if self._stack or any(s is None for s in spans):
            raise RuntimeError("round closed with an open span")
        top = [(t0, t1) for _, t0, t1, parent, *_ in spans if parent < 0]
        for u in units:
            if not u.wall > 0:
                continue  # failed unit: no wall to cover
            end = u.start + u.wall
            covered = sum(max(0.0, min(t1, end) - max(t0, u.start))
                          for t0, t1 in top)
            self.worst_uncovered = max(self.worst_uncovered,
                                       1.0 - covered / u.wall)
        child = np.zeros(len(spans))
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, unit, args, out) in enumerate(spans):
            for acc in accs:
                acc.add(name, t1 - t0, t1 - t0 - child[i], args, out)
            self.kept.append([self.round_no, i, name, t0, t1, parent, unit])
        for acc in accs:
            acc.end_round()
        spans.clear()
        self.round_no += 1

    def write(self, path) -> None:
        """Write the kept spans, one JSON array per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["round", "idx", "name", "start", "end",
                                 "parent", "unit"]) + "\n")
            for row in self.kept:
                fh.write(json.dumps(row) + "\n")


class LayerSums:
    """Per-layer busy/self time and computed work, summed over spans.

    Work counts use the machine model's traffic convention (values and
    indices streamed once, ``x`` gathered and ``y`` written once per row)
    and are *computed* from ``n``, ``nnz`` and the dtypes, not measured.
    ``modeled`` prices the same calls with the kernels
    ``repro.machine.iteration_cost`` sums (``time_spmv``/``time_trisolve``
    and their batched forms) on the ``EPYC_7413`` preset.
    """

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self._model_cache: dict = {}

    def add(self, name, dur, self_dur, args, out) -> None:
        self.busy[name] += dur
        self.self_s[name] += self_dur
        self.calls[name] += 1
        if name == SPMV:
            self._spmv(*args)
        elif name == SWEEP:
            self._sweep(dur, *args)
        elif out is None:
            return  # nothing kept, or the call raised (counted as failed)
        elif name == SPARSIFY:
            self._decision(out)
        elif name == PCG:
            self.count["iterations"] += out.n_iters
        elif name == RECYCLE:
            self.count["iterations"] += out[0].n_iters
        elif name == BLOCK:
            self.count["iterations"] += int(out.n_iters.sum())
            self.count["block_sweeps"] += out.block_iters
            self.count["block_slots"] += out.block_iters * out.batch

    def _decision(self, decision) -> None:
        self.count["decisions"] += 1
        self.count["chosen_ratio"] += decision.chosen_ratio
        for c in decision.candidates:
            if c.ratio_percent == decision.chosen_ratio \
                    and c.wavefront_reduction is not None:
                self.count["reduction_pct"] += c.wavefront_reduction
                self.count["reductions"] += 1

    def _width(self, x) -> int:
        shape = getattr(x, "shape", ())
        return int(shape[1]) if len(shape) == 2 else 1

    def _spmv(self, a, x) -> None:
        from repro.machine import EPYC_7413
        from repro.machine.kernels import time_spmv, time_spmv_batched

        w = self._width(x)
        key = ("spmv", id(a), a.nnz, w)
        hit = self._model_cache.get(key)
        if hit is None:
            n, nnz = a.n_rows, a.nnz
            vb, ib = a.data.dtype.itemsize, a.indices.dtype.itemsize
            flops = 2.0 * nnz * w
            bytes_ = nnz * (vb + ib) + n * ib + w * n * 2 * vb
            model = (time_spmv(EPYC_7413, n, nnz) if w == 1
                     else time_spmv_batched(EPYC_7413, n, nnz, w))
            hit = self._model_cache[key] = (flops, bytes_, model)
        self.count["spmv_flops"] += hit[0]
        self.count["spmv_bytes"] += hit[1]
        self.count["spmv_modeled_s"] += hit[2]

    def _sweep(self, dur, solver, b) -> None:
        from repro.machine import EPYC_7413
        from repro.machine.kernels import time_trisolve, time_trisolve_batched

        w = self._width(b)
        key = ("sweep", id(solver), solver.nnz, w)
        hit = self._model_cache.get(key)
        if hit is None:
            rows, nnz = solver.kernel_profile()
            vb = np.dtype(solver.dtype).itemsize
            ib = solver.schedule.rows.dtype.itemsize
            flops = 2.0 * float(nnz.sum()) * w
            bytes_ = float(nnz.sum()) * (vb + ib) + solver.n * ib \
                + w * solver.n * 2 * vb
            model = (time_trisolve(EPYC_7413, rows, nnz) if w == 1
                     else time_trisolve_batched(EPYC_7413, rows, nnz, w))
            hit = self._model_cache[key] = (flops, bytes_, model,
                                            solver.n_levels)
        side = "fwd" if solver.kind == "lower" else "bwd"
        self.busy[f"{SWEEP}.{side}"] += dur
        self.count["levels"] += hit[3]
        self.count["sweep_flops"] += hit[0]
        self.count["sweep_bytes"] += hit[1]
        self.count["sweep_modeled_s"] += hit[2]

    def end_round(self) -> None:
        """Forget the per-object model cache: ``id``s may be reused next
        round."""
        self._model_cache.clear()
