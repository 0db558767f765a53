#!/usr/bin/env python3
"""Measured wall-clock solve benchmark for the ``repro`` solver library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload spcg_cold --seed 1 --seconds 20 \\
        --trace 0

Runs one workload of :mod:`workloads` as a single closed-loop caller for
at least ``--seconds`` of measured rounds (whole rounds only), after the
inputs are generated and one untimed warm-up round.  Every returned ``x``
is re-verified.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates traced and untraced rounds
and reports the per-layer metrics.  The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it carries the environment stamp and sample counts, and the same record
(plus spans, when traced) is written under ``.perfbench/``.

Exits 2 without a result when the library sources are not next to the
benchmark.  Metric definitions and the layer predictions: METRICS.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter

#: One caller, one thread: BLAS must not spawn threads of its own, which
#: spin against each other (and against other load) on a small host.
#: Set before NumPy is imported; recorded in the stamp.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Share of a timed unit's wall that may lie outside every top-level span.
COVERAGE_TOLERANCE = 0.05


# -- statistics ------------------------------------------------------------

def central(units, field: str) -> float:
    """Geometric mean over matrices of the per-matrix median of *field*.

    Medians are taken per matrix because the four matrices' times form
    separate clusters; a pooled median would jump between clusters as
    the per-matrix sample counts change by one."""
    groups = defaultdict(list)
    for u in units:
        v = getattr(u, field)
        if v is not None:
            groups[u.matrix].append(v)
    if not groups:
        return 0.0
    return math.exp(statistics.fmean(
        math.log(statistics.median(v)) for v in groups.values()))


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    at least ten samples beyond it (nearest rank); the maximum when there
    are fewer than eleven samples, 0 when there are none."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0, 0.0
    if n < 11:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def end_to_end(units) -> tuple[dict, dict]:
    ok = [u for u in units if u.failed == 0]
    walls = [u.wall for u in ok]
    tail_value, tail_pct = tail(walls)
    busy = sum(walls)
    metrics = {
        "time_to_solution_s": central(ok, "wall"),
        "time_to_solution_s_tail": tail_value,
        "setup_s": central(ok, "setup"),
        "solve_s": central(ok, "solve"),
        "throughput_sps": sum(u.solves for u in ok) / busy if ok else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"samples": len(walls), "tail_percentile": tail_pct,
              "setup_samples": sum(u.setup is not None for u in ok),
              "solve_samples": sum(u.solve is not None for u in ok)}
    return metrics, detail


def per_layer(every, first, first_info, first_units, traced, untraced
              ) -> dict:
    """Per-layer metrics.  Times: per traced unit, over every traced
    round (*every*).  Counts: totals over the first traced round
    (*first*), which replays the same inputs for a given seed; work
    counts are per solve of that round."""
    from tracing import (APPLY, BLOCK, FACTORIZE, FLUSH, PCG, RECYCLE,
                         SCHEDULE, SPARSIFY, SPMV, STEP, SWEEP)

    def ratio(a, b):
        return a / b if b else 0.0

    n_units = len(traced)
    busy, self_s, cnt = every.busy, every.self_s, every.count
    solves = sum(u.solves for u in first_units)
    stats = [c.stats for c in first_info.get("caches", [])]
    steps = first_info.get("steps", [])
    return {
        "precond.fwd_s": ratio(busy[f"{SWEEP}.fwd"], n_units),
        "precond.bwd_s": ratio(busy[f"{SWEEP}.bwd"], n_units),
        "precond.us_per_level": 1e6 * ratio(busy[SWEEP], cnt["levels"]),
        "precond.levels_per_apply": ratio(first.count["levels"],
                                          first.calls[APPLY]),
        "precond.apply_s": ratio(busy[APPLY], n_units),
        "precond.factorize_s": ratio(busy[FACTORIZE], n_units),
        "precond.sweep_flops_computed": ratio(first.count["sweep_flops"],
                                              solves),
        "precond.sweep_bytes_computed": ratio(first.count["sweep_bytes"],
                                              solves),
        "sparse.spmv_s": ratio(busy[SPMV], n_units),
        "sparse.spmv_calls": first.calls[SPMV],
        "sparse.spmv_gbs_computed": 1e-9 * ratio(cnt["spmv_bytes"],
                                                 busy[SPMV]),
        "sparse.spmv_flops_computed": ratio(first.count["spmv_flops"],
                                            solves),
        "sparse.spmv_bytes_computed": ratio(first.count["spmv_bytes"],
                                            solves),
        "solvers.loop_self_s": ratio(self_s[PCG], n_units),
        "solvers.iterations": first.count["iterations"],
        "core.sparsify_s": ratio(busy[SPARSIFY], n_units),
        "core.chosen_ratio": ratio(first.count["chosen_ratio"],
                                   first.count["decisions"]),
        "core.wavefront_reduction_pct": ratio(first.count["reduction_pct"],
                                              first.count["reductions"]),
        "graph.schedule_s": ratio(busy[SCHEDULE], n_units),
        "batch.block_self_s": ratio(self_s[BLOCK], n_units),
        "batch.block_sweeps": first.count["block_sweeps"],
        "batch.column_utilization": ratio(first.count["iterations"],
                                          first.count["block_slots"]),
        "serve.dispatch_self_s": ratio(self_s[FLUSH], n_units),
        "streams.recycle_self_s": ratio(self_s[RECYCLE], n_units),
        "streams.step_self_s": ratio(self_s[STEP], n_units),
        "streams.reuse_fraction": ratio(
            sum(s.action == "reuse" for s in steps), len(steps)),
        "streams.refactors": sum(s.action == "refactor" for s in steps),
        "streams.iterations": sum(s.total_iters for s in steps),
        "perf.cache_hit_ratio": ratio(sum(s.hits for s in stats),
                                      sum(s.lookups for s in stats)),
        "perf.factorizations": sum(s.misses_by_kind.get("preconditioner", 0)
                                   for s in stats),
        "machine.model_ratio.spmv": ratio(busy[SPMV],
                                          cnt["spmv_modeled_s"]),
        "machine.model_ratio.trisolve": ratio(busy[SWEEP],
                                              cnt["sweep_modeled_s"]),
        "bench.trace_overhead": ratio(
            central([u for u in traced if u.failed == 0], "wall"),
            central([u for u in untraced if u.failed == 0], "wall")),
    }


# -- environment stamp -----------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def stamp(seed: int) -> dict:
    """Commit (when the tree is a git checkout), a digest of the library
    sources (always), seed, interpreter, libraries and CPU."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}_per_instance"] = _read(f"{base}/size")
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "seed": seed, "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)), **caches,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


# -- running a workload ---------------------------------------------------

def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  *, tiny: bool = False) -> dict:
    """Run one workload; returns the result record (metrics by name)."""
    import workloads
    from tracing import LayerSums, Tracer

    wl = workloads.WORKLOADS[workload](seed, tiny)
    wl.warmup()
    tracer = Tracer(extra_modules=[workloads]) if trace else None
    every, first = LayerSums(), LayerSums()
    first_info, first_units = None, []
    traced, untraced = [], []
    t_start = perf_counter()
    r = 0
    while True:
        on = trace and r % 2 == 0
        try:
            if on:
                tracer.install()
            units, info = wl.run_round(r, tracer if on else None)
        finally:
            if on:
                tracer.uninstall()
        if on:
            if first_info is None:
                first_info, first_units = info, units
                tracer.close_round(units, every, first)
            else:
                tracer.close_round(units, every)
            traced.extend(units)
        else:
            untraced.extend(units)
        # The library leaves reference cycles that hold solve arrays until
        # the cyclic collector runs; collecting between rounds (untimed)
        # keeps peak RSS a round's working set instead of a function of
        # how many rounds fit in the run.
        gc.collect()
        r += 1
        if perf_counter() - t_start >= seconds \
                and (not trace or untraced):
            break

    units = traced + untraced
    attempted = sum(u.solves for u in units)
    failed = sum(u.failed for u in units)
    checks = {}
    if hasattr(wl, "split_matches_spcg"):
        checks["split_matches_spcg"] = wl.split_matches_spcg
    if trace:
        metrics = per_layer(every, first, first_info, first_units,
                            traced, untraced)
        metrics["bench.failed_fraction"] = failed / attempted
        checks["unit_coverage"] = \
            tracer.worst_uncovered <= COVERAGE_TOLERANCE
        detail = {"traced_units": len(traced),
                  "untraced_units": len(untraced),
                  "worst_uncovered_share": tracer.worst_uncovered}
    else:
        metrics, detail = end_to_end(untraced)
    return {"workload": workload, "trace": int(trace), "rounds": r,
            "correct": failed == 0 and all(checks.values()),
            "attempted": attempted, "failed": failed, "checks": checks,
            "detail": detail, "metrics": metrics, "tracer": tracer}


def result_line(record: dict) -> dict:
    """The object printed as the last stdout line: every metric that
    ``BENCHMARK.json`` names for this mode, with its unit (a missing
    metric raises)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]],
                           "unit": m["unit"]} for m in section}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    tracer = record.pop("tracer")
    result = result_line(record)
    record["stamp"] = stamp(args.seed)
    record["metrics"] = result["metrics"]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{tag}-spans.jsonl")
    print(json.dumps({k: record[k] for k in
                      ("stamp", "workload", "rounds", "checks", "detail")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
