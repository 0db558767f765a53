"""Self-tests of the benchmark on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import repro.core  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.solvers import StoppingCriterion  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(name: str, trace: bool, seed: int = 3) -> dict:
    """One warm-up plus one measured round (two when traced)."""
    return run.run_benchmark(name, seed, 0.0, trace, tiny=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_reports_every_named_metric_with_its_unit(name, trace):
    record = tiny(name, trace)
    line = run.result_line(record)
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_planted_wrong_x_raises_failed_fraction(monkeypatch):
    real = workloads.pcg

    def perturbed(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x[0] += 1e-3  # converged flag stays True; x is now wrong
        return res

    monkeypatch.setattr(workloads, "pcg", perturbed)
    for trace in (False, True):
        record = tiny("jacobi_spmv", trace)
        assert record["correct"] is False
        assert record["failed"] == record["attempted"]
    assert record["metrics"]["bench.failed_fraction"] == 1.0


def _current_bindings() -> list[tuple[object, str, object]]:
    found = []
    for _, owner, attr, _ in tracing.shim_targets():
        if attr is not None:
            found.append((owner, attr, owner.__dict__[attr]))
        else:
            found += [(mod, gname, getattr(mod, gname)) for mod, gname
                      in tracing._bindings(owner, [workloads])]
    return found


def test_shims_are_installed_only_while_tracing():
    before = _current_bindings()
    tracer = tracing.Tracer(extra_modules=[workloads])
    tracer.install()
    try:
        assert all(getattr(obj, attr) is not orig
                   for obj, attr, orig in before)
    finally:
        tracer.uninstall()
    for trace in (False, True):
        tiny("spcg_cold", trace)
        assert all(getattr(obj, attr) is orig
                   for obj, attr, orig in before)


def test_solver_stopping_short_fails_the_run(monkeypatch):
    real = workloads.pcg

    def loose(*args, **kwargs):
        kwargs["criterion"] = StoppingCriterion(atol=1e-9)
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads, "pcg", loose)
    for name in ("spcg_cold", "jacobi_spmv"):
        record = tiny(name, False)
        assert record["correct"] is False, name
        assert record["failed"] > 0, name


@pytest.mark.parametrize("name", NAMES)
def test_traced_spans_cover_each_unit(name):
    record = tiny(name, True)
    assert record["checks"]["unit_coverage"] is True
    assert record["detail"]["worst_uncovered_share"] <= 0.05


def test_unshimmed_work_inside_a_unit_trips_coverage(monkeypatch):
    def slow_sparsify(*args, **kwargs):
        time.sleep(0.05)  # inside the timed unit, outside every shim
        return repro.core.wavefront_aware_sparsify(*args, **kwargs)

    monkeypatch.setattr(workloads, "wavefront_aware_sparsify", slow_sparsify)
    record = tiny("spcg_cold", True)
    assert record["checks"]["unit_coverage"] is False
    assert record["correct"] is False


def test_counts_repeat_exactly_for_a_seed():
    keys = ("solvers.iterations", "precond.levels_per_apply",
            "perf.factorizations", "sparse.spmv_calls")
    for name in NAMES:
        a, b = tiny(name, True), tiny(name, True)
        assert [a["metrics"][k] for k in keys] \
            == [b["metrics"][k] for k in keys], name
    a, b = tiny("stream_heat", True), tiny("stream_heat", True)
    for k in ("streams.refactors", "streams.reuse_fraction",
              "streams.iterations"):
        assert a["metrics"][k] == b["metrics"][k]


def test_split_matches_spcg_bitwise():
    assert workloads.SpcgCold(5, tiny=True).split_matches_spcg is True


def test_true_residual_matches_dense_product():
    a = workloads.load("thermal_900_s100", cache=False)
    check = workloads.TrueResidual(a)
    rng = np.random.default_rng(0)
    x, b = rng.standard_normal(a.n_rows), rng.standard_normal(a.n_rows)
    dense = np.linalg.norm(b - a.to_dense() @ x)
    assert check(b, x) == pytest.approx(dense, rel=1e-12)
    assert check(b, np.full(a.n_rows, np.nan)) == float("inf")


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(5))) == (4, 100.0)
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    assert sum(v > value for v in range(40)) == 10


def test_central_is_gmean_of_per_matrix_medians():
    u = workloads.Unit
    units = [u(0, 1.0, 1, 0), u(0, 3.0, 1, 0), u(0, 2.0, 1, 0),
             u(1, 8.0, 1, 0)]
    assert run.central(units, "wall") == pytest.approx(4.0)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
