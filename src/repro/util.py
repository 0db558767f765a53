"""Small numeric utilities shared across the package.

These are the vectorized building blocks the rest of the library leans on:
segmented reductions (the core of the per-wavefront triangular-solve kernel),
geometric means, rank statistics, and dtype plumbing.  Everything here is pure
NumPy and allocation-conscious: the hot paths accept preallocated outputs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ShapeError

__all__ = [
    "asdtype",
    "REAL_DTYPES",
    "segment_ids",
    "segment_sum",
    "segment_sum_by_id",
    "segment_starts_to_lengths",
    "gmean",
    "rankdata",
    "spearman",
    "pearson",
    "histogram_fixed",
    "check_1d",
    "require_finite",
]

#: Floating dtypes the numeric kernels accept (the paper evaluates fp32;
#: fp64 is the default for convergence studies).
REAL_DTYPES = (np.float32, np.float64)


def asdtype(dtype) -> np.dtype:
    """Normalize *dtype* to one of the supported real floating dtypes."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise TypeError(f"unsupported dtype {dt}; expected float32 or float64")
    return dt


def check_1d(x: np.ndarray, n: int | None = None, name: str = "array") -> np.ndarray:
    """Validate that *x* is a 1-D array (of length *n* when given)."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {x.shape}")
    if n is not None and x.shape[0] != n:
        raise ShapeError(f"{name} must have length {n}, got {x.shape[0]}")
    return x


def require_finite(x: np.ndarray, name: str = "array") -> None:
    """Raise ``ValueError`` when *x* contains NaN or infinity."""
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite values")


def segment_ids(starts: np.ndarray, ends: np.ndarray,
                size: int) -> np.ndarray:
    """Segment id of every element of a length-*size* array.

    Element ``e`` gets id ``i`` when ``starts[i] <= e < ends[i]``, and
    the sink id ``len(starts)`` when no segment covers it.  Segments
    must be disjoint (empty ones may sit anywhere), which is what lets
    :func:`segment_sum_by_id` reduce each with a single pass.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape or starts.ndim != 1:
        raise ShapeError("starts and ends must be 1-D with identical shapes")
    m = starts.shape[0]
    lens = ends - starts
    if m and (lens.min() < 0 or starts.min() < 0 or ends.max() > size):
        raise ValueError(f"segments must satisfy 0 <= start <= end <= {size}")
    seg = np.repeat(np.arange(m, dtype=np.int64), lens)
    if m and starts[0] == 0 and ends[-1] == size and np.array_equal(
            starts[1:], ends[:-1]):
        return seg  # CSR-style pointers: the segments tile the array
    nonempty = np.flatnonzero(lens)
    order = nonempty[np.argsort(starts[nonempty], kind="stable")]
    if np.any(starts[order[1:]] < ends[order[:-1]]):
        raise ValueError("segments must not overlap")
    ids = np.full(size, m, dtype=np.int64)
    first = np.cumsum(lens) - lens
    ids[np.repeat(starts - first, lens)
        + np.arange(seg.shape[0], dtype=np.int64)] = seg
    return ids


def segment_sum_by_id(values: np.ndarray, ids: np.ndarray, n_segments: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Sum ``values[e]`` into segment ``ids[e]`` — the segmented-sum kernel.

    One ``np.bincount`` pass: every segment is reduced directly, left to
    right in float64, from its own addends only.  Its rounding error is
    therefore bounded by ``len·eps·Σ|addends|`` of that segment, and a
    non-finite addend poisons only its own segment.  (A difference of
    two global prefix sums, the alternative, carries the error of every
    unrelated element before the segment and turns one ``inf`` into
    ``inf − inf`` for every later segment.)  Empty segments yield
    exactly 0.0.  This is the reduction of :meth:`CSRMatrix.matvec
    <repro.sparse.CSRMatrix.matvec>`, ``matmat`` and every wavefront
    level of the triangular sweeps.

    Parameters
    ----------
    values:
        1-D array of addends, or a 2-D ``(len, B)`` block whose segments
        are summed along axis 0 — one batched kernel serving all ``B``
        columns (the multi-RHS SpMV and triangular sweep).
    ids:
        1-D integer array, ``len(values)`` long, with entries in
        ``[0, n_segments]``; the sink id ``n_segments`` marks elements
        outside every segment (see :func:`segment_ids`).
    n_segments:
        Number of segments (rows of the result).
    out:
        Optional preallocated output of segment dtype.

    Notes
    -----
    The 2-D form bins element ``(e, j)`` at ``ids[e]·B + j``, so bin
    ``(i, j)`` receives exactly the addends of the 1-D call on column
    ``j``, in the same order: each column of the block result is
    bitwise identical to the 1-D call on that column alone.  That is
    what lets the batched SpMV and triangular solver decompose exactly
    into the single-RHS ones.  The result is cast back to the dtype of
    *values* (float32 segments are summed in float64, then rounded
    once).
    """
    values = np.asarray(values)
    if values.ndim == 1:
        res = np.bincount(ids, values, minlength=n_segments)[:n_segments]
    elif values.ndim == 2:
        b = values.shape[1]
        flat = (ids[:, None] * np.int64(b)
                + np.arange(b, dtype=np.int64)).ravel()
        res = np.bincount(flat, values.ravel(), minlength=n_segments * b)
        res = res[:n_segments * b].reshape(n_segments, b)
    else:
        raise ShapeError("values must be 1-D or 2-D (segments along axis 0)")
    if out is None:
        return res.astype(values.dtype, copy=False)
    out[...] = res
    return out


def segment_sum(values: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sum contiguous segments ``values[starts[i]:ends[i]]`` for each *i*.

    The boundary form of :func:`segment_sum_by_id`, which holds the
    rounding, non-finite and block-column contracts; empty segments
    yield exactly 0.0 (unlike ``np.add.reduceat``, whose
    repeated-offset semantics silently return the element at the
    offset).  Hot loops precompute the ids once with
    :func:`segment_ids` and call the kernel directly.

    Parameters
    ----------
    values:
        1-D array of addends, or a 2-D ``(len, B)`` block whose segments
        are summed along axis 0.
    starts, ends:
        Integer arrays of equal length giving disjoint segments,
        ``0 <= starts[i] <= ends[i] <= len(values)``.
    out:
        Optional preallocated output of segment dtype.
    """
    values = np.asarray(values)
    if values.ndim not in (1, 2):
        raise ShapeError("values must be 1-D or 2-D (segments along axis 0)")
    ids = segment_ids(starts, ends, values.shape[0])
    return segment_sum_by_id(values, ids, len(starts), out)


def segment_starts_to_lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """Convert CSR-style ``indptr`` (length m+1) to per-segment lengths."""
    starts = np.asarray(starts, dtype=np.int64)
    if starts.ndim != 1 or starts.size == 0:
        raise ShapeError("starts must be a non-empty 1-D indptr array")
    if starts[-1] != total:
        raise ShapeError(f"indptr must end at {total}, got {starts[-1]}")
    return np.diff(starts)


def gmean(x: Iterable[float]) -> float:
    """Geometric mean of strictly-positive values.

    The paper reports every aggregate speedup as a geometric mean; this is
    the single implementation used throughout the harness.
    """
    arr = np.asarray(list(x) if not isinstance(x, np.ndarray) else x,
                     dtype=np.float64)
    if arr.size == 0:
        raise ValueError("gmean of an empty sequence is undefined")
    if np.any(arr <= 0.0):
        raise ValueError("gmean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def rankdata(x: np.ndarray) -> np.ndarray:
    """Average ranks of *x* (1-based), ties sharing the mean rank.

    Equivalent to ``scipy.stats.rankdata(x, method='average')`` but kept
    in-tree so the harness has no SciPy dependency.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError("rankdata expects a 1-D array")
    n = x.size
    order = np.argsort(x, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    sx = x[order]
    # Boundaries of tie-groups in the sorted order.
    boundary = np.empty(n, dtype=bool)
    if n:
        boundary[0] = True
        boundary[1:] = sx[1:] != sx[:-1]
    group_ids = np.cumsum(boundary) - 1
    counts = np.bincount(group_ids)
    firsts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # Average 1-based rank for each group: first + (count-1)/2 + 1.
    avg = firsts + (counts - 1) / 2.0 + 1.0
    ranks[order] = avg[group_ids]
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation coefficient (Figures 10a/10b in the paper)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError("spearman expects two 1-D arrays of equal length")
    if x.size < 2:
        raise ValueError("spearman requires at least two observations")
    return pearson(rankdata(x), rankdata(y))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return 0.0
    return float((xc * yc).sum() / denom)


def histogram_fixed(values: np.ndarray, lo: float, hi: float,
                    width: float) -> tuple[np.ndarray, np.ndarray]:
    """Histogram with fixed-width bins over ``[lo, hi]``; clamps outliers.

    Mirrors the paper's speedup-distribution figures, which clamp the x-axis
    to [0, 5] with 0.25-wide bins.  Returns ``(edges, percent)`` where
    *percent* sums to 100 when *values* is non-empty.
    """
    values = np.asarray(values, dtype=np.float64)
    if width <= 0 or hi <= lo:
        raise ValueError("require width > 0 and hi > lo")
    edges = np.arange(lo, hi + width * 0.5, width)
    # When (hi-lo)/width is non-integral the last arange edge lands below
    # hi, so values clamped to nextafter(hi, lo) would fall outside every
    # bin and percent would sum to < 100.  Extend the final edge to hi.
    if edges.size < 2 or edges[-1] < hi:
        edges = np.append(edges, hi)
    clipped = np.clip(values, lo, np.nextafter(hi, lo))
    counts, _ = np.histogram(clipped, bins=edges)
    if values.size:
        percent = counts * (100.0 / values.size)
    else:
        percent = counts.astype(np.float64)
    return edges, percent
