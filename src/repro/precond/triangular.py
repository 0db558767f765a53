"""Sparse triangular solvers: sequential reference and two GPU executors.

Solving the two triangular systems of the preconditioner application is
where PCG spends its time on GPUs (Section 2 of the paper).  Two
executor strategies are provided, both inspector–executor pattern:

* :class:`ScheduledTriangularSolver` — level scheduling: the inspector
  (:func:`repro.graph.level_schedule`) runs once per factor, the
  executor then performs **one segmented, fully-vectorized kernel per
  wavefront** (a direct per-row ``bincount`` reduction) — the NumPy
  analogue of one CUDA kernel launch per level, with the inter-level
  Python step standing in for the barrier synchronization.  Fewer
  wavefronts therefore mean both fewer modeled synchronizations *and*
  measurably less interpreter overhead.
* :class:`PartitionedTriangularSolver` — fine-grained domain
  decomposition (arXiv 2508.04917): the factor is fenced into ``P``
  independent diagonal sub-triangles solved concurrently (block-local
  syncs) plus an off-diagonal coupling block repaired by a block-Jacobi
  correction loop that terminates exactly after ``max(depth)`` sweeps.
  The sub-triangles form one block-diagonal matrix swept by a single
  :class:`ScheduledTriangularSolver`.  On deep-wavefront factors this
  trades ``n_levels`` device barriers for ``2·n_sweeps`` of them.

:func:`repro.precond.engine.make_triangular_solver` chooses between the
two from modeled cost.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

import numpy as np

from ..errors import NotTriangularError, ShapeError, SingularFactorError
from ..graph.levels import LevelSchedule, level_schedule
from ..graph.partition import RowPartition, partition_rows, split_fences
from ..sparse.csr import CSRMatrix
from ..util import segment_sum_by_id

__all__ = [
    "solve_lower_sequential",
    "solve_upper_sequential",
    "ScheduledTriangularSolver",
    "PartitionedTriangularSolver",
]

#: Default relative pivot tolerance: ``None`` selects the factor dtype's
#: machine epsilon.  Pivot magnitudes at or below
#: ``max(rtol · max|pivot|, tiny)`` raise :class:`SingularFactorError`
#: at solver construction — the ``tiny`` floor rejects denormal pivots
#: whose reciprocal overflows to inf (a float32 pivot of 1e-40 passes an
#: exact-zero test yet produces an unusable solver).
_PIVOT_RTOL: float | None = None


def _check_square(t: CSRMatrix) -> int:
    if t.shape[0] != t.shape[1]:
        raise ShapeError(f"triangular solve requires square matrix, "
                         f"got {t.shape}")
    return t.n_rows


def _pivot_threshold(dtype, max_abs_pivot: float,
                     rtol: float | None) -> float:
    """Absolute rejection threshold for pivot magnitudes.

    Genuinely relative: ``rtol`` (the dtype's eps when ``None``) scales
    the largest pivot magnitude; the dtype's smallest normal number is
    the floor so denormal pivots are always rejected.
    """
    fi = np.finfo(np.dtype(dtype))
    r = float(fi.eps) if rtol is None else float(rtol)
    return max(r * float(max_abs_pivot), float(fi.tiny))


def _summed_diag(tri: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-row diagonal values (duplicates summed, float64) + presence.

    Summing duplicate diagonal entries is the CSR convention (assembly
    semantics); both the sequential oracles and the executors use this
    helper so non-canonical input cannot make them diverge.
    """
    n = tri.n_rows
    rid = np.repeat(np.arange(n, dtype=np.int64), tri.row_lengths())
    dmask = tri.indices == rid
    diag = np.zeros(n, dtype=np.float64)
    np.add.at(diag, rid[dmask], tri.data[dmask].astype(np.float64))
    present = np.zeros(n, dtype=bool)
    present[rid[dmask]] = True
    return diag, present


def _pivot_error(row: int, pivot: float, thr: float) -> SingularFactorError:
    return SingularFactorError(
        row, pivot,
        f"pivot magnitude {abs(pivot):.3e} at row {row} is at or below "
        f"the rejection threshold {thr:.3e} "
        f"(relative to the largest pivot)")


def solve_lower_sequential(lower: CSRMatrix, b: np.ndarray, *,
                           unit_diagonal: bool = False,
                           pivot_rtol: float | None = _PIVOT_RTOL
                           ) -> np.ndarray:
    """Forward substitution ``L x = b`` — the executable specification.

    Row-by-row Python loop used as the correctness oracle for the
    wavefront executor and in the property-based tests.  Accumulation
    happens in ``np.result_type(lower.dtype, b.dtype)`` — the same
    arithmetic the vectorized executor performs — so float32
    oracle-vs-executor comparisons exercise float32 arithmetic, not a
    hidden float64 reference.  Duplicate diagonal entries are summed.
    """
    n = _check_square(lower)
    b = np.asarray(b)
    if b.shape != (n,):
        raise ShapeError(f"b must have shape ({n},)")
    dtype = np.result_type(lower.dtype, b.dtype)
    bd = b.astype(dtype, copy=False)
    x = np.zeros(n, dtype=dtype)
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    if not unit_diagonal:
        diag, _ = _summed_diag(lower)
        thr = _pivot_threshold(lower.dtype,
                               float(np.abs(diag).max(initial=0.0)),
                               pivot_rtol)
    for i in range(n):
        cols = indices[indptr[i]:indptr[i + 1]]
        vals = data[indptr[i]:indptr[i + 1]]
        if cols.size and cols[-1] > i:
            raise NotTriangularError(f"entry above diagonal in row {i}")
        below = cols < i
        acc = bd[i] - np.dot(vals[below], x[cols[below]])
        if unit_diagonal:
            x[i] = acc
        else:
            dmask = cols == i
            if not dmask.any():
                raise SingularFactorError(i, 0.0)
            d = vals[dmask].astype(dtype, copy=False).sum()
            if abs(d) <= thr:
                raise _pivot_error(i, float(d), thr)
            x[i] = acc / d
    return x


def solve_upper_sequential(upper: CSRMatrix, b: np.ndarray, *,
                           unit_diagonal: bool = False,
                           pivot_rtol: float | None = _PIVOT_RTOL
                           ) -> np.ndarray:
    """Backward substitution ``U x = b`` — the executable specification.

    Same accumulation-dtype and duplicate-diagonal conventions as
    :func:`solve_lower_sequential`.
    """
    n = _check_square(upper)
    b = np.asarray(b)
    if b.shape != (n,):
        raise ShapeError(f"b must have shape ({n},)")
    dtype = np.result_type(upper.dtype, b.dtype)
    bd = b.astype(dtype, copy=False)
    x = np.zeros(n, dtype=dtype)
    indptr, indices, data = upper.indptr, upper.indices, upper.data
    if not unit_diagonal:
        diag, _ = _summed_diag(upper)
        thr = _pivot_threshold(upper.dtype,
                               float(np.abs(diag).max(initial=0.0)),
                               pivot_rtol)
    for i in range(n - 1, -1, -1):
        cols = indices[indptr[i]:indptr[i + 1]]
        vals = data[indptr[i]:indptr[i + 1]]
        if cols.size and cols[0] < i:
            raise NotTriangularError(f"entry below diagonal in row {i}")
        above = cols > i
        acc = bd[i] - np.dot(vals[above], x[cols[above]])
        if unit_diagonal:
            x[i] = acc
        else:
            dmask = cols == i
            if not dmask.any():
                raise SingularFactorError(i, 0.0)
            d = vals[dmask].astype(dtype, copy=False).sum()
            if abs(d) <= thr:
                raise _pivot_error(i, float(d), thr)
            x[i] = acc / d
    return x


class ScheduledTriangularSolver:
    """Level-scheduled (wavefront) triangular solver.

    Parameters
    ----------
    tri:
        Square lower- or upper-triangular CSR matrix in canonical form.
    kind:
        ``"lower"`` (forward substitution) or ``"upper"`` (backward).
    unit_diagonal:
        Treat the diagonal as implicitly 1 (stored diagonal entries, if
        any, are ignored).  This matches the unit-lower factor convention
        of LU.
    schedule:
        Optional precomputed :class:`LevelSchedule` (the inspector result)
        to reuse; computed on construction otherwise.
    pivot_rtol:
        Relative pivot-rejection tolerance (``None`` = the factor
        dtype's eps); see :data:`_PIVOT_RTOL`.

    Notes
    -----
    Construction performs the inspector work once: it extracts the
    off-diagonal entries grouped by wavefront, together with each
    entry's level-local row id, so that :meth:`solve` only executes
    ``n_levels`` segmented gather/sum kernels.  The per-level
    row and nonzero counts are exposed via :meth:`kernel_profile` for the
    machine model.
    """

    #: Engine tag for reporting / auto-selection bookkeeping.
    engine = "levels"

    def __init__(self, tri: CSRMatrix, *, kind: str = "lower",
                 unit_diagonal: bool = False,
                 schedule: LevelSchedule | None = None,
                 pivot_rtol: float | None = _PIVOT_RTOL):
        if kind not in ("lower", "upper"):
            raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
        n = _check_square(tri)
        self.kind = kind
        self.unit_diagonal = bool(unit_diagonal)
        self.n = n
        self.dtype = tri.dtype
        self.schedule = (schedule if schedule is not None
                         else level_schedule(tri, kind=kind))
        if self.schedule.n_rows != n:
            raise ShapeError("schedule size does not match matrix order")

        rid = np.repeat(np.arange(n, dtype=np.int64), tri.row_lengths())
        cols = tri.indices
        if kind == "lower":
            if np.any(cols > rid):
                raise NotTriangularError("entries above the diagonal")
            off_mask = cols < rid
        else:
            if np.any(cols < rid):
                raise NotTriangularError("entries below the diagonal")
            off_mask = cols > rid

        # Diagonal (reciprocal) with pivot validation: duplicates are
        # summed (matching the sequential oracles) and magnitudes at or
        # below the relative threshold are rejected — including the
        # denormal pivots whose float32 reciprocal would overflow to inf.
        if not self.unit_diagonal:
            diag, present = _summed_diag(tri)
            if not present.all():
                row = int(np.flatnonzero(~present)[0])
                raise SingularFactorError(row, 0.0)
            thr = _pivot_threshold(tri.dtype,
                                   float(np.abs(diag).max(initial=0.0)),
                                   pivot_rtol)
            bad = np.abs(diag) <= thr
            if np.any(bad):
                row = int(np.flatnonzero(bad)[0])
                raise _pivot_error(row, float(diag[row]), thr)
            inv_diag = (1.0 / diag).astype(tri.dtype)
        else:
            inv_diag = None

        # Off-diagonal entries compacted, then reordered into schedule order.
        off_cols = cols[off_mask]
        off_vals = tri.data[off_mask]
        off_counts = np.zeros(n, dtype=np.int64)
        np.add.at(off_counts, rid[off_mask], 1)
        off_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(off_counts, out=off_indptr[1:])

        sched_rows = self.schedule.rows
        lens = off_counts[sched_rows]
        starts = off_indptr[sched_rows]
        total = int(lens.sum())
        if total:
            take = (np.repeat(starts - np.concatenate(
                ([0], np.cumsum(lens)[:-1])), lens)
                + np.arange(total, dtype=np.int64))
        else:
            take = np.empty(0, dtype=np.int64)
        self._gather_cols = off_cols[take]
        self._gather_vals = off_vals[take]
        self._rows = sched_rows
        self._level_ptr = lp = self.schedule.level_ptr
        level_sizes = np.diff(lp)
        # Level-local row of every gathered entry: the segment ids each
        # level's reduction bins its products by.  Stored as int32 —
        # half the footprint of a cached solver's largest extra array;
        # ``np.bincount`` widens each level's slice as it reads it.
        local_row = (np.arange(n, dtype=np.int64)
                     - np.repeat(lp[:-1], level_sizes))
        id_dtype = np.int32 if n < 2 ** 31 else np.int64
        self._seg_ids = np.repeat(local_row, lens).astype(id_dtype)
        # Gathered entries before each level (level k owns entries
        # ``_level_seg_ptr[k]:_level_seg_ptr[k + 1]``).
        seg_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=seg_ptr[1:])
        self._level_seg_ptr = seg_ptr[lp]
        # Reciprocal pivots in schedule order, so a level scales by a
        # slice rather than a gather.
        self._sched_inv_diag = (None if inv_diag is None
                                else inv_diag[sched_rows])
        # Scratch buffers for the float64 fast path, sized to the widest
        # wavefront.  Thread-local: cached solver instances are shared
        # across the parallel suite runner's workers, and concurrent
        # solves must not stomp each other's scratch space.
        self._max_level_rows = (int(level_sizes.max())
                                if self.n_levels else 0)
        self._max_level_nnz = (int(np.diff(self._level_seg_ptr).max())
                               if self.n_levels else 0)
        self._scratch = threading.local()

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Number of wavefronts (≡ synchronizations per solve)."""
        return self.schedule.n_levels

    @property
    def n_exposed_syncs(self) -> int:
        """Device-wide barriers per solve (level boundaries)."""
        return max(0, self.n_levels - 1)

    @property
    def nnz(self) -> int:
        """Stored off-diagonal entries plus diagonal contributions."""
        return int(self._gather_cols.shape[0]) + self.n

    def kernel_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-level ``(rows, nnz)`` arrays for the machine cost model.

        ``nnz`` counts the off-diagonal entries gathered in each level plus
        one diagonal operation per row.
        """
        rows_per_level = np.diff(self._level_ptr)
        return rows_per_level, np.diff(self._level_seg_ptr) + rows_per_level

    # Derived, not stored: a cached solver keeps only the arrays its
    # executor reads.
    @property
    def _seg_ptr(self) -> np.ndarray:
        """Per-row segment pointers, in schedule order."""
        pos = (np.repeat(self._level_ptr[:-1], np.diff(self._level_seg_ptr))
               + self._seg_ids)
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pos, minlength=self.n), out=ptr[1:])
        return ptr

    @property
    def _inv_diag(self) -> np.ndarray | None:
        """Reciprocal pivots indexed by row (``None`` for unit diagonal)."""
        if self._sched_inv_diag is None:
            return None
        inv = np.empty_like(self._sched_inv_diag)
        inv[self._rows] = self._sched_inv_diag
        return inv

    def _bounds(self) -> Iterator[tuple[int, int, int, int]]:
        """Per-level ``(lo, hi, s0, s1)`` row and entry bounds as ints."""
        lp, sp = self._level_ptr.tolist(), self._level_seg_ptr.tolist()
        return zip(lp[:-1], lp[1:], sp[:-1], sp[1:])

    def _buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """This thread's scratch (prod, acc), allocated once."""
        s = self._scratch
        bufs = getattr(s, "bufs", None)
        if bufs is None:
            bufs = (np.empty(self._max_level_nnz, dtype=np.float64),
                    np.empty(self._max_level_rows, dtype=np.float64))
            s.bufs = bufs
        return bufs

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """Solve the triangular system for right-hand side *b*.

        Executes one vectorized segmented kernel per wavefront: gather
        ``b`` and ``x``, multiply, reduce each row's products directly
        with :func:`~repro.util.segment_sum_by_id`, subtract, scale,
        scatter.  When everything is float64 (the common case) the
        gathers and products run into preallocated scratch buffers and
        the reduction calls ``np.bincount`` itself — the same
        arithmetic, so both paths agree bitwise.

        *b* may also be an ``(n, B)`` block of right-hand sides; the same
        ``n_levels`` wavefront sweeps then serve all ``B`` columns at
        once (the per-level barriers are paid once per sweep, not once
        per column), and each column of the result is bitwise identical
        to the single-RHS solve on that column.
        """
        b = np.asarray(b)
        if b.ndim == 2:
            return self._solve_block(b, out)
        if b.shape != (self.n,):
            raise ShapeError(f"b must have shape ({self.n},)")
        dtype = np.result_type(self.dtype, b.dtype)
        x = out if out is not None else np.empty(self.n, dtype=dtype)
        if x.shape != (self.n,):
            raise ShapeError(f"out must have shape ({self.n},)")
        rows, seg_ids = self._rows, self._seg_ids
        gcols, gvals = self._gather_cols, self._gather_vals
        inv_diag = self._sched_inv_diag
        fast = (dtype == np.float64 and x.dtype == np.float64
                and gvals.dtype == np.float64 and b.dtype == np.float64)
        if fast:
            prod_buf, acc_buf = self._buffers()
        for lo, hi, s0, s1 in self._bounds():
            rows_k = rows[lo:hi]
            if fast:
                acc = acc_buf[:hi - lo]
                np.take(b, rows_k, out=acc)
                if s1 > s0:
                    prod = prod_buf[:s1 - s0]
                    np.take(x, gcols[s0:s1], out=prod)
                    np.multiply(prod, gvals[s0:s1], out=prod)
                    np.subtract(acc, np.bincount(seg_ids[s0:s1], prod,
                                                 minlength=hi - lo),
                                out=acc)
                if inv_diag is not None:
                    np.multiply(acc, inv_diag[lo:hi], out=acc)
                x[rows_k] = acc
                continue
            if s1 > s0:
                prod = gvals[s0:s1] * x[gcols[s0:s1]]
                acc = b[rows_k] - segment_sum_by_id(prod, seg_ids[s0:s1],
                                                    hi - lo)
            else:
                acc = b[rows_k].astype(dtype, copy=True)
            if inv_diag is not None:
                acc = acc * inv_diag[lo:hi]
            x[rows_k] = acc
        return x

    def _solve_block(self, b: np.ndarray, out: np.ndarray | None = None
                     ) -> np.ndarray:
        """Multi-RHS wavefront sweep over an ``(n, B)`` block.

        One batched segmented kernel per level.  The 2-D form of
        :func:`~repro.util.segment_sum_by_id` bins product ``(e, j)`` at
        ``row·B + j``, so each column is reduced with exactly the
        additions of the 1-D sweep and column ``j`` of the result
        reproduces ``solve(b[:, j])`` bitwise.
        """
        if b.shape[0] != self.n:
            raise ShapeError(f"b must have shape ({self.n}, B), "
                             f"got {b.shape}")
        dtype = np.result_type(self.dtype, b.dtype)
        x = out if out is not None else np.empty(b.shape, dtype=dtype)
        if x.shape != b.shape:
            raise ShapeError(f"out must have shape {b.shape}")
        rows, seg_ids = self._rows, self._seg_ids
        gcols, gvals = self._gather_cols, self._gather_vals
        inv_diag = self._sched_inv_diag
        for lo, hi, s0, s1 in self._bounds():
            rows_k = rows[lo:hi]
            if s1 > s0:
                prod = gvals[s0:s1, None] * x[gcols[s0:s1], :]
                acc = b[rows_k, :] - segment_sum_by_id(
                    prod, seg_ids[s0:s1], hi - lo)
            else:
                acc = b[rows_k, :].astype(dtype, copy=True)
            if inv_diag is not None:
                acc = acc * inv_diag[lo:hi, None]
            x[rows_k, :] = acc
        return x

    __call__ = solve

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ScheduledTriangularSolver(kind={self.kind!r}, n={self.n}, "
                f"levels={self.n_levels}, unit_diagonal={self.unit_diagonal})")


class PartitionedTriangularSolver:
    """Domain-decomposition triangular solver (arXiv 2508.04917 style).

    The inspector (:func:`repro.graph.partition.partition_rows`) fences
    the factor into ``P`` contiguous-row diagonal sub-triangles plus the
    off-diagonal coupling block ``C``; together the sub-triangles form
    the block diagonal ``D`` (``tri = D + C``).  No edge of ``D``
    crosses a fence, so its wavefront ``k`` is the union of every
    partition's wavefront ``k`` and one :class:`ScheduledTriangularSolver`
    over ``D`` sweeps all partitions at once — one vectorized
    super-level per wavefront.  :meth:`solve` computes ``x = D⁻¹ b``
    (round 0), then runs the block-Jacobi correction loop
    ``x = D⁻¹ (b − C x)``.  Partition *p* is exact after sweep
    ``depth[p]`` (its level in the condensed partition DAG) and an exact
    partition reproduces itself bitwise in later sweeps, so the loop
    runs exactly ``n_sweeps = max(depth)`` times and the result equals
    the sequential substitution — no approximation is involved.

    Modeled-cost shape: each sub-triangle runs in one thread block, so
    its internal level boundaries are block-local syncs; only the
    ``2·n_sweeps`` barriers around the coupling SpMVs are device-wide.
    Level scheduling pays ``n_levels − 1`` device barriers instead,
    which is why this engine wins exactly on deep-wavefront factors
    (``max_level ≫ n/P``) — the matrices sparsification helps least.

    Parameters
    ----------
    tri:
        Square triangular CSR matrix in canonical form.
    kind, unit_diagonal:
        As for :class:`ScheduledTriangularSolver`.
    n_parts:
        Requested partition count (clamped to ``[1, n]``); ignored when
        *partition* is given.
    partition:
        Optional precomputed :class:`~repro.graph.partition.RowPartition`.
    pivot_rtol:
        Relative pivot-rejection tolerance (``None`` = dtype eps),
        applied to ``D``'s diagonal — the factor's diagonal, so the
        threshold is relative to the *global* largest pivot.

    Notes
    -----
    With ``P = 1`` there is no coupling block and ``D`` is the whole
    factor, so :meth:`solve` is bitwise identical to
    :class:`ScheduledTriangularSolver` on the same input.
    """

    engine = "partitioned"

    def __init__(self, tri: CSRMatrix, *, kind: str = "lower",
                 unit_diagonal: bool = False, n_parts: int = 4,
                 partition: RowPartition | None = None,
                 pivot_rtol: float | None = _PIVOT_RTOL):
        if kind not in ("lower", "upper"):
            raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
        n = _check_square(tri)
        # Coupling entries are not in D, so D's own check cannot see them.
        rid = tri.row_ids()
        if np.any(tri.indices > rid if kind == "lower"
                  else tri.indices < rid):
            side = "above" if kind == "lower" else "below"
            raise NotTriangularError(f"entries {side} the diagonal")
        self.kind = kind
        self.unit_diagonal = bool(unit_diagonal)
        self.n = n
        self.dtype = tri.dtype
        part = (partition if partition is not None
                else partition_rows(tri, n_parts, kind=kind))
        if part.kind != kind:
            raise ValueError(f"partition was cut for kind={part.kind!r}, "
                             f"solver is {kind!r}")
        self.partition = part
        diag, self._coupling = split_fences(tri, part)
        self._diag = ScheduledTriangularSolver(diag, kind=kind,
                                               unit_diagonal=unit_diagonal,
                                               pivot_rtol=pivot_rtol)

    # ------------------------------------------------------------------
    @property
    def n_parts(self) -> int:
        return self.partition.n_parts

    @property
    def n_sweeps(self) -> int:
        """Correction sweeps per solve (exactness bound)."""
        return self.partition.n_sweeps

    @property
    def n_levels(self) -> int:
        """Longest sub-triangle wavefront chain (one round's depth)."""
        return self._diag.n_levels

    @property
    def n_exposed_syncs(self) -> int:
        """Device-wide barriers per solve: two per correction sweep
        (round done → coupling SpMV → refresh), none inside rounds."""
        return 2 * self.n_sweeps

    @property
    def nnz(self) -> int:
        """Off-diagonal + diagonal ops across all blocks per solve."""
        return self._diag.nnz + int(self._coupling.nnz)

    def kernel_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """As-if-concurrent per-level ``(rows, nnz)`` profile: ``D``'s.

        Level *k* of ``D`` aggregates level *k* of every partition.  This
        keeps generic consumers (experiment metrics, serving estimators)
        working; the engine-aware cost model prices the correction
        sweeps separately via :meth:`cost_args`.
        """
        return self._diag.kernel_profile()

    def cost_args(self) -> dict:
        """Keyword arguments for
        :func:`repro.machine.kernels.time_trisolve_partitioned`.

        ``profiles`` are the per-partition sweep profiles: partition
        *p*'s rows of ``D``'s level *k* are level *k* of its own
        sub-triangle, so grouping ``D``'s rows by (partition, level)
        recovers them without re-scheduling.
        """
        d, n_levels = self._diag, self._diag.n_levels
        key = (self.partition.part_of(d._rows) * n_levels
               + d.schedule.level_of[d._rows])
        size = self.n_parts * n_levels
        rows = np.bincount(key, minlength=size).reshape(-1, n_levels)
        ops = np.bincount(key, np.diff(d._seg_ptr) + 1, minlength=size)
        ops = ops.astype(np.int64).reshape(rows.shape)
        return {
            "profiles": [(rows[p, :k], ops[p, :k])
                         for p, k in enumerate((rows > 0).sum(axis=1))],
            "depth": self.partition.depth,
            "coupling_rows": self.partition.coupling_rows,
            "coupling_nnz": self.partition.coupling_nnz,
        }

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """Solve the triangular system for *b* (``(n,)`` or ``(n, B)``).

        Round 0 is ``x = D⁻¹ b``; each correction sweep computes one
        coupling product ``C x`` and refreshes every partition at once
        with ``x = D⁻¹ (b − C x)``.  The result matches the sequential
        substitution exactly (see the class docstring).  *out* must not
        alias *b*.
        """
        b = np.asarray(b)
        x = self._diag.solve(b, out=out)
        for _ in range(self.n_sweeps):
            c = (self._coupling.matvec(x) if x.ndim == 1
                 else self._coupling.matmat(x))
            self._diag.solve(b - c, out=x)
        return x

    __call__ = solve

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PartitionedTriangularSolver(kind={self.kind!r}, "
                f"n={self.n}, parts={self.n_parts}, "
                f"sweeps={self.n_sweeps}, "
                f"unit_diagonal={self.unit_diagonal})")
