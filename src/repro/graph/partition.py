"""Fenced row partitioning of a triangular factor — the inspector half
of the domain-decomposition SpTRSV executor.

Level scheduling is one point in the SpTRSV design space: it exposes
maximal row parallelism at the price of one device-wide barrier per
wavefront.  *Mapping Sparse Triangular Solves to GPUs via Fine-grained
Domain Decomposition* (arXiv 2508.04917) occupies another point: cut the
factor into ``P`` contiguous-row **diagonal sub-triangles**, each solved
independently by one thread block (intra-partition level boundaries are
block-local syncs, not device barriers), plus an off-diagonal
**coupling block** ``C`` holding every entry that crosses a fence.  A
block-Jacobi correction loop then repairs the cross-partition
dependences: sweep *s* refreshes every partition still downstream of an
inexact one with ``x_p = T_p⁻¹ (b_p − (C x)_p)``.

The loop terminates *exactly* (not approximately): partition *p* is
exact after sweep ``depth[p]``, where ``depth`` is the wavefront level
of *p* in the **condensed** P×P dependence DAG (partition *q* → *p*
whenever any entry of *tri* couples them).  That condensed schedule is
computed by running the existing :func:`~repro.graph.levels.level_schedule`
machinery on a P×P matrix with one nonzero per coupled partition pair —
the dependence-DAG inspector reused one level up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..sparse.csr import CSRMatrix
from ..sparse.ops import _extract
from .levels import level_profile, level_schedule

__all__ = [
    "RowPartition",
    "partition_rows",
    "split_fences",
    "split_partition",
    "partition_profiles",
]


@dataclass(frozen=True)
class RowPartition:
    """A fenced contiguous-row partition of a triangular matrix.

    Attributes
    ----------
    kind:
        ``"lower"`` or ``"upper"`` — the triangle the fences were cut
        for (determines the direction of the condensed DAG).
    fences:
        ``(P + 1,)`` row boundaries; partition *p* owns rows
        ``fences[p]:fences[p+1]`` (every partition is non-empty).
    depth:
        ``(P,)`` wavefront level of each partition in the condensed
        partition-dependence DAG.  Partition *p* is exact after
        correction sweep ``depth[p]``; ``n_sweeps = depth.max()``.
    coupling_nnz:
        Entries of the matrix that cross a fence (the nonzeros of the
        coupling block ``C``).
    coupling_rows:
        Rows with at least one coupling entry (the rows the correction
        SpMV actually touches — its utilization input).
    """

    kind: str
    fences: np.ndarray
    depth: np.ndarray
    coupling_nnz: int
    coupling_rows: int

    @property
    def n(self) -> int:
        """Matrix order the fences span."""
        return int(self.fences[-1])

    @property
    def n_parts(self) -> int:
        return int(self.fences.shape[0]) - 1

    @property
    def n_sweeps(self) -> int:
        """Correction sweeps until every partition is exact."""
        return int(self.depth.max(initial=0))

    def rows_of(self, p: int) -> tuple[int, int]:
        """Half-open row range ``[lo, hi)`` of partition *p*."""
        return int(self.fences[p]), int(self.fences[p + 1])

    def part_of(self, row_ids: np.ndarray) -> np.ndarray:
        """Partition index of each row in *row_ids*."""
        return np.searchsorted(self.fences, row_ids, side="right") - 1


def _balanced_fences(tri: CSRMatrix, n_parts: int) -> np.ndarray:
    """Contiguous fences balancing stored nonzeros across partitions.

    Each fence lands where the cumulative nonzero count crosses the next
    ``total/P`` target, then is repaired to keep every partition
    non-empty (at least one row) and the fences strictly increasing.
    """
    n = tri.n_rows
    p = max(1, min(int(n_parts), n))
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(tri.row_lengths(), out=cum[1:])
    targets = cum[-1] * np.arange(1, p, dtype=np.float64) / p
    inner = np.searchsorted(cum, targets, side="left").astype(np.int64)
    fences = np.empty(p + 1, dtype=np.int64)
    fences[0], fences[-1] = 0, n
    fences[1:-1] = inner
    # Repair: strictly increasing with ≥ 1 row per partition.
    for k in range(1, p):
        fences[k] = max(fences[k], fences[k - 1] + 1)
    for k in range(p - 1, 0, -1):
        fences[k] = min(fences[k], fences[k + 1] - 1)
    return fences


def partition_rows(tri: CSRMatrix, n_parts: int, *,
                   kind: str = "lower") -> RowPartition:
    """Inspect *tri* and build a :class:`RowPartition` of ``P`` fences.

    Fences are placed to balance stored nonzeros (the sub-triangle solve
    work); the requested ``n_parts`` is clamped to ``[1, n]``.  The
    condensed partition DAG is then level-scheduled to obtain the
    per-partition correction depths — the exact number of Jacobi sweeps
    each partition needs (see the module docstring).
    """
    if kind not in ("lower", "upper"):
        raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
    if tri.shape[0] != tri.shape[1]:
        raise ShapeError(f"partitioning requires a square matrix, "
                         f"got {tri.shape}")
    if n_parts < 1:
        raise ValueError(f"n_parts must be at least 1, got {n_parts}")
    n = tri.n_rows
    fences = _balanced_fences(tri, n_parts)
    p = fences.shape[0] - 1

    rid = np.repeat(np.arange(n, dtype=np.int64), tri.row_lengths())
    part = np.searchsorted(fences, rid, side="right") - 1
    cpart = np.searchsorted(fences, tri.indices, side="right") - 1
    cross = part != cpart
    coupling_nnz = int(np.count_nonzero(cross))
    coupling_rows = int(np.unique(rid[cross]).shape[0])

    if p == 1 or coupling_nnz == 0:
        depth = np.zeros(p, dtype=np.int64)
        return RowPartition(kind=kind, fences=fences, depth=depth,
                            coupling_nnz=coupling_nnz,
                            coupling_rows=coupling_rows)

    # Condensed P×P dependence matrix: one entry per coupled partition
    # pair, level-scheduled with the same machinery as the row-level DAG.
    pair = np.unique(part[cross] * p + cpart[cross])
    prow, pcol = pair // p, pair % p
    indptr = np.zeros(p + 1, dtype=np.int64)
    np.add.at(indptr, prow + 1, 1)
    np.cumsum(indptr, out=indptr)
    condensed = CSRMatrix(indptr, pcol.astype(np.int64),
                          np.ones(pair.shape[0], dtype=np.float64),
                          (p, p), check=False)
    depth = level_schedule(condensed, kind=kind).level_of.astype(np.int64)
    return RowPartition(kind=kind, fences=fences, depth=depth,
                        coupling_nnz=coupling_nnz,
                        coupling_rows=coupling_rows)


def split_fences(tri: CSRMatrix, part: RowPartition
                 ) -> tuple[CSRMatrix, CSRMatrix]:
    """Split *tri* into its block diagonal ``D`` and coupling block ``C``.

    Both are n×n with **global** indices: ``D`` keeps every entry whose
    row and column lie in the same partition, ``C`` every entry that
    crosses a fence, and ``D + C = tri``.  ``D`` has no edge between
    partitions, so its wavefront ``k`` is the union of every
    partition's wavefront ``k``.  Entry order is preserved, so both are
    canonical whenever *tri* is.
    """
    if part.n != tri.n_rows:
        raise ShapeError("partition order does not match the matrix")
    same = part.part_of(tri.row_ids()) == part.part_of(tri.indices)
    return _extract(tri, same), _extract(tri, ~same)


def split_partition(tri: CSRMatrix, part: RowPartition
                    ) -> tuple[list[CSRMatrix], CSRMatrix]:
    """Split *tri* into per-partition diagonal blocks + the coupling block.

    Returns ``(subs, coupling)`` where ``subs[p]`` is the diagonal
    sub-triangle of partition *p* with **local** indices (shape
    ``(rows_p, rows_p)``) and ``coupling`` is the n×n block of every
    fence-crossing entry with **global** indices (see
    :func:`split_fences`).
    """
    diag, coupling = split_fences(tri, part)
    subs: list[CSRMatrix] = []
    for p in range(part.n_parts):
        lo, hi = part.rows_of(p)
        s0, s1 = int(diag.indptr[lo]), int(diag.indptr[hi])
        subs.append(CSRMatrix(diag.indptr[lo:hi + 1] - s0,
                              diag.indices[s0:s1] - lo, diag.data[s0:s1],
                              (hi - lo, hi - lo), check=False))
    return subs, coupling


def partition_profiles(tri: CSRMatrix, part: RowPartition
                       ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-partition ``(rows_per_level, nnz_per_level)`` kernel profiles.

    Pattern-only: level-schedules each diagonal sub-triangle and profiles
    it with :func:`~repro.graph.levels.level_profile`.  Used by the
    cost-model planner without constructing executors.
    """
    subs, _ = split_partition(tri, part)
    return [level_profile(sub, level_schedule(sub, kind=part.kind),
                          part.kind) for sub in subs]
