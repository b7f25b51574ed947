"""The ExS scan kernels: the GEMM bound, row-wise scores and segment
reductions.

ExS scans one count-weighted centroid per relation: one GEMM bounds
every score (:func:`gemm_candidates`), and :func:`rowwise_scores`
scores the survivors exactly.  :func:`segment_scores` reduces a ``(rows, Q)``
similarity slab over relation blocks; the perf ledger's per-layer
replay runs it on ExS's :meth:`~repro.core.ExhaustiveSearch.scan_spec`.

They live here in ``repro.linalg``, below ``repro.core``, so that a
replay or a test holding only the scan matrix (never the
``ExhaustiveSearch`` object) runs the very function ExS runs, and gets
the same bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gemm_candidates", "rowwise_scores", "segment_scores"]


def gemm_candidates(
    rows: np.ndarray, queries: np.ndarray, k: int, h: float, max_row_norm: float
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(query, row)`` pairs that may be among a query's ``k`` best
    :func:`rowwise_scores` at or above ``h``, in query-major order.

    One GEMM ``G = Q·Cᵀ`` scores every pair; its bits are never
    returned.  Any two summation orders of a length-``d`` dot product,
    FMA included, differ by at most ``ε = 2·γ·‖c‖·‖q‖`` with
    ``γ = n·u / (1 - n·u)``, so a pair is kept if ``G >= kth - 2ε`` and
    ``G >= h - ε``, where ``kth`` is the query's k-th best ``G`` and
    ``max_row_norm`` bounds every ``‖c‖``.  ``n = d + 2``
    rather than ``d`` pads ``ε`` by the rounding of the norms and of the
    two cuts; the last term covers underflow (DESIGN.md derives both).
    Every true top-k member, ties included, survives; so may a few
    others, which the caller's exact re-scoring drops.
    """
    if k <= 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    # ``-G`` straight from a GEMM of the negated queries (the bound holds
    # for any summation order), so NaN, which sorts last, ranks worst.
    negated = np.negative(queries, dtype=rows.dtype)
    keys = negated @ rows.T
    info = np.finfo(rows.dtype)
    n = rows.shape[1] + 2
    gamma = n * float(info.eps) / 2.0 / (1.0 - n * float(info.eps) / 2.0)
    query_norms = np.sqrt(np.einsum("qd,qd->q", negated, negated))
    eps = 2.0 * gamma * max_row_norm * query_norms + 2.0 * n * float(info.smallest_subnormal)
    ceiling = eps - h  # -G <= eps - h  <=>  G >= h - eps
    n_rows = rows.shape[0]
    if k < n_rows:
        # A NaN k-th means fewer than k comparable scores: fmin drops the k-cut.
        kth = np.partition(keys, k - 1, axis=1)[:, k - 1]
        ceiling = np.fmin(ceiling, kth + 2.0 * eps)
    # One flat nonzero is much faster than a 2-D one, and query-major.
    return np.divmod(np.flatnonzero(keys <= ceiling[:, np.newaxis]), n_rows)


def rowwise_scores(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The ``(R, Q)`` dot products of every row with every query.

    Each entry is reduced from its own row and query alone, so its bits
    do not depend on the row's position, its address, the matrix height
    or the number of queries — unlike a BLAS GEMM/GEMV, whose blocking
    changes the summation order with all four.  Queries are cast to the
    rows' dtype first.  (``np.vecdot`` would do the same but needs
    numpy >= 2.0.)
    """
    return np.einsum("rd,qd->rq", rows, queries.astype(rows.dtype, copy=False))


def segment_scores(
    sims: np.ndarray,
    offsets: np.ndarray,
    weights: np.ndarray | None = None,
    aggregate: str = "mean",
    top_fraction: float = 0.1,
) -> np.ndarray:
    """Per-relation scores of a ``(rows, Q)`` similarity slab: one
    segment reduction of the similarities weighted by the per-row
    ``weights`` (float64, so the reduction upcasts float32 sims and the
    normalization stays exact).

    ``offsets`` holds the start row of each relation block (the
    ``np.add.reduceat`` offsets).  ``aggregate`` must be ``"mean"``;
    ``top_fraction`` is accepted and ignored, so a
    :class:`~repro.core.exhaustive.ScanSpec` replay can pass every field
    through.
    """
    if aggregate != "mean":
        raise ValueError(f"unknown aggregate {aggregate!r}")
    if weights is None:
        raise ValueError("mean aggregation needs per-row weights")
    return np.add.reduceat(sims * weights[:, np.newaxis], offsets, axis=0)
