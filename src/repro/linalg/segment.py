"""The ExS scan kernels: row-wise scores and segment reductions.

ExS scans one count-weighted centroid per relation, scored by
:func:`rowwise_scores`.  :func:`segment_scores` reduces a ``(rows, Q)``
similarity slab over relation blocks; the perf ledger's per-layer
replay runs it on ExS's :meth:`~repro.core.ExhaustiveSearch.scan_spec`.

They live here in ``repro.linalg`` — below both ``repro.core`` and
``repro.exec`` — because the exact same code must also run inside shard
worker processes, which hold only the scan matrix (never the
``ExhaustiveSearch`` object).  Sharing one function is what keeps
parent-side and worker-side scores bitwise identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rowwise_scores", "segment_scores"]


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
