"""The ExS scan kernels: row-wise scores and segment reductions.

Under the paper's mean aggregation ExS scans one count-weighted
centroid per relation, scored by :func:`rowwise_scores`; the
``max_mean`` ablation scans every value vector with one GEMM and turns
the ``(rows, Q)`` similarity slab into per-relation scores with
:func:`segment_scores`.  :func:`scan_scores` picks between the two.

They live here in ``repro.linalg`` — below both ``repro.core`` and
``repro.exec`` — because the exact same code must also run inside shard
worker processes, which hold only the scan matrix and its block offsets
(never the ``ExhaustiveSearch`` object).  Sharing one function is what
keeps parent-side and worker-side scores bitwise identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rowwise_scores", "scan_scores", "segment_scores"]


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
    """Per-relation scores of a fused ``(rows, Q)`` similarity slab.

    ``offsets`` holds the start row of each relation block (the
    ``np.add.reduceat`` offsets).

    ``mean``: one segment reduction of the similarities weighted by the
    per-row ``weights`` (float64, so the reduction upcasts float32 sims
    and the normalization stays exact).  ``max_mean``: a segmented
    partition — only the per-segment top-fraction selection walks the
    blocks; it takes no weights.
    """
    if aggregate == "mean":
        if weights is None:
            raise ValueError("mean aggregation needs per-row weights")
        return np.add.reduceat(sims * weights[:, np.newaxis], offsets, axis=0)
    if aggregate != "max_mean":
        raise ValueError(f"unknown aggregate {aggregate!r}")
    bounds = np.append(offsets, sims.shape[0])
    # repro-lint: disable=RL003 -- deliberate float64 accumulator for segment means
    scores = np.empty((len(offsets), sims.shape[1]), dtype=np.float64)
    for i in range(len(offsets)):
        seg = sims[bounds[i] : bounds[i + 1]]
        keep = max(1, int(np.ceil(top_fraction * seg.shape[0])))
        top = np.partition(seg, seg.shape[0] - keep, axis=0)
        scores[i] = top[seg.shape[0] - keep :].mean(axis=0)
    return scores


def scan_scores(
    matrix: np.ndarray,
    query_block: np.ndarray,
    offsets: np.ndarray,
    aggregate: str = "mean",
    top_fraction: float = 0.1,
) -> np.ndarray:
    """The ``(R, Q)`` ExS score matrix of a query block.

    ``mean``: ``matrix`` holds one count-weighted centroid per relation
    and the score is its row-wise dot product with the query.
    ``max_mean``: ``matrix`` stacks every value vector in relation
    blocks starting at ``offsets``; one GEMM, then a segmented
    partition.
    """
    if aggregate == "mean":
        return rowwise_scores(matrix, query_block)
    return segment_scores(
        matrix @ query_block.T, offsets, aggregate=aggregate, top_fraction=top_fraction
    )
