"""Exhaustive Search (ExS) — Algorithm 1 of the paper.

Embed the query, compare it against *every* attribute-value vector of
every relation, average per relation, sort, threshold, top-k.  As Sec
5.3 observes, averaging over all attributes dilutes relevance on
focused queries.

Under the paper's mean aggregation that average is linear in the value
vectors: ``Σᵢ wᵢ (v̂ᵢ · q̂) = (Σᵢ wᵢ v̂ᵢ) · q̂`` with ``wᵢ = countᵢ /
n_cells``.  The exhaustive scan therefore *is* one dot product per
relation with its count-weighted centroid
(:func:`~repro.core.semimg.relation_centroids`): ExS keeps one float64
``(R, d)`` centroid matrix and scores it with the row-wise kernel
:func:`repro.linalg.rowwise_scores`, which computes each score from its
own centroid and query alone — so a score has the same bits whatever
the batch, delta history or row position (see DESIGN.md), and
``search(q)`` is ``search_batch([q])[0]``.  Algorithm 1's per-value
loop survives in ``benchmarks/`` as the paper-cost measurement.

The ``max_mean`` ablation is not linear and keeps every value vector:
one stacked ``(n_total, dim)`` matrix, one GEMM against the query block
and a segmented partition over per-relation row blocks.

Either way the scan state is one matrix over the whole federation,
holding a contiguous block of rows per relation (a single centroid row
under ``mean``); ``DiscoveryEngine(shards=...)`` never splits it.
Federation deltas patch it in place — retired blocks are masked out,
fresh blocks appended — so absorbing a delta never recomputes untouched
relations.  Every scan only *fills* a ``(R, Q)`` score matrix;
:meth:`ExhaustiveSearch.rank_scores` thresholds it with a mask, selects
tie-inclusively and builds ``RelationMatch`` objects for the ≤ k
winners per query alone.  The scan runs in the calling process on
every execution backend.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.base import SearchMethod
from repro.core.results import RelationMatch
from repro.core.semimg import RelationEmbedding, relation_centroids
from repro.linalg import ArrayBuffer, SharedBuffer, scan_scores, top_k_mask
from repro.sanitize import guard_operands

__all__ = ["ExhaustiveSearch", "ScanSpec"]


@dataclass(frozen=True)
class ScanSpec:
    """ExS's scan state as plain arrays, for replaying the scan outside
    the method: the scan matrix, the start row of each relation's block
    and one unit weight per row.  ``aggregate`` and ``top_fraction`` are
    :func:`repro.linalg.segment_scores`'s keywords, so a replay can pass
    every field straight through."""

    matrix: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    aggregate: str = "mean"
    top_fraction: float = 0.1


class ExhaustiveSearch(SearchMethod):
    """Brute-force value-level semantic matching.

    Parameters
    ----------
    aggregate:
        ``"mean"`` (the paper's average over all attribute scores) or
        ``"max_mean"`` — the mean of each relation's ``top_fraction``
        best scores, an ablation knob for the dilution effect.
    top_fraction:
        Only used by ``"max_mean"``.
    dtype:
        The precision queries are quantised to before scoring, and the
        storage dtype of the value matrix ``max_mean`` stacks (float32,
        the encoder's native precision, halves its memory).  ``mean``
        centroids are float64 in both modes.
    shared_buffers:
        Store the ``max_mean`` value matrix in a named shared-memory
        segment (:class:`~repro.linalg.SharedBuffer`) instead of
        private memory; :meth:`close` unlinks it.  An engine running a
        :class:`~repro.exec.ProcessBackend` turns this on.  The scan
        itself runs in this process either way.
    """

    name = "exs"

    def __init__(
        self,
        aggregate: str = "mean",
        top_fraction: float = 0.1,
        dtype: "str | np.dtype[Any] | type" = np.float32,
        shared_buffers: bool = False,
    ):
        super().__init__()
        if aggregate not in ("mean", "max_mean"):
            raise ValueError("aggregate must be 'mean' or 'max_mean'")
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        self.aggregate = aggregate
        self.top_fraction = top_fraction
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        self.shared_buffers = shared_buffers and aggregate == "max_mean"
        self._matrix: np.ndarray | None = None
        self._buffer: ArrayBuffer | None = None
        self._block_ids: list[str] = []
        self._block_sizes: list[int] = []
        self._block_cells: dict[str, int] = {}
        #: Start row of each relation's block in the scan matrix.
        self._offsets: np.ndarray = np.empty(0, dtype=np.intp)

    def index_bytes(self) -> int:
        """Resident bytes of the scan matrix."""
        return int(self._matrix.nbytes) if self._matrix is not None else 0

    def _scan_rows(self, relations: Sequence[RelationEmbedding]) -> np.ndarray:
        """The scan-matrix rows of ``relations``, in order: one centroid
        each under ``mean``, every value vector under ``max_mean``."""
        if self.aggregate == "mean":
            return relation_centroids(relations)
        return np.vstack([r.vectors for r in relations]).astype(self.dtype, copy=False)

    def _block_size(self, relation: RelationEmbedding) -> int:
        return 1 if self.aggregate == "mean" else relation.n_unique

    def _store_matrix(self, stacked: np.ndarray) -> None:
        """Publish ``stacked`` as the scan matrix.

        In ``shared_buffers`` mode the rows are copied into a fresh
        named segment and the previous segment is released *after* the
        swap — deltas run under the engine's writer lock, so no scan
        can be reading the old buffer.
        """
        if not self.shared_buffers:
            self._matrix = stacked
            return
        old, self._buffer = self._buffer, SharedBuffer.from_array(stacked)
        self._matrix = self._buffer.array
        if old is not None:
            old.close()

    def _build(self) -> None:
        relations = self.embeddings.relations
        if self.aggregate == "mean":
            self._store_matrix(self.embeddings.centroids())
        else:
            self._store_matrix(self._scan_rows(relations))
        self._block_ids = [r.relation_id for r in relations]
        self._block_sizes = [self._block_size(r) for r in relations]
        self._block_cells = {r.relation_id: r.n_cells for r in relations}
        self._refresh_offsets()

    def _refresh_offsets(self) -> None:
        """Recompute the block start rows after a layout change."""
        sizes = np.asarray(self._block_sizes, dtype=np.intp)
        self._offsets = np.concatenate(
            [np.zeros(1, dtype=np.intp), np.cumsum(sizes)[:-1]]
        )

    def _apply_delta(
        self,
        added: list[RelationEmbedding],
        updated: list[RelationEmbedding],
        removed: list[str],
    ) -> None:
        """Patch the scan matrix: mask out retired blocks, append fresh
        ones.  Untouched rows are moved, never recomputed, and fresh
        rows come from the same :meth:`_scan_rows` a build uses.  The
        final layout is published once through :meth:`_store_matrix`,
        so shared-buffer mode swaps segments exactly once per delta."""
        assert self._matrix is not None
        matrix = self._matrix
        drop = set(removed) | {r.relation_id for r in updated}
        if drop:
            keep = np.ones(matrix.shape[0], dtype=bool)
            kept_ids: list[str] = []
            kept_sizes: list[int] = []
            start = 0
            for rid, size in zip(self._block_ids, self._block_sizes):
                if rid in drop:
                    keep[start : start + size] = False
                    self._block_cells.pop(rid, None)
                else:
                    kept_ids.append(rid)
                    kept_sizes.append(size)
                start += size
            matrix = matrix[keep]
            self._block_ids = kept_ids
            self._block_sizes = kept_sizes
        fresh = updated + added
        if fresh:
            matrix = np.vstack([matrix, self._scan_rows(fresh)])
            for rel in fresh:
                self._block_ids.append(rel.relation_id)
                self._block_sizes.append(self._block_size(rel))
                self._block_cells[rel.relation_id] = rel.n_cells
        if drop or fresh:
            self._store_matrix(matrix)
        self._refresh_offsets()

    def _match(self, relation_id: str, score: float) -> RelationMatch:
        """The one place an ExS score becomes a result object."""
        return RelationMatch(
            relation_id=relation_id,
            score=score,
            details={"n_values": self._block_cells[relation_id]},
        )

    def rank_scores(self, scores: np.ndarray, k: int, h: float) -> list[list[RelationMatch]]:
        """Algorithm 1's "sort, threshold, top-k" over a ``(R, Q)`` score
        matrix covering every relation, one ranked list per query.

        Thresholding is a mask (``NaN >= h`` is false, so NaN scores
        drop out), selection is tie-inclusive, and only the surviving
        candidates — k per query unless a tie straddles the k-th place —
        are sorted by the paper's ``(-score, relation_id)`` and turned
        into :class:`RelationMatch` objects.
        """
        with self.metrics.timer(f"{self.name}.rank"):
            by_query = scores.T
            keep = top_k_mask(by_query, k) & (by_query >= h)
            ranked: list[list[RelationMatch]] = []
            for column, mask in zip(by_query, keep):
                rows = np.flatnonzero(mask)
                winners = sorted(
                    zip(column[rows].tolist(), (self._block_ids[r] for r in rows.tolist())),
                    key=lambda pair: (-pair[0], pair[1]),
                )
                ranked.append([self._match(rid, score) for score, rid in winners[:k]])
            return ranked

    def matches_from_scores(self, scores: np.ndarray) -> list[list[RelationMatch]]:
        """Every row of a ``(R, Q)`` score matrix as a match, unranked.

        The serving path never builds this list (it ranks the matrix
        and emits winners only); the perf ledger's per-layer replay
        times it as the cost of emitting everything.
        """
        return [
            [self._match(rid, score) for rid, score in zip(self._block_ids, column)]
            for column in scores.T.tolist()
        ]

    # -- the scan --------------------------------------------------------------

    def _encode_block(self, queries: Sequence[str]) -> np.ndarray:
        """The ``(Q, d)`` encoded query vectors, quantised to ``dtype``."""
        with self.metrics.timer(f"{self.name}.encode"):
            block = np.stack([self.embeddings.encode_query(q) for q in queries])
        return block.astype(self.dtype, copy=False)

    def _scan(self, query_block: np.ndarray) -> np.ndarray:
        """The ``(R, Q)`` score matrix of an encoded query block, from
        :func:`repro.linalg.scan_scores`."""
        assert self._matrix is not None
        with self.metrics.timer(f"{self.name}.scan"):
            if self.sanitize:
                where = f"{self.name}._scan"
                matrix_dtype = np.dtype(np.float64) if self.aggregate == "mean" else self.dtype
                guard_operands(self._matrix, where=where, expect_dtype=matrix_dtype)
                guard_operands(query_block, where=where, expect_dtype=self.dtype)
            if self.aggregate == "max_mean":
                self.metrics.counter(f"{self.name}.fused_rows").inc(
                    self._matrix.shape[0] * query_block.shape[0]
                )
            return scan_scores(
                self._matrix,
                query_block,
                self._offsets,
                aggregate=self.aggregate,
                top_fraction=self.top_fraction,
            )

    # -- the rank contract ---------------------------------------------------

    def _top_k(self, query: str, k: int, h: float) -> list[RelationMatch]:
        # One query is a batch of one: same encode, same kernel, same bits.
        return self._top_k_batch([query], k, h)[0]

    def _top_k_batch(
        self, queries: Sequence[str], k: int, h: float, workers: int = 1
    ) -> list[list[RelationMatch]]:
        # One kernel call scans every relation, so ``workers`` has
        # nothing to fan out here.
        return self.rank_scores(self._scan(self._encode_block(queries)), k, h)

    def scan_spec(self) -> ScanSpec | None:
        """The scan state for replaying the scan outside the method (the
        perf ledger's per-layer probe): the scan matrix with its block
        offsets and unit per-row weights (under ``mean``, one centroid
        row and one offset per relation)."""
        if self._matrix is None:
            return None
        return ScanSpec(
            matrix=self._matrix,
            offsets=self._offsets,
            weights=np.ones(self._matrix.shape[0], dtype=self._matrix.dtype),
            aggregate=self.aggregate,
            top_fraction=self.top_fraction,
        )

    def close(self) -> None:
        super().close()
        buffer, self._buffer = self._buffer, None
        self._matrix = None
        if buffer is not None:
            buffer.close()
