"""Exhaustive Search (ExS) — Algorithm 1 of the paper.

Embed the query, compare it against *every* attribute-value vector of
every relation, average per relation, sort, threshold, top-k.  Accurate
but linear in the total number of values — and, as Sec 5.3 observes,
averaging over all attributes dilutes relevance on focused queries.

The scan state is one stacked ``(n_total, dim)`` matrix plus per-block
bookkeeping (which contiguous row block belongs to which relation).
Federation deltas patch those arrays in place — removed/updated blocks
are masked out, fresh blocks appended — so absorbing a delta never
re-embeds or re-stacks untouched relations.

The serving kernel is *fused*: instead of one small GEMM per relation
(O(#relations) Python dispatch per query block), the whole stacked
matrix is multiplied against the query block in one GEMM and the
per-relation means fall out of a single ``np.add.reduceat`` segment
reduction over precomputed block offsets, with the count weights
pre-folded into a per-row weight vector at build/delta time.  The
``max_mean`` ablation takes a segmented-partition path over the same
fused similarity matrix.

Every scan — fused, per-block reference, per-attribute loop — only
*fills* a ``(R, Q)`` score matrix; :meth:`ExhaustiveSearch.rank_scores`
thresholds it with a mask, selects tie-inclusively and builds
``RelationMatch`` objects for the ≤ k winners per query alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.base import SearchMethod, even_chunks
from repro.core.results import RelationMatch
from repro.core.semimg import RelationEmbedding
from repro.exec import ShardScanSpec
from repro.linalg import ArrayBuffer, SharedBuffer, segment_scores, top_k_mask
from repro.sanitize import guard_operands

__all__ = ["ExhaustiveSearch"]


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
    vectorized:
        Algorithm 1 computes "the similarity score s between q' and
        each attribute vector" one attribute at a time; the default
        mirrors that per-attribute loop (and its cost profile — ExS is
        the paper's slowest method by an order of magnitude).  Set
        True to serve single queries through the fused matrix kernel.
    fused:
        Whether :meth:`search_batch` scans with the fused
        federation-wide kernel (one GEMM over the whole stacked matrix
        plus a segment reduction).  ``False`` falls back to the legacy
        per-relation GEMM loop — kept as the reference implementation
        for rank-identity tests and the fused-vs-per-block benchmark.
    dtype:
        Storage/compute dtype of the stacked matrix.  ``float32`` (the
        encoder's native precision) halves memory and bandwidth;
        ``float64`` is the compat mode matching the historical
        upcast-everything behavior.  Aggregation weights stay float64
        in both modes so segment means lose no precision beyond the
        similarity dtype itself.
    shared_buffers:
        Store the stacked matrix in a named shared-memory segment
        (:class:`~repro.linalg.SharedBuffer`) so process-backend shard
        workers can map the same bytes zero-copy.  An engine running a
        :class:`~repro.exec.ProcessBackend` turns this on; the default
        keeps the matrix an ordinary ndarray.
    """

    name = "exs"

    def __init__(
        self,
        aggregate: str = "mean",
        top_fraction: float = 0.1,
        vectorized: bool = False,
        fused: bool = True,
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
        self.vectorized = vectorized
        self.fused = fused
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        self.shared_buffers = shared_buffers
        self._matrix: np.ndarray | None = None
        self._buffer: ArrayBuffer | None = None
        self._counts: np.ndarray | None = None
        self._block_ids: list[str] = []
        self._block_sizes: list[int] = []
        self._block_cells: dict[str, int] = {}
        #: Start row of each stacked block (``np.add.reduceat`` offsets).
        self._offsets: np.ndarray = np.empty(0, dtype=np.intp)
        #: Per-row weight = count / block count-sum, so a segment sum of
        #: ``weight * sim`` IS the multiplicity-weighted block mean.
        # repro-lint: disable=RL003 -- deliberate float64 accumulator: weights stay exact regardless of storage dtype
        self._row_weights: np.ndarray = np.empty(0, dtype=np.float64)

    def index_bytes(self) -> int:
        """Resident bytes of the stacked vector matrix."""
        return int(self._matrix.nbytes) if self._matrix is not None else 0

    def _store_matrix(self, stacked: np.ndarray) -> None:
        """Publish ``stacked`` as the scan matrix.

        In ``shared_buffers`` mode the rows are copied into a fresh
        named segment and the previous segment is released *after* the
        swap — deltas run under the engine's writer lock, so no inline
        scan can be reading the old buffer, and worker processes hold
        their own mapping until the re-publish replaces it.
        """
        stacked = stacked.astype(self.dtype, copy=False)
        if not self.shared_buffers:
            # A previously adopted snapshot backing is stale once the
            # layout changed; drop our reference along with the swap.
            old, self._buffer = self._buffer, None
            self._matrix = stacked
            if old is not None:
                old.close()
            return
        old, self._buffer = self._buffer, SharedBuffer.from_array(stacked)
        self._matrix = self._buffer.array
        if old is not None:
            old.close()

    def _adopt_backing(self) -> bool:
        """Serve directly off the store's snapshot backing when possible.

        A store materialized from a segment snapshot already holds the
        stacked matrix — eagerly or as a read-only mapping — so
        re-stacking it would copy every byte for nothing.  Adoption
        needs the dtypes to agree and, in ``shared_buffers`` mode, a
        cross-process :meth:`~repro.linalg.ArrayBuffer.spec` (a mapped
        file qualifies: workers map the same segment and no
        ``shared_memory`` is allocated at all).  An eager process-local
        backing under a process backend falls back to the copy path so
        workers still get a shareable segment.
        """
        backing = self.embeddings.stack_buffer()
        if backing is None or backing.array.dtype != self.dtype:
            return False
        if self.shared_buffers and backing.spec() is None:
            return False
        old, self._buffer = self._buffer, backing.addref()
        self._matrix = backing.array
        if old is not None:
            old.close()
        return True

    def _build(self) -> None:
        # Stack every relation's vectors once; queries scan the blocks.
        relations = self.embeddings.relations
        if not self._adopt_backing():
            self._store_matrix(np.vstack([r.vectors for r in relations]))
        self._counts = np.concatenate([r.counts for r in relations])
        self._block_ids = [r.relation_id for r in relations]
        self._block_sizes = [r.n_unique for r in relations]
        self._block_cells = {r.relation_id: r.n_cells for r in relations}
        self._refresh_segments()

    def _refresh_segments(self) -> None:
        """Recompute the reduceat offsets and pre-folded mean weights.

        Called whenever the stacked layout changes (build or delta).
        Weights are float64 regardless of the storage dtype: they cost
        8 bytes/row but keep the segment reduction's normalization
        exact, so float32 mode loses precision only where the GEMM
        already did.
        """
        assert self._counts is not None
        sizes = np.asarray(self._block_sizes, dtype=np.intp)
        self._offsets = np.concatenate(
            [np.zeros(1, dtype=np.intp), np.cumsum(sizes)[:-1]]
        )
        # repro-lint: disable=RL003 -- deliberate float64 accumulator (exact normalization, see docstring)
        counts = self._counts.astype(np.float64)
        if counts.size:
            totals = np.add.reduceat(counts, self._offsets)
            self._row_weights = counts / np.repeat(totals, sizes)
        else:
            # repro-lint: disable=RL003 -- deliberate float64 accumulator (empty weight vector)
            self._row_weights = np.empty(0, dtype=np.float64)

    def _apply_delta(
        self,
        added: list[RelationEmbedding],
        updated: list[RelationEmbedding],
        removed: list[str],
    ) -> None:
        """Patch the stacked matrix: mask out retired blocks, append
        fresh ones.  Untouched rows are moved, never recomputed.  The
        final layout is published once through :meth:`_store_matrix`,
        so shared-buffer mode swaps segments exactly once per delta."""
        assert self._matrix is not None and self._counts is not None
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
            self._counts = self._counts[keep]
            self._block_ids = kept_ids
            self._block_sizes = kept_sizes
        fresh = updated + added
        if fresh:
            matrix = np.vstack(
                [matrix] + [r.vectors.astype(self.dtype, copy=False) for r in fresh]
            )
            self._counts = np.concatenate([self._counts] + [r.counts for r in fresh])
            for rel in fresh:
                self._block_ids.append(rel.relation_id)
                self._block_sizes.append(rel.n_unique)
                self._block_cells[rel.relation_id] = rel.n_cells
        if drop or fresh:
            self._store_matrix(matrix)
        self._refresh_segments()

    def _blocks(self) -> list[tuple[str, int, int]]:
        """(relation_id, start_row, stop_row) per stacked block."""
        out: list[tuple[str, int, int]] = []
        start = 0
        for rid, size in zip(self._block_ids, self._block_sizes):
            out.append((rid, start, start + size))
            start += size
        return out

    def _aggregate_block(self, sims: np.ndarray, counts: np.ndarray) -> Any:
        """One relation's score from its ``(n_unique,)`` similarities to
        a query — or ``(Q,)`` scores from ``(n_unique, Q)``."""
        if self.aggregate == "mean":
            # Multiplicity-weighted mean == mean over all occurrences.
            return np.average(sims, weights=counts, axis=0)
        keep = max(1, int(np.ceil(self.top_fraction * sims.shape[0])))
        top = np.partition(sims, sims.shape[0] - keep, axis=0)
        return top[sims.shape[0] - keep :].mean(axis=0)

    def _encode_query(self, query: str) -> np.ndarray:
        with self.metrics.timer(f"{self.name}.encode"):
            return self.embeddings.encode_query(query).astype(self.dtype, copy=False)

    def _match(self, relation_id: str, score: float) -> RelationMatch:
        """The one place an ExS score becomes a result object."""
        return RelationMatch(
            relation_id=relation_id,
            score=score,
            details={"n_values": self._block_cells[relation_id]},
        )

    def rank_scores(self, scores: np.ndarray, k: int, h: float) -> list[list[RelationMatch]]:
        """Algorithm 1's "sort, threshold, top-k" over a ``(R, Q)`` score
        matrix covering every stacked block, one ranked list per query.

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

    # -- three ways of filling the score matrix ------------------------------

    def _scan_attributes(self, q: np.ndarray) -> np.ndarray:
        """Algorithm 1 verbatim — "foreach Attribute v in r: compute the
        similarity score s between q' and w" — as one ``(R, 1)`` column.
        Unlike a GEMM's, these scores do not depend on where a
        relation's rows sit in the stacked matrix (see DESIGN.md)."""
        assert self._matrix is not None and self._counts is not None
        blocks = self._blocks()
        # repro-lint: disable=RL003 -- deliberate float64 accumulator: the loop's scores stay float64 until ranked
        scores = np.empty((len(blocks), 1), dtype=np.float64)
        with self.metrics.timer(f"{self.name}.scan"):
            for r, (_, start, stop) in enumerate(blocks):
                block = self._matrix[start:stop]
                sims = np.fromiter(
                    (float(np.dot(block[i], q)) for i in range(block.shape[0])),
                    # repro-lint: disable=RL003 -- per-attribute loop accumulates in float64 by design
                    dtype=np.float64,
                    count=block.shape[0],
                )
                scores[r, 0] = self._aggregate_block(sims, self._counts[start:stop])
        return scores

    def _encode_block(self, queries: Sequence[str]) -> np.ndarray:
        """The ``(Q, d)`` matrix of encoded query vectors."""
        with self.metrics.timer(f"{self.name}.encode"):
            block = np.stack([self.embeddings.encode_query(q) for q in queries])
        return block.astype(self.dtype, copy=False)

    def _segment_scores(
        self, sims: np.ndarray, offsets: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Per-relation scores of a fused ``(rows, Q)`` similarity slab.

        ``mean``: one segment reduction of the weight-folded similarities
        (weights are float64, so the reduction upcasts float32 sims and
        the normalization is exact).  ``max_mean``: a segmented
        partition — the GEMM is already fused, only the per-segment
        top-fraction selection walks the blocks.

        Delegates to :func:`repro.linalg.segment_scores` — the very
        kernel process-backend shard workers run — so worker scores are
        bitwise identical to this inline path.
        """
        return segment_scores(
            sims,
            offsets,
            weights,
            aggregate=self.aggregate,
            top_fraction=self.top_fraction,
        )

    def _scan_fused(
        self,
        query_block: np.ndarray,
        block_range: range | None = None,
    ) -> np.ndarray:
        """Fused scan: one GEMM over (a row range of) the stacked matrix.

        ``block_range`` restricts the scan to a contiguous range of
        relation blocks — the unit the parallel path chunks by, mapped
        to a row range so workers slice the matrix instead of looping
        relation lists.
        """
        assert self._matrix is not None
        if block_range is None:
            block_range = range(len(self._block_ids))
        row_start = int(self._offsets[block_range.start])
        row_stop = (
            int(self._offsets[block_range.stop])
            if block_range.stop < len(self._block_ids)
            else self._matrix.shape[0]
        )
        offsets = self._offsets[block_range.start : block_range.stop] - row_start
        with self.metrics.timer(f"{self.name}.scan"):
            rows = self._matrix[row_start:row_stop]
            if self.sanitize:
                guard_operands(
                    rows,
                    query_block,
                    where=f"{self.name}._scan_fused",
                    expect_dtype=self.dtype,
                )
            sims = rows @ query_block.T  # (rows, Q), one GEMM
            self.metrics.counter(f"{self.name}.fused_rows").inc(
                rows.shape[0] * query_block.shape[0]
            )
            return self._segment_scores(
                sims, offsets, self._row_weights[row_start:row_stop]
            )

    def _scan_blocks(self, query_block: np.ndarray, block_range: range) -> np.ndarray:
        """Reference scan (``fused=False``): one per-relation GEMM at a
        time.  Rank-identity tests pin the fused kernel against it and
        the benchmark measures what the fusion buys."""
        assert self._matrix is not None and self._counts is not None
        block_t = np.ascontiguousarray(query_block.T)
        blocks = self._blocks()
        rows: list[np.ndarray] = []
        with self.metrics.timer(f"{self.name}.scan"):
            for _, start, stop in blocks[block_range.start : block_range.stop]:
                sims = self._matrix[start:stop] @ block_t  # (n_unique, Q)
                rows.append(self._aggregate_block(sims, self._counts[start:stop]))
        return np.stack(rows)

    def _score_matrix(self, query_block: np.ndarray, workers: int = 1) -> np.ndarray:
        """The ``(R, Q)`` score matrix of an encoded query block.

        ExS work scales with federation size, not query count, so
        ``workers > 1`` chunks the *relations* across the pool: each
        lane fills the rows of its contiguous block range and the
        chunks stack back in relation order.
        """
        scan = self._scan_fused if self.fused else self._scan_blocks
        chunks = even_chunks(len(self._block_ids), workers)
        if len(chunks) < 2:
            return scan(query_block, range(len(self._block_ids)))
        parts = self._backend().map(lambda c: scan(query_block, c), chunks, cap=workers)
        return np.vstack(parts)

    # -- the rank contract ---------------------------------------------------

    def _top_k(self, query: str, k: int, h: float) -> list[RelationMatch]:
        q = self._encode_query(query)
        if self.vectorized:
            # Single query through the fused kernel (a (n, 1) GEMM).
            scores = self._scan_fused(np.ascontiguousarray(q[np.newaxis, :]))
        else:
            scores = self._scan_attributes(q)
        return self.rank_scores(scores, k, h)[0]

    def _top_k_batch(
        self, queries: Sequence[str], k: int, h: float, workers: int = 1
    ) -> list[list[RelationMatch]]:
        return self.rank_scores(self._score_matrix(self._encode_block(queries), workers), k, h)

    # -- resident shard scans ----------------------------------------------

    def scan_spec(self) -> ShardScanSpec | None:
        """This method's fused-scan state for a worker process.

        Only the fused kernel has a resident form; the legacy
        per-relation loop (``fused=False``) returns ``None`` and the
        sharded path falls back to in-process scans.
        """
        if not self.fused or self._matrix is None:
            return None
        spec = self._buffer.spec() if self._buffer is not None else None
        return ShardScanSpec(
            generation=self.embeddings.generation,
            buffer=spec,
            matrix=None if spec is not None else self._matrix,
            offsets=self._offsets,
            weights=self._row_weights,
            aggregate=self.aggregate,
            top_fraction=self.top_fraction,
        )

    def close(self) -> None:
        super().close()
        buffer, self._buffer = self._buffer, None
        self._matrix = None
        if buffer is not None:
            buffer.close()
