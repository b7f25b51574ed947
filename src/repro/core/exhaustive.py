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
``(R, d)`` centroid matrix over the whole federation and scores it
with the row-wise kernel :func:`repro.linalg.rowwise_scores`, which
computes each score from its own centroid and query alone — so a score
has the same bits whatever the batch, delta history or row position
(see DESIGN.md), and ``search(q)`` is ``search_batch([q])[0]``.
Algorithm 1's per-value loop survives in ``benchmarks/`` as the
paper-cost measurement.

``DiscoveryEngine(shards=...)`` never splits the matrix.  Federation
deltas patch it in place — retired rows are masked out, fresh centroids
appended — so absorbing a delta never recomputes untouched relations.
A batch is bound → filter → verify → rank: one GEMM bounds every score
(:func:`repro.linalg.gemm_candidates`, which keeps each query's
candidates within a proven error margin of its k-th best), the
row-wise kernel re-scores only those candidates, and
:meth:`ExhaustiveSearch.rank_survivors` orders them and builds
``RelationMatch`` objects for the ≤ k winners per query alone.  The
GEMM's bits never reach a result.  The scan runs in the calling
process on every execution backend.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.base import SearchMethod
from repro.core.results import RelationMatch
from repro.core.semimg import RelationEmbedding, relation_centroids
from repro.linalg import gemm_candidates, row_norms, rowwise_scores
from repro.sanitize import guard_operands

__all__ = ["ExhaustiveSearch", "ScanSpec"]


@dataclass(frozen=True)
class ScanSpec:
    """ExS's scan state as plain arrays, for replaying the scan outside
    the method: the centroid matrix, one offset per row (every relation
    is one row) and one unit weight per row.  ``aggregate`` and
    ``top_fraction`` are fixed :func:`repro.linalg.segment_scores`
    keywords, so a replay can pass every field straight through."""

    matrix: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    aggregate: str = field(default="mean", init=False)
    top_fraction: float = field(default=0.1, init=False)


class ExhaustiveSearch(SearchMethod):
    """Brute-force value-level semantic matching.

    It takes no parameters.  Queries are quantised to float32, the
    encoder's native precision, before scoring; centroids are float64.
    """

    name = "exs"

    def __init__(self) -> None:
        super().__init__()
        self._matrix: np.ndarray | None = None
        self._max_norm = 0.0
        self._block_ids: list[str] = []
        self._block_cells: dict[str, int] = {}

    def index_bytes(self) -> int:
        """Resident bytes of the centroid matrix."""
        return int(self._matrix.nbytes) if self._matrix is not None else 0

    def _build(self) -> None:
        relations = self.embeddings.relations
        self._matrix = self.embeddings.centroids()
        self._block_ids = [r.relation_id for r in relations]
        self._block_cells = {r.relation_id: r.n_cells for r in relations}
        self._refresh_bound()

    def _refresh_bound(self) -> None:
        """Re-derive the largest centroid norm, which scales the GEMM
        bound's error margin (NaN rows score NaN and never survive)."""
        assert self._matrix is not None
        self._max_norm = float(np.fmax.reduce(row_norms(self._matrix), initial=0.0))

    def _apply_delta(
        self,
        added: list[RelationEmbedding],
        updated: list[RelationEmbedding],
        removed: list[str],
    ) -> None:
        """Patch the centroid matrix: mask out retired rows, append
        fresh ones.  Untouched rows are moved, never recomputed, and
        fresh rows come from the same :func:`relation_centroids` a build
        uses."""
        assert self._matrix is not None
        drop = set(removed) | {r.relation_id for r in updated}
        if drop:
            keep = np.array([rid not in drop for rid in self._block_ids], dtype=bool)
            self._matrix = self._matrix[keep]
            self._block_ids = [rid for rid in self._block_ids if rid not in drop]
            for rid in drop:
                self._block_cells.pop(rid, None)
        fresh = updated + added
        if fresh:
            self._matrix = np.vstack([self._matrix, relation_centroids(fresh)])
            for rel in fresh:
                self._block_ids.append(rel.relation_id)
                self._block_cells[rel.relation_id] = rel.n_cells
        self._refresh_bound()

    def _match(self, relation_id: str, score: float) -> RelationMatch:
        """The one place an ExS score becomes a result object."""
        return RelationMatch(
            relation_id=relation_id,
            score=score,
            details={"n_values": self._block_cells[relation_id]},
        )

    def rank_survivors(
        self,
        query_idx: np.ndarray,
        row_idx: np.ndarray,
        scores: np.ndarray,
        n_queries: int,
        k: int,
        h: float,
    ) -> list[list[RelationMatch]]:
        """Algorithm 1's "sort, threshold, top-k" over scored candidate
        pairs, one ranked list per query.

        ``query_idx``/``row_idx`` name each pair in query-major order
        (as :func:`repro.linalg.gemm_candidates` returns them) and
        ``scores`` holds its exact score.  Thresholding is a mask
        (``NaN >= h`` is false, so NaN scores drop out); each query's
        few survivors are sorted by the paper's ``(-score,
        relation_id)``, cut at ``k`` and turned into
        :class:`RelationMatch` objects.
        """
        with self.metrics.timer(f"{self.name}.rank"):
            keep = scores >= h
            # Plain ``(-score, relation_id)`` tuples sort natively; negation
            # is exact, so negating back restores every score's bits.
            rows, negated = row_idx[keep].tolist(), (-scores[keep]).tolist()
            bounds = np.searchsorted(query_idx[keep], np.arange(n_queries + 1)).tolist()
            ids = self._block_ids
            ranked: list[list[RelationMatch]] = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                winners = sorted(zip(negated[lo:hi], [ids[r] for r in rows[lo:hi]]))
                ranked.append([self._match(rid, -key) for key, rid in winners[:k]])
            return ranked

    def matches_from_scores(self, scores: np.ndarray) -> list[list[RelationMatch]]:
        """Every row of a ``(R, Q)`` score matrix as a match, unranked.

        The serving path never builds this list (it scores candidates
        and emits winners only); the perf ledger's per-layer replay
        times it as the cost of emitting everything.
        """
        return [
            [self._match(rid, score) for rid, score in zip(self._block_ids, column)]
            for column in scores.T.tolist()
        ]

    # -- the scan --------------------------------------------------------------

    def _encode_block(self, queries: Sequence[str]) -> np.ndarray:
        """The ``(Q, d)`` encoded query vectors, quantised to float32."""
        with self.metrics.timer(f"{self.name}.encode"):
            block = np.stack([self.embeddings.encode_query(q) for q in queries])
        return block.astype(np.float32, copy=False)

    def _scan(
        self, query_block: np.ndarray, k: int, h: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bound, filter, verify: the ``(query, row)`` pairs of an encoded
        query block that may rank in its top ``k`` at or above ``h``, in
        query-major order, with their exact scores.  One GEMM bounds
        every score (:func:`repro.linalg.gemm_candidates`); the survivors
        are re-scored by :func:`repro.linalg.rowwise_scores`, so a
        reported score has the bits of a full row-wise scan."""
        assert self._matrix is not None
        with self.metrics.timer(f"{self.name}.scan"):
            if self.sanitize:
                where = f"{self.name}._scan"
                guard_operands(self._matrix, where=where, expect_dtype=np.dtype(np.float64))
                guard_operands(query_block, where=where, expect_dtype=np.dtype(np.float32))
            query_idx, row_idx = gemm_candidates(self._matrix, query_block, k, h, self._max_norm)
            present = np.zeros(self._matrix.shape[0], dtype=bool)
            present[row_idx] = True
            rows = np.flatnonzero(present)
            exact = rowwise_scores(self._matrix[rows], query_block)
            return query_idx, row_idx, exact[np.searchsorted(rows, row_idx), query_idx]

    # -- the rank contract ---------------------------------------------------

    def _top_k(self, query: str, k: int, h: float) -> list[RelationMatch]:
        # One query is a batch of one: same encode, same kernel, same bits.
        return self._top_k_batch([query], k, h)[0]

    def _top_k_batch(
        self, queries: Sequence[str], k: int, h: float
    ) -> list[list[RelationMatch]]:
        scanned = self._scan(self._encode_block(queries), k, h)
        return self.rank_survivors(*scanned, len(queries), k, h)

    def scan_spec(self) -> ScanSpec | None:
        """The scan state for replaying the scan outside the method (the
        perf ledger's per-layer probe): the centroid matrix, one offset
        and one unit weight per relation."""
        if self._matrix is None:
            return None
        rows = self._matrix.shape[0]
        return ScanSpec(
            matrix=self._matrix,
            offsets=np.arange(rows, dtype=np.intp),
            weights=np.ones(rows, dtype=self._matrix.dtype),
        )

    def close(self) -> None:
        super().close()
        self._matrix = None
