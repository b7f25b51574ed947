"""A named collection of points: vectors + payload metadata.

The unit of storage mirrors Qdrant: a *point* has an id, a vector and a
JSON-like payload.  Search supports payload filters; when an ANN index
is attached, filtered searches over-fetch from the index and post-filter
(the standard approach for graph indexes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ann.base import VectorIndex
from repro.errors import (
    CollectionError,
    DimensionMismatchError,
    PointNotFoundError,
)
from repro.linalg.distances import Metric, normalize_rows, pairwise_similarity, row_norms
from repro.linalg.topk import top_k_indices_rowwise
from repro.obs import MetricsRegistry
from repro.sanitize import guard_operands, sanitize_enabled
from repro.vectordb.filters import Filter
from repro.vectordb.index import IndexKind, make_index

__all__ = ["Point", "ScoredPoint", "Collection"]


@dataclass(frozen=True)
class Point:
    """A stored point: id, vector, payload."""

    id: int | str
    vector: np.ndarray
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ScoredPoint:
    """A search result: the point plus its similarity score."""

    id: int | str
    score: float
    payload: dict[str, Any]
    vector: np.ndarray | None = None


class Collection:
    """A growable set of points with exact and ANN search.

    Parameters
    ----------
    name:
        Collection name (unique within a database).
    dim:
        Vector dimensionality; enforced on every upsert.
    metric:
        Similarity metric used by searches.
    metrics:
        Observability registry the collection records scan counters and
        latency into; a private registry is created when not given, so
        recording is unconditional and an engine can inject its shared
        one.
    dtype:
        Storage/compute dtype for vectors (float32 or float64, default
        float64 for backwards compatibility).  float32 halves resident
        memory and scan bandwidth; the engine's ``dtype`` knob selects
        it for the ANNS values collection.
    """

    def __init__(
        self,
        name: str,
        dim: int,
        metric: Metric = Metric.COSINE,
        metrics: MetricsRegistry | None = None,
        dtype: "str | np.dtype[Any] | type" = np.float64,
    ):
        if dim < 1:
            raise CollectionError("dim must be >= 1")
        self.name = name
        self.dim = dim
        self.metric = metric
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise CollectionError("dtype must be float32 or float64")
        self._ids: list[int | str] = []
        self._id_to_row: dict[int | str, int] = {}
        self._vectors = np.empty((0, dim), dtype=self.dtype)
        self._payloads: list[dict[str, Any]] = []
        self._index: VectorIndex | None = None
        self._index_kind: IndexKind | None = None
        self._index_stale = False
        # Cached row norms make cosine exact search a bare GEMM (no
        # per-query O(n·d) normalization pass over the store).
        self._norms = np.empty(0, dtype=self.dtype)
        self._norms_stale = False
        #: REPRO_SANITIZE=1 arms operand guards at the batch boundary.
        self.sanitize = sanitize_enabled()

    # -- mutation --------------------------------------------------------

    def upsert(self, points: list[Point]) -> None:
        """Insert new points or overwrite existing ids."""
        fresh_vectors: list[np.ndarray] = []
        for point in points:
            vector = np.asarray(point.vector, dtype=self.dtype).ravel()
            if vector.shape[0] != self.dim:
                raise DimensionMismatchError(
                    f"point {point.id!r}: dim {vector.shape[0]} != collection dim {self.dim}"
                )
            row = self._id_to_row.get(point.id)
            if row is not None:
                self._vectors[row] = vector
                self._payloads[row] = dict(point.payload)
            else:
                self._id_to_row[point.id] = len(self._ids)
                self._ids.append(point.id)
                self._payloads.append(dict(point.payload))
                fresh_vectors.append(vector)
        if fresh_vectors:
            self._vectors = np.vstack([self._vectors, np.vstack(fresh_vectors)])
        if points:
            self._index_stale = True
            self._norms_stale = True
            self._publish_bytes()

    def delete(self, ids: list[int | str]) -> int:
        """Delete points by id; returns how many existed."""
        to_drop = {i for i in ids if i in self._id_to_row}
        if not to_drop:
            return 0
        keep = [row for row, pid in enumerate(self._ids) if pid not in to_drop]
        self._vectors = self._vectors[keep]
        self._ids = [self._ids[row] for row in keep]
        self._payloads = [self._payloads[row] for row in keep]
        self._id_to_row = {pid: row for row, pid in enumerate(self._ids)}
        self._index_stale = True
        self._norms_stale = True
        self._publish_bytes()
        return len(to_drop)

    # -- access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, point_id: int | str) -> bool:
        return point_id in self._id_to_row

    def get(self, point_id: int | str) -> Point:
        """Fetch one point by id."""
        row = self._id_to_row.get(point_id)
        if row is None:
            raise PointNotFoundError(f"{point_id!r} not in collection {self.name!r}")
        return Point(point_id, self._vectors[row].copy(), dict(self._payloads[row]))

    def scroll(self, filter: Filter | None = None) -> list[Point]:
        """All points (optionally filtered), in insertion order."""
        out = []
        for row, pid in enumerate(self._ids):
            if filter is None or filter.test(self._payloads[row]):
                out.append(Point(pid, self._vectors[row].copy(), dict(self._payloads[row])))
        return out

    @property
    def vectors(self) -> np.ndarray:
        """Read-only view of the raw vector matrix."""
        view = self._vectors.view()
        view.flags.writeable = False
        return view

    @property
    def nbytes(self) -> int:
        """Resident bytes: raw vectors + cached norms + index storage."""
        total = int(self._vectors.nbytes) + int(self._norms.nbytes)
        if self._index is not None:
            total += self._index.nbytes
        return total

    def _publish_bytes(self) -> None:
        self.metrics.gauge(f"vectordb.{self.name}.bytes").set(float(self.nbytes))

    def _cosine_norms(self) -> np.ndarray:
        """Cached per-row L2 norms (zero rows mapped to 1 so the
        division is safe and zero vectors keep score 0)."""
        if self._norms_stale or self._norms.shape[0] != len(self):
            norms = row_norms(self._vectors) if len(self) else np.empty(0, self.dtype)
            self._norms = np.where(norms > 1e-12, norms, norms.dtype.type(1.0)).astype(
                self.dtype, copy=False
            )
            self._norms_stale = False
            self._publish_bytes()
        return self._norms

    # -- indexing ---------------------------------------------------------

    def create_index(self, kind: IndexKind | str = IndexKind.HNSW, **params) -> None:
        """Attach and build an ANN index over current contents."""
        self._index = make_index(kind, self.metric, **params)
        self._index_kind = IndexKind(kind)
        if len(self) > 0:
            self._index.build(self._vectors)
        self._index_stale = False
        self._publish_bytes()

    @property
    def index_kind(self) -> IndexKind | None:
        return self._index_kind

    def _ensure_index_fresh(self) -> None:
        if self._index is not None and self._index_stale:
            if len(self) > 0:
                self._index.build(self._vectors)
            self._index_stale = False
            self._publish_bytes()

    # -- search ------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int,
        filter: Filter | None = None,
        with_vectors: bool = False,
        ef: int | None = None,
        rescore: bool = False,
    ) -> list[ScoredPoint]:
        """Top-k points by similarity to ``query``: :meth:`search_rows`
        for one query, as :class:`ScoredPoint` objects.

        The query is cast to the storage dtype first, so a single query
        never trips the sanitizer's dtype guard.
        """
        if len(self) == 0:
            return []
        query = np.asarray(query, dtype=self.dtype).reshape(1, -1)
        rows, scores = self.search_rows(query, k, filter, ef, rescore)[0]
        return self._scored_points(rows, scores, with_vectors)

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        filter: Filter | None = None,
        with_vectors: bool = False,
        ef: int | None = None,
        rescore: bool = False,
    ) -> list[list[ScoredPoint]]:
        """Top-k points for each row of a ``(Q, dim)`` query block:
        :meth:`search_rows` as :class:`ScoredPoint` objects."""
        found = self.search_rows(queries, k, filter, ef, rescore)
        if len(self) and found:
            self.metrics.counter("vectordb.batches").inc()
        return [self._scored_points(rows, scores, with_vectors) for rows, scores in found]

    def search_rows(
        self,
        queries: np.ndarray,
        k: int,
        filter: Filter | None = None,
        ef: int | None = None,
        rescore: bool = False,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Top-k ``(rows, scores)`` arrays for each row of a ``(Q, dim)``
        query block, best first; rows index :attr:`vectors` and
        :meth:`payloads_at`, scores keep the dtype their kernel produced.

        The one search path.  Exact (index-less) collections answer the
        whole block with one similarity GEMM and per-row top-k
        selection.  Indexed collections check staleness once, hand the
        block to the index, and refine each query's candidates.  With a
        filter the index is asked for an over-fetched candidate set,
        which is then post-filtered; exact search filters before
        scoring.

        ``ef`` reaches only indexes that take a beam width
        (:attr:`VectorIndex.takes_ef`).  ``rescore=True`` adds a refine
        stage for lossy (PQ-compressed) indexes: the candidates are
        re-scored against the stored full-precision vectors and
        re-sorted, the standard two-stage "ADC then refine" pipeline.
        """
        if self.sanitize:
            # repro-lint: disable=RL003 -- inspects the caller's dtype; casting here would hide the mismatch
            raw = np.asarray(queries)
            # Float query blocks must already be in the collection's
            # storage dtype — a silent upcast/downcast at this boundary
            # is exactly the bug class the sanitizer exists to catch.
            guard_operands(
                raw,
                where=f"vectordb.{self.name}.search_rows",
                expect_dtype=self.dtype if raw.dtype.kind == "f" else None,
            )
        queries = np.atleast_2d(np.asarray(queries, dtype=self.dtype))
        if queries.ndim != 2:
            raise DimensionMismatchError("search_rows expects a (Q, dim) query block")
        if queries.shape[0] and queries.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"query dim {queries.shape[1]} != collection dim {self.dim}"
            )
        n_queries = queries.shape[0]
        if len(self) == 0 or n_queries == 0:
            empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=self.dtype))
            return [empty for _ in range(n_queries)]
        self.metrics.counter("vectordb.searches").inc(n_queries)
        with self.metrics.timer("vectordb.scan"):
            if self._index is None:
                return self._search_exact(queries, k, filter)
            return self._search_indexed(queries, k, filter, ef, rescore)

    def payloads_at(self, rows: np.ndarray) -> list[dict[str, Any]]:
        """The stored payloads of ``rows``, not copied: read only."""
        return [self._payloads[row] for row in rows.tolist()]

    def _exact_scores(
        self, queries: np.ndarray, rows_arr: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact ``(Q, n_rows)`` similarity of queries vs selected rows
        (``rows_arr=None`` scans the whole store without copying it).

        Cosine divides one bare GEMM by the cached row norms instead of
        re-normalizing the stored matrix per call — the raw vectors are
        never copied or rescaled.
        """
        matrix = self._vectors if rows_arr is None else self._vectors[rows_arr]
        if self.metric is Metric.COSINE:
            sims = normalize_rows(np.atleast_2d(queries)) @ matrix.T
            norms = self._cosine_norms()
            return sims / (norms if rows_arr is None else norms[rows_arr])
        return pairwise_similarity(queries, matrix, self.metric)

    def _filter_rows(self, filter: Filter | None) -> np.ndarray | None:
        """Row selection for a filtered scan; None means every row."""
        if filter is None:
            return None
        return np.asarray(
            [r for r in range(len(self)) if filter.test(self._payloads[r])],
            dtype=np.intp,
        )

    def _search_exact(
        self, queries: np.ndarray, k: int, filter: Filter | None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        rows_arr = self._filter_rows(filter)
        if rows_arr is not None and rows_arr.shape[0] == 0:
            empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=self.dtype))
            return [empty for _ in range(queries.shape[0])]
        n_rows = len(self) if rows_arr is None else rows_arr.shape[0]
        self.metrics.counter("vectordb.points_scanned").inc(queries.shape[0] * n_rows)
        scores = self._exact_scores(queries, rows_arr)
        best = top_k_indices_rowwise(scores, k)
        return [
            (best[q] if rows_arr is None else rows_arr[best[q]], scores[q, best[q]])
            for q in range(scores.shape[0])
        ]

    def _search_indexed(
        self,
        queries: np.ndarray,
        k: int,
        filter: Filter | None,
        ef: int | None,
        rescore: bool,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The index's candidates per query, refined.  Whether the index
        takes ``ef`` is read from its type, so a ``TypeError`` raised
        inside a search propagates instead of triggering a retry."""
        assert self._index is not None
        self._ensure_index_fresh()
        self.metrics.counter("vectordb.index_probes").inc(queries.shape[0])
        fetch = k if filter is None else max(4 * k, 32)
        if rescore:
            fetch = max(fetch, int(1.5 * k))  # headroom for re-sorting
        if ef is not None and self._index.takes_ef:
            found = self._index.search_rows(queries, fetch, ef=ef)
        else:
            found = self._index.search_rows(queries, fetch)
        return [
            self._refine(query, rows, scores, k, filter, rescore)
            for query, (rows, scores) in zip(queries, found)
        ]

    def _refine(
        self,
        query: np.ndarray,
        rows: np.ndarray,
        scores: np.ndarray,
        k: int,
        filter: Filter | None,
        rescore: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        if rescore and rows.shape[0]:
            exact = self._exact_scores(query[np.newaxis, :], rows)[0]
            order = np.argsort(-exact, kind="stable")
            rows, scores = rows[order], exact[order]
        if filter is not None:
            keep = [i for i, row in enumerate(rows.tolist()) if filter.test(self._payloads[row])]
            rows, scores = rows[keep], scores[keep]
        return rows[:k], scores[:k]

    def _scored_points(
        self, rows: np.ndarray, scores: np.ndarray, with_vectors: bool
    ) -> list[ScoredPoint]:
        return [
            self._scored(row, score, with_vectors)
            for row, score in zip(rows.tolist(), scores.tolist())
        ]

    def _scored(self, row: int, score: float, with_vectors: bool) -> ScoredPoint:
        return ScoredPoint(
            id=self._ids[row],
            score=score,
            payload=dict(self._payloads[row]),
            vector=self._vectors[row].copy() if with_vectors else None,
        )
