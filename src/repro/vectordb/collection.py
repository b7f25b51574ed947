"""A named collection of points: vectors + payload metadata.

The unit of storage mirrors Qdrant: a *point* has an id, a vector and a
JSON-like payload.  :meth:`Collection.search_rows` is the one search:
an exact scan without an index, or the attached index's candidates
re-scored against the stored vectors.
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
from repro.vectordb.index import IndexKind, make_index

__all__ = ["Point", "Collection"]


@dataclass(frozen=True)
class Point:
    """A stored point: id, vector, payload."""

    id: int | str
    vector: np.ndarray
    payload: dict[str, Any] = field(default_factory=dict)


class Collection:
    """A growable set of points with exact and ANN search.

    Parameters
    ----------
    name:
        Collection name; it names the ``vectordb.<name>.bytes`` gauge.
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
        self._index_stale = False
        # Cached row norms make cosine exact search a bare GEMM (no
        # per-query O(n·d) normalization pass over the store).
        self._norms = np.empty(0, dtype=self.dtype)
        self._norms_stale = False
        #: REPRO_SANITIZE=1 arms operand guards at the batch boundary.
        self.sanitize = sanitize_enabled()

    # -- mutation --------------------------------------------------------

    def upsert(self, points: list[Point]) -> None:
        """Insert new points or overwrite existing ids.

        Every point is checked before anything changes, so a refused
        call leaves the collection as it was.  When an id repeats
        within one call, the last point wins (Qdrant's upsert rule).
        """
        latest: dict[int | str, tuple[np.ndarray, dict[str, Any]]] = {}
        for point in points:
            vector = np.asarray(point.vector, dtype=self.dtype).ravel()
            if vector.shape[0] != self.dim:
                raise DimensionMismatchError(
                    f"point {point.id!r}: dim {vector.shape[0]} != collection dim {self.dim}"
                )
            latest[point.id] = (vector, dict(point.payload))
        fresh_vectors: list[np.ndarray] = []
        for point_id, (vector, payload) in latest.items():
            row = self._id_to_row.get(point_id)
            if row is not None:
                self._vectors[row] = vector
                self._payloads[row] = payload
            else:
                self._id_to_row[point_id] = len(self._ids)
                self._ids.append(point_id)
                self._payloads.append(payload)
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
        if len(self) > 0:
            self._index.build(self._vectors)
        self._index_stale = False
        self._publish_bytes()

    def _ensure_index_fresh(self) -> None:
        if self._index is not None and self._index_stale:
            if len(self) > 0:
                self._index.build(self._vectors)
            self._index_stale = False
            self._publish_bytes()

    # -- search ------------------------------------------------------------

    def search_rows(
        self, queries: np.ndarray, k: int, ef: int | None = None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Top-k ``(rows, scores)`` arrays for each row of a ``(Q, dim)``
        query block, best first; rows index :attr:`vectors` and
        :meth:`payloads_at`, scores keep the dtype their kernel produced.

        Exact (index-less) collections answer the whole block with one
        similarity GEMM and per-row top-k selection.  Indexed
        collections check staleness once, hand the block to the index
        for ``max(k, int(1.5 * k))`` candidates per query, then re-score
        those against the stored full-precision vectors and re-sort
        them: the two-stage "ADC then refine" pipeline, so a lossy
        (PQ-compressed) index never decides a score.

        ``ef`` reaches only indexes that take a beam width
        (:attr:`VectorIndex.takes_ef`).
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
                return self._search_exact(queries, k)
            return self._search_indexed(queries, k, ef)

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

    def _search_exact(self, queries: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        self.metrics.counter("vectordb.points_scanned").inc(queries.shape[0] * len(self))
        scores = self._exact_scores(queries)
        best = top_k_indices_rowwise(scores, k)
        return [(best[q], scores[q, best[q]]) for q in range(scores.shape[0])]

    def _search_indexed(
        self, queries: np.ndarray, k: int, ef: int | None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The index's candidates per query, re-scored exactly.  Whether
        the index takes ``ef`` is read from its type, so a ``TypeError``
        raised inside a search propagates instead of triggering a retry."""
        assert self._index is not None
        self._ensure_index_fresh()
        self.metrics.counter("vectordb.index_probes").inc(queries.shape[0])
        fetch = max(k, int(1.5 * k))  # headroom for re-sorting
        if ef is not None and self._index.takes_ef:
            found = self._index.search_rows(queries, fetch, ef=ef)
        else:
            found = self._index.search_rows(queries, fetch)
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for query, (rows, scores) in zip(queries, found):
            if rows.shape[0]:
                scores = self._exact_scores(query[np.newaxis, :], rows)[0]
                order = np.argsort(-scores, kind="stable")
                rows, scores = rows[order], scores[order]
            out.append((rows[:k], scores[:k]))
        return out
