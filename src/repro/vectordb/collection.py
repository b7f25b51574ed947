"""A k-NN search over a matrix it is given.

ANNS hands it the store's value table, CTS its cluster medoids.
:meth:`Collection.search_rows` is the one search: an exact scan without
an index, or the attached index's candidates re-scored against the
matrix.  Rows are the ids; what a row stands for is the caller's.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.ann.base import VectorIndex
from repro.errors import CollectionError, DimensionMismatchError
from repro.linalg.distances import Metric, normalize_rows, pairwise_similarity, row_norms
from repro.linalg.topk import top_k_indices_rowwise
from repro.obs import MetricsRegistry
from repro.sanitize import guard_operands, sanitize_enabled
from repro.vectordb.index import IndexKind, make_index

__all__ = ["Collection"]


class Collection:
    """Exact and ANN search over a ``(n, dim)`` float32 or float64
    matrix, which the collection reads and never copies or writes.

    After :meth:`reset` the attached index is rebuilt at the next
    search, once: readers that arrive together wait for one builder,
    which publishes a new, complete index.

    Parameters
    ----------
    name:
        Collection name; it names the ``vectordb.<name>.bytes`` gauge.
    vectors:
        The matrix searched; its dtype is the collection's storage and
        compute dtype, and query blocks are cast to it.
    metric:
        Similarity metric used by searches.
    metrics:
        Observability registry the collection records scan counters and
        latency into; a private registry is created when not given, so
        recording is unconditional and an engine can inject its shared
        one.
    """

    def __init__(
        self,
        name: str,
        vectors: np.ndarray,
        metric: Metric = Metric.COSINE,
        metrics: MetricsRegistry | None = None,
    ):
        self.name = name
        self.metric = metric
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if vectors.ndim != 2 or vectors.shape[1] < 1:
            raise CollectionError("vectors must be an (n, dim) matrix with dim >= 1")
        if vectors.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise CollectionError("dtype must be float32 or float64")
        self.dim = vectors.shape[1]
        self.dtype = vectors.dtype
        self._vectors = vectors
        self._index: VectorIndex | None = None
        self._index_spec: tuple[IndexKind, dict[str, Any]] | None = None
        self._index_stale = False
        # Serializes the lazy rebuild between the engine's readers.
        self._rebuild_lock = threading.Lock()
        # Cached row norms make cosine exact search a bare GEMM (no
        # per-query O(n·d) normalization pass over the store).
        self._norms = np.empty(0, dtype=self.dtype)
        self._norms_stale = True
        #: REPRO_SANITIZE=1 arms operand guards at the batch boundary.
        self.sanitize = sanitize_enabled()
        self._publish_bytes()

    def reset(self, vectors: np.ndarray) -> None:
        """Search ``vectors`` from now on: same dim and dtype, any number
        of rows.  The norms and the index rebuild at the next search."""
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"vectors of shape {vectors.shape} for a collection of dim {self.dim}"
            )
        if vectors.dtype != self.dtype:
            raise CollectionError(f"vectors are {vectors.dtype}, the collection {self.dtype}")
        self._vectors = vectors
        self._index_stale = True
        self._norms_stale = True
        self._publish_bytes()

    # -- access ---------------------------------------------------------

    def __len__(self) -> int:
        return self._vectors.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        """Read-only view of the raw vector matrix."""
        view = self._vectors.view()
        view.flags.writeable = False
        return view

    @property
    def nbytes(self) -> int:
        """Resident bytes the collection adds to the matrix it is given:
        cached norms + index storage."""
        total = int(self._norms.nbytes)
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

    def create_index(self, kind: IndexKind | str = IndexKind.HNSW, **params: Any) -> None:
        """Attach and build an ANN index over current contents."""
        self._index_spec = (IndexKind(kind), params)
        self._index_stale = True
        self._fresh_index()

    def _fresh_index(self) -> VectorIndex:
        """The attached index, first rebuilt if a reset left it stale.

        The first reader to find it stale builds a new index under the
        lock and publishes it only when complete; readers arriving
        meanwhile wait and then search that one.  Resets happen under
        the engine's writer lock, so no search overlaps one.
        """
        if self._index_stale:
            with self._rebuild_lock:
                if self._index_stale:
                    assert self._index_spec is not None
                    kind, params = self._index_spec
                    index = make_index(kind, self.metric, **params)
                    if len(self) > 0:
                        index.build(self._vectors)
                    self._index = index
                    self._index_stale = False
                    self._publish_bytes()
        assert self._index is not None
        return self._index

    # -- search ------------------------------------------------------------

    def search_rows(self, queries: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Top-k ``(rows, scores)`` arrays for each row of a ``(Q, dim)``
        query block, best first; rows index :attr:`vectors`, scores keep
        the dtype their kernel produced.

        Exact (index-less) collections answer the whole block with one
        similarity GEMM and per-row top-k selection.  Indexed
        collections check staleness once, hand the block to the index
        for ``max(k, int(1.5 * k))`` candidates per query, then re-score
        those against the stored full-precision vectors and re-sort
        them: the two-stage "ADC then refine" pipeline, so a lossy
        (PQ-compressed) index never decides a score.
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
            return self._search_indexed(queries, k)

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

    def _search_indexed(self, queries: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """The index's candidates per query, re-scored exactly."""
        index = self._fresh_index()
        self.metrics.counter("vectordb.index_probes").inc(queries.shape[0])
        fetch = max(k, int(1.5 * k))  # headroom for re-sorting
        found = index.search_rows(queries, fetch)
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for query, (rows, scores) in zip(queries, found):
            if rows.shape[0]:
                scores = self._exact_scores(query[np.newaxis, :], rows)[0]
                order = np.argsort(-scores, kind="stable")
                rows, scores = rows[order], scores[order]
            out.append((rows[:k], scores[:k]))
        return out
