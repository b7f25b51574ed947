"""Common interface for all vector indexes."""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.errors import DimensionMismatchError, EmptyIndexError
from repro.linalg.distances import Metric

__all__ = ["VectorIndex", "SearchHit", "hits_from_rows"]


class SearchHit:
    """A single nearest-neighbour result: internal row id + score.

    ``score`` follows the library-wide convention that larger is more
    similar (euclidean distances are negated by the similarity kernels).
    """

    __slots__ = ("index", "score")

    def __init__(self, index: int, score: float) -> None:
        self.index = index
        self.score = score

    def __repr__(self) -> str:
        return f"SearchHit(index={self.index}, score={self.score:.4f})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchHit):
            return NotImplemented
        return self.index == other.index and self.score == other.score


def hits_from_rows(rows: np.ndarray, scores: np.ndarray) -> list[SearchHit]:
    """One query's ``(rows, scores)`` arrays as :class:`SearchHit` objects."""
    return [SearchHit(row, score) for row, score in zip(rows.tolist(), scores.tolist())]


class VectorIndex(abc.ABC):
    """A k-NN index over a fixed set of vectors.

    Concrete indexes are built once with :meth:`build` (or incrementally
    where supported) and answer queries with :meth:`search_rows`.

    Dtype contract: the build dtype (float32 or float64) is preserved —
    a float32 store is scanned at float32 bandwidth — and queries are
    cast to it before scoring.  Non-float builds promote to float64.
    """

    def __init__(self, metric: Metric = Metric.COSINE) -> None:
        self.metric = metric
        self._dim: int | None = None
        self._dtype: np.dtype = np.dtype(np.float64)

    @property
    def dim(self) -> int | None:
        """Dimensionality of indexed vectors (None before build)."""
        return self._dim

    @property
    def dtype(self) -> np.dtype:
        """Storage/compute dtype (set from the vectors given to build)."""
        return self._dtype

    @property
    def nbytes(self) -> int:
        """Resident bytes of vector/code storage (0 when untracked)."""
        return 0

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of vectors currently indexed."""

    @abc.abstractmethod
    def build(self, vectors: np.ndarray) -> "VectorIndex":
        """(Re)build the index over ``vectors`` of shape ``(n, dim)``."""

    @abc.abstractmethod
    def search_rows(self, queries: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Nearest rows of each query in a ``(Q, dim)`` block as
        ``(rows, scores)`` arrays, best first.  :class:`HNSWIndex` also
        takes an ``ef`` beam-width keyword."""

    def search(self, query: np.ndarray, k: int, **params: Any) -> list[SearchHit]:
        """Up to ``k`` nearest rows to one ``query``, best first, as
        :class:`SearchHit` objects; ``params`` reach :meth:`search_rows`."""
        rows, scores = self.search_rows(self._validate_query(query), k, **params)[0]
        return hits_from_rows(rows, scores)

    # -- shared validation helpers -------------------------------------

    def _validate_build(self, vectors: np.ndarray) -> np.ndarray:
        # repro-lint: disable=RL003 -- preserves float32/float64 as-is; only non-float input promotes
        vectors = np.asarray(vectors)
        if vectors.dtype not in (np.float32, np.float64):
            # repro-lint: disable=RL003 -- promotion target for non-float input only
            vectors = vectors.astype(np.float64)
        vectors = np.ascontiguousarray(vectors)
        if vectors.ndim != 2:
            raise DimensionMismatchError("index expects a 2-D (n, dim) array")
        self._dim = vectors.shape[1]
        self._dtype = vectors.dtype
        return vectors

    def _validate_query(self, query: np.ndarray) -> np.ndarray:
        if self.size == 0:
            raise EmptyIndexError(f"{type(self).__name__} is empty")
        query = np.asarray(query, dtype=self._dtype).ravel()
        if self._dim is not None and query.shape[0] != self._dim:
            raise DimensionMismatchError(
                f"query dim {query.shape[0]} != index dim {self._dim}"
            )
        return query

    def _validate_query_block(self, queries: np.ndarray) -> np.ndarray:
        """A ``(Q, dim)`` query block cast to the index dtype."""
        if self.size == 0:
            raise EmptyIndexError(f"{type(self).__name__} is empty")
        queries = np.atleast_2d(np.asarray(queries, dtype=self._dtype))
        if queries.ndim != 2:
            raise DimensionMismatchError("expected a (Q, dim) query block")
        if self._dim is not None and queries.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"query dim {queries.shape[1]} != index dim {self._dim}"
            )
        return queries
