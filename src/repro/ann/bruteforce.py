"""Exact k-NN by full scan — the reference every ANN index is tested against."""

from __future__ import annotations

import numpy as np

from repro.ann.base import VectorIndex
from repro.linalg.distances import Metric, normalize_rows, pairwise_similarity
from repro.linalg.topk import top_k_indices_rowwise

__all__ = ["BruteForceIndex"]


class BruteForceIndex(VectorIndex):
    """Exact nearest-neighbour search via a vectorized full scan.

    For cosine similarity the stored matrix is pre-normalized so a
    query block costs one matrix product.
    """

    def __init__(self, metric: Metric = Metric.COSINE) -> None:
        super().__init__(metric)
        # repro-lint: disable=RL003 -- pre-build placeholder; build() adopts the input dtype
        self._vectors = np.empty((0, 0), dtype=np.float64)

    @property
    def size(self) -> int:
        return self._vectors.shape[0]

    @property
    def nbytes(self) -> int:
        return int(self._vectors.nbytes)

    def build(self, vectors: np.ndarray) -> "BruteForceIndex":
        vectors = self._validate_build(vectors)
        if self.metric is Metric.COSINE:
            vectors = normalize_rows(vectors)
        self._vectors = vectors
        return self

    def search_rows(self, queries: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Exact k-NN for a block of queries (one matrix product)."""
        queries = self._validate_query_block(queries)
        if self.metric is Metric.COSINE:
            # Stored rows are unit vectors; skip re-normalizing them.
            scores = normalize_rows(queries) @ self._vectors.T
        else:
            scores = pairwise_similarity(queries, self._vectors, self.metric)
        best = top_k_indices_rowwise(scores, k)
        return [(best[q], scores[q, best[q]]) for q in range(scores.shape[0])]
