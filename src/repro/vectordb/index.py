"""The indexes a collection can attach.

``IndexKind`` names them: ``exact`` (the brute-force reference),
``hnsw`` and ``hnsw+pq``.  ``HNSWPQIndex`` is the paper's combination
(Sec 4.2): vectors are compressed with Product Quantization and
navigated with an HNSW graph.  The graph is built over
the PQ *reconstructions* (so graph topology reflects what the
compressed representation can distinguish) and query scores come from
ADC lookup tables over the stored codes.  A collection's graph has no
beam parameter: its beam is exactly the number of candidates asked for.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.ann.base import VectorIndex
from repro.ann.bruteforce import BruteForceIndex
from repro.ann.hnsw import HNSWIndex
from repro.ann.pq import ProductQuantizer
from repro.linalg.distances import Metric, normalize_rows

__all__ = ["IndexKind", "HNSWPQIndex", "make_index"]


class IndexKind(str, enum.Enum):
    """Supported collection index configurations."""

    EXACT = "exact"
    HNSW = "hnsw"
    HNSW_PQ = "hnsw+pq"


class HNSWPQIndex(VectorIndex):
    """HNSW navigation over PQ-compressed vectors with ADC scoring."""

    def __init__(
        self,
        metric: Metric = Metric.COSINE,
        m: int = 16,
        ef_construction: int = 100,
        n_subvectors: int = 8,
        n_centroids: int = 256,
        seed: int = 0,
    ) -> None:
        super().__init__(metric)
        self.quantizer = ProductQuantizer(n_subvectors, n_centroids, seed=seed)
        self._graph = HNSWIndex(
            metric=metric, m=m, ef_construction=ef_construction, ef_search=1, seed=seed
        )
        self._codes = np.empty((0, n_subvectors), dtype=np.uint8)

    @property
    def size(self) -> int:
        return self._codes.shape[0]

    @property
    def nbytes(self) -> int:
        codebooks = self.quantizer.codebooks_
        return (
            int(self._codes.nbytes)
            + (int(codebooks.nbytes) if codebooks is not None else 0)
            + self._graph.nbytes
        )

    def build(self, vectors: np.ndarray) -> "HNSWPQIndex":
        vectors = self._validate_build(vectors)
        if self.metric is Metric.COSINE:
            vectors = normalize_rows(vectors)
        self.quantizer.fit(vectors)
        self._codes = self.quantizer.encode(vectors)
        reconstructed = self.quantizer.decode(self._codes)
        self._graph.build(reconstructed)
        return self

    def search_rows(self, queries: np.ndarray, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Graph traversal per query, ADC re-sort batched.

        The graph is asked for ``max(2k, k + 8)`` candidates, which is
        also its beam.  The ``(Q, m, k)`` ADC lookup tables for the
        whole block are built with one einsum up front; each query's
        candidate rows are then re-scored from its own table slice and
        stable-sorted, best first.
        """
        queries = self._validate_query_block(queries)
        if self.metric is Metric.COSINE:
            queries = normalize_rows(queries)
        fetch = max(2 * k, k + 8)
        if self.metric is Metric.EUCLIDEAN:
            tables = self.quantizer.adc_l2_tables(queries)
        else:
            tables = self.quantizer.adc_inner_product_tables(queries)
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for q in range(queries.shape[0]):
            ids, _ = self._graph.search_rows(queries[q], fetch)[0]
            scores = self.quantizer.adc_scores(tables[q], self._codes[ids])
            if self.metric is Metric.EUCLIDEAN:
                scores = -np.sqrt(np.clip(scores, 0, None))
            order = np.argsort(-scores, kind="stable")[:k]
            out.append((ids[order], scores[order]))
        return out


def make_index(kind: IndexKind | str, metric: Metric, **params) -> VectorIndex:
    """Factory for collection indexes.

    ``params`` are forwarded to the chosen index constructor, so callers
    can tune ``m``/``ef_construction``/``n_subvectors`` etc. per
    collection.  ``ef_search=1`` makes a graph's beam ``max(1, k)``.
    """
    kind = IndexKind(kind)
    if kind is IndexKind.EXACT:
        return BruteForceIndex(metric=metric)
    if kind is IndexKind.HNSW:
        return HNSWIndex(metric=metric, ef_search=1, **params)
    return HNSWPQIndex(metric=metric, **params)
