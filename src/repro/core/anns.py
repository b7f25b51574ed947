"""Approximate Nearest Neighbours Search (ANNS) — Algorithm 2.

Step 1 (offline): every distinct attribute-value vector, a row of the
store's value table, is compressed with Product Quantization and
indexed with HNSW; its metadata (relation, attribute name, count) stays
in the table's occurrence CSR.

Step 2 (query): the query vector retrieves its approximate nearest
value vectors; each relation's score is the average similarity of *its*
retrieved vectors.  Relations whose values never come near the query
are simply never touched — this focus is why ANNS beats ExS in quality
on focused queries (paper Sec 5.3) as well as in speed.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.ann.base import SearchHit, hits_from_rows
from repro.core.base import SearchMethod, evidence_scores
from repro.core.results import RelationMatch
from repro.core.semimg import RelationEmbedding
from repro.errors import NotFittedError
from repro.linalg.distances import Metric
from repro.vectordb.collection import Collection
from repro.vectordb.index import IndexKind

__all__ = ["ANNSearch"]


class ANNSearch(SearchMethod):
    """PQ + HNSW search over the value-vector collection.

    Parameters
    ----------
    n_candidates:
        How many nearest value vectors to retrieve per query before
        grouping by relation.  ``None`` (default) scales with the
        corpus: ``max(256, n_relations // 2)`` (:meth:`candidate_budget`)
        — a fixed budget starves recall on large federations because
        near-tie candidate sets (e.g. every table of a region sharing
        entity values) crowd out the deeper evidence.
    index_kind:
        The values collection's index: ``"hnsw+pq"`` (the paper's
        configuration), ``"hnsw"`` (uncompressed) or ``"exact"`` (the
        brute-force reference).  Every kind's candidates are re-scored
        exactly, so the index decides which values are retrieved, not
        their scores.
    n_subvectors / n_centroids:
        Product-quantization shape (ignored without PQ).
    m / ef_construction:
        HNSW graph parameters (ignored for ``"exact"``).  The query-time
        beam is not a parameter: a query asks the collection for its
        budget ``b``, the collection fetches ``fetch = max(b, int(1.5 *
        b))`` candidates to re-score, and the beam is exactly what the
        index is asked for.  That is ``fetch`` with plain ``"hnsw"``,
        and ``max(2 * fetch, fetch + 8)`` with ``"hnsw+pq"``, whose
        graph fetches twice the request for its ADC re-sort (768 at the
        default budget of 256).
    evidence_size:
        The relation score is the average similarity of its
        ``evidence_size`` best retrieved vectors, counting missing
        slots as zero.  A plain average over however many vectors
        happened to be retrieved lets one lucky near-duplicate cell
        outrank a relation many of whose cells match the query; the
        fixed-size average keeps the paper's "average of the
        similarity scores of the vectors of the relation identified by
        ANN" while rewarding evidence breadth.
    seed:
        Seeds the graph's level sampling and the PQ codebooks.
    """

    name = "anns"

    def __init__(
        self,
        n_candidates: int | None = None,
        index_kind: IndexKind | str = IndexKind.HNSW_PQ,
        n_subvectors: int = 8,
        n_centroids: int = 256,
        m: int = 16,
        ef_construction: int = 100,
        evidence_size: int = 8,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_candidates is not None and n_candidates < 1:
            raise ValueError("n_candidates must be >= 1 (or None for auto)")
        self.n_candidates = n_candidates
        self.index_kind = IndexKind(index_kind)
        self.n_subvectors = n_subvectors
        self.n_centroids = n_centroids
        self.m = m
        self.ef_construction = ef_construction
        if evidence_size < 1:
            raise ValueError("evidence_size must be >= 1")
        self.evidence_size = evidence_size
        self.seed = seed
        self._values: Collection | None = None

    def _collection(self) -> Collection:
        """The values collection; raises before :meth:`index`."""
        if self._values is None:
            raise NotFittedError("ANNSearch used before index()")
        return self._values

    def index_bytes(self) -> int:
        """Resident bytes ANNS owns: the index and the cached norms.
        The table it searches is the store's."""
        return self._values.nbytes if self._values is not None else 0

    def _index_params(self) -> dict[str, Any]:
        if self.index_kind is IndexKind.EXACT:
            return {}
        params: dict[str, Any] = dict(
            m=self.m,
            ef_construction=self.ef_construction,
            seed=self.seed,
        )
        if self.index_kind is IndexKind.HNSW_PQ:
            params.update(n_subvectors=self.n_subvectors, n_centroids=self.n_centroids)
        return params

    def _build(self) -> None:
        """Step 1: index the store's value table.

        The table holds one row per globally DISTINCT value, and its
        CSR lists every (relation, attribute, count) occurrence.  Common
        values ("2021", country names) repeat across relations with
        byte-identical vectors, and duplicate points break proximity
        graphs: their PQ reconstructions coincide, the HNSW neighbour
        heuristic links duplicates only to each other, and the graph
        fragments into unreachable clumps.  Deduplication also stops
        duplicates from crowding the candidate budget — one retrieved
        value is evidence for every relation that contains it.
        """
        self._values = Collection(
            "values",
            self.embeddings.value_table().vectors,
            metric=Metric.COSINE,
            metrics=self.metrics,
        )
        self._values.create_index(self.index_kind, **self._index_params())

    def _apply_delta(
        self,
        added: list[RelationEmbedding],
        updated: list[RelationEmbedding],
        removed: list[str],
    ) -> None:
        """The store's value table has absorbed the delta: search its
        new matrix.  The graph rebuilds lazily, once, at the next query."""
        del added, updated, removed
        self._collection().reset(self.embeddings.value_table().vectors)

    def candidate_budget(self, n_relations: int) -> int:
        """The retrieval budget for a corpus of ``n_relations``:
        ``n_candidates`` when set, else ``max(256, n_relations // 2)``.

        Public so a caller can replay :meth:`retrieve` with the budget a
        search would use (the perf ledger's ``anns`` probe does).
        """
        if self.n_candidates is not None:
            return self.n_candidates
        return max(256, n_relations // 2)

    def _candidate_budget(self) -> int:
        """How many nearest value vectors each query retrieves."""
        return self.candidate_budget(self.embeddings.n_relations)

    def retrieve(self, query_vector: np.ndarray, budget: int) -> list[SearchHit]:
        """Step 2's retrieval half: the ``budget`` nearest value points,
        before any grouping by relation.

        The same collection search as :meth:`search` runs, returned as
        :class:`SearchHit` objects over the collection's rows;
        ``search`` itself keeps the ``(rows, scores)`` arrays.
        """
        query_block = np.asarray(query_vector).reshape(1, -1)
        return hits_from_rows(*self._retrieve_rows(query_block, budget)[0])

    def _retrieve_rows(
        self, query_block: np.ndarray, budget: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each query's ``budget`` nearest value points as ``(rows,
        scores)`` arrays over the values collection."""
        collection = self._collection()
        # Match the collection's float32 storage before the scan: the
        # encoder emits float64, and shipping that into a float32
        # collection is exactly the silent promotion the sanitizer
        # rejects (found by the REPRO_SANITIZE CI shard).
        query_block = np.ascontiguousarray(query_block, dtype=collection.dtype)
        with self.metrics.timer(f"{self.name}.scan"):
            return collection.search_rows(query_block, k=budget)

    def _score_all(self, query: str) -> list[RelationMatch]:
        """Step 2: approximate KNN, then group scores by relation."""
        with self.metrics.timer(f"{self.name}.encode"):
            q = self.embeddings.encode_query(query)
        rows, scores = self._retrieve_rows(q[np.newaxis, :], self._candidate_budget())[0]
        return self._group_rows(rows, scores)

    def _score_batch(self, queries: Sequence[str]) -> list[list[RelationMatch]]:
        """Batched Step 2: one candidate-retrieval pass per query block.

        The values collection serves the whole query block in one call —
        exact collections score it with a single GEMM, graph indexes
        amortize validation and freshness checks across the block —
        and each query's hits are grouped exactly as in sequential
        :meth:`_score_all`.
        """
        with self.metrics.timer(f"{self.name}.encode"):
            block = np.stack([self.embeddings.encode_query(q) for q in queries])
        found = self._retrieve_rows(block, self._candidate_budget())
        return [self._group_rows(rows, scores) for rows, scores in found]

    def _group_rows(self, rows: np.ndarray, scores: np.ndarray) -> list[RelationMatch]:
        """Fixed-size evidence averaging of one query's retrieved values,
        their owners read from the value table's occurrence CSR."""
        if not rows.shape[0]:
            return []
        table = self.embeddings.value_table()
        occ, which = table.occurrences(rows)
        owners = table.occ_relation[occ]
        # A value occurring `count` times in the relation is `count`
        # matched attributes (Algorithm 2 averages over attribute
        # occurrences, as ExS does).
        ranked, relation_scores, n_hits = evidence_scores(
            owners, scores[which], table.occ_count[occ], self.evidence_size
        )
        relations = self.embeddings.relations
        return [
            RelationMatch(
                relation_id=relations[owner].relation_id, score=score, details={"n_hits": hits}
            )
            for owner, score, hits in zip(
                ranked.tolist(), relation_scores.tolist(), n_hits.tolist()
            )
        ]
