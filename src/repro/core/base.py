"""Shared interface of the three search methods."""

from __future__ import annotations

import abc
import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.annotations import requires_lock
from repro.core.results import BatchResult, RelationMatch, SearchResult
from repro.core.semimg import FederationEmbeddings, RelationEmbedding
from repro.errors import NotFittedError
from repro.obs import MetricsRegistry
from repro.sanitize import sanitize_enabled

__all__ = ["SearchMethod", "evidence_scores"]


class SearchMethod(abc.ABC):
    """A dataset-discovery algorithm over federation embeddings.

    Lifecycle: construct with hyper-parameters, :meth:`index` once over
    the federation's semantic representation, then :meth:`search` any
    number of queries — or :meth:`search_batch` to amortize encode and
    scan work over many queries at once.  ``search`` handles timing
    and ranks through :meth:`_top_k` / :meth:`_top_k_batch`, whose
    defaults threshold, sort and truncate what :meth:`_score_all`
    (or a genuinely batched :meth:`_score_batch`) returns; a method
    that scores *every* relation overrides the pair to rank its score
    arrays and build result objects for the ≤ k winners only.

    Every method records into :attr:`metrics` — per-stage latency
    histograms (``<name>.encode`` / ``scan`` / ``route`` / ``rank``)
    and query counters.  The registry is replaceable so a
    :class:`~repro.core.engine.DiscoveryEngine` can share one across
    methods; set it before :meth:`index` so index-time structures (the
    vector database collections) report into the same registry.
    """

    #: Short name used in results and experiment tables.
    name: str = "base"

    def __init__(self) -> None:
        self._embeddings: FederationEmbeddings | None = None
        self.metrics = MetricsRegistry()
        #: When true, kernel boundaries guard operands for NaN/Inf and
        #: dtype mismatches (see :mod:`repro.sanitize`).  Defaults to
        #: the ``REPRO_SANITIZE`` environment switch; a
        #: :class:`~repro.core.engine.DiscoveryEngine` overrides it
        #: with its own ``sanitize`` setting.
        self.sanitize = sanitize_enabled()

    @property
    def embeddings(self) -> FederationEmbeddings:
        if self._embeddings is None:
            raise NotFittedError(f"{type(self).__name__} used before index()")
        return self._embeddings

    @property
    def is_indexed(self) -> bool:
        return self._embeddings is not None

    def close(self) -> None:
        """Release resources this method owns (index storage, in
        subclasses).  Idempotent."""

    def index(self, embeddings: FederationEmbeddings) -> "SearchMethod":
        """Build this method's data structures over the federation."""
        self._embeddings = embeddings
        self._build()
        self.metrics.gauge(f"{self.name}.generation").set(embeddings.generation)
        return self

    @abc.abstractmethod
    def _build(self) -> None:
        """Method-specific index construction (may be a no-op)."""

    def index_bytes(self) -> int:
        """Resident bytes of this method's vector/code storage.

        Feeds the ``engine.index_bytes`` gauge so storage-dtype and
        compression wins are visible in ``metrics.snapshot()``; 0 when
        the method tracks no resident arrays (or is not yet built).
        """
        return 0

    # -- incremental lifecycle ---------------------------------------------

    @requires_lock("write")
    def apply_delta(
        self,
        added: Sequence[RelationEmbedding],
        updated: Sequence[RelationEmbedding],
        removed: Sequence[str],
    ) -> None:
        """Absorb one store delta into this method's index.

        Called after the shared :class:`FederationEmbeddings` store has
        been mutated: ``added``/``updated`` carry the new embeddings
        (already present in the store), ``removed`` the retired
        relation ids.  The contract, enforced by property tests, is
        that search results afterwards match a from-scratch
        :meth:`index` of the store's current state.  Subclasses
        override :meth:`_apply_delta` with cheaper-than-rebuild
        maintenance; the default rebuilds the method's structures from
        the store (which never re-embeds anything).
        """
        if self._embeddings is None:
            raise NotFittedError(f"{type(self).__name__} used before index()")
        with self.metrics.timer(f"{self.name}.delta_ms"):
            self._apply_delta(list(added), list(updated), list(removed))
        self.metrics.counter(f"{self.name}.deltas").inc()
        self.metrics.gauge(f"{self.name}.generation").set(self._embeddings.generation)

    def _apply_delta(
        self,
        added: list[RelationEmbedding],
        updated: list[RelationEmbedding],
        removed: list[str],
    ) -> None:
        """Method-specific delta maintenance; default is a full rebuild
        of the derived structures (no re-embedding)."""
        self._build()

    def _score_all(self, query: str) -> list[RelationMatch]:
        """Score candidate relations for a query (any order, unfiltered);
        optional for methods that override :meth:`_top_k` instead."""
        raise NotImplementedError(f"{type(self).__name__} ranks through _top_k")

    def _finalize(self, matches: list[RelationMatch], k: int, h: float) -> list[RelationMatch]:
        """Threshold, sort and truncate raw scores (paper Sec 3)."""
        with self.metrics.timer(f"{self.name}.rank"):
            matches = [m for m in matches if m.score >= h]
            matches.sort(key=lambda m: (-m.score, m.relation_id))
            return matches[:k]

    def _top_k(self, query: str, k: int, h: float) -> list[RelationMatch]:
        """The ≤ k best matches scoring ``>= h``, ordered by the paper's
        ``(-score, relation_id)``."""
        return self._finalize(self._score_all(query), k, h)

    def search(self, query: str, k: int = 10, h: float = 0.0) -> SearchResult:
        """Answer a keyword query.

        Parameters
        ----------
        query:
            Keyword query text.
        k:
            Maximum number of relations returned.
        h:
            Relatedness threshold: relations scoring below ``h`` are
            filtered out (paper Sec 3: related iff ``match(F, q) >= h``).
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        start = time.perf_counter()
        matches = self._top_k(query, k, h)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.metrics.counter(f"{self.name}.queries").inc()
        self.metrics.histogram(f"{self.name}.latency_ms").observe(elapsed_ms)
        return SearchResult(query=query, method=self.name, matches=matches, elapsed_ms=elapsed_ms)

    # -- batched serving ---------------------------------------------------

    def _score_batch(self, queries: Sequence[str]) -> list[list[RelationMatch]]:
        """Raw scores for many queries; the fallback loops
        :meth:`_score_all`, subclasses override with batched kernels."""
        return [self._score_all(query) for query in queries]

    def _top_k_batch(
        self, queries: Sequence[str], k: int, h: float
    ) -> list[list[RelationMatch]]:
        """:meth:`_top_k` for a whole batch, one ranked list per query."""
        return [self._finalize(matches, k, h) for matches in self._score_batch(queries)]

    def search_batch(
        self, queries: Iterable[str], k: int = 10, h: float = 0.0
    ) -> BatchResult:
        """Answer many queries in one call, amortizing shared work.

        Results are element-wise equivalent to ``[search(q) for q in
        queries]`` — same rankings, same scores up to BLAS reduction
        order — but the batched kernels encode all queries up front and
        scan the federation with matrix-matrix instead of matrix-vector
        products.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        queries = list(queries)
        # Count the batch before the empty-list early return so the
        # method-level counter agrees with the engine-level one, which
        # counts every search_batch call it forwards.
        self.metrics.counter(f"{self.name}.batches").inc()
        self.metrics.counter(f"{self.name}.queries").inc(len(queries))
        if not queries:
            return BatchResult([], elapsed_ms=0.0)
        start = time.perf_counter()
        per_query = self._top_k_batch(queries, k, h)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        amortized_ms = elapsed_ms / len(queries)
        self.metrics.histogram(f"{self.name}.batch_ms").observe(elapsed_ms)
        latency = self.metrics.histogram(f"{self.name}.latency_ms")
        for _ in queries:
            latency.observe(amortized_ms)
        return BatchResult(
            [
                SearchResult(
                    query=query,
                    method=self.name,
                    matches=matches,
                    elapsed_ms=amortized_ms,
                )
                for query, matches in zip(queries, per_query)
            ],
            elapsed_ms=elapsed_ms,
        )


def evidence_scores(
    owners: np.ndarray, sims: np.ndarray, counts: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-size evidence averaging, grouped by owner.

    Row ``i`` is ``counts[i]`` hits of similarity ``sims[i]`` for relation
    ``owners[i]``: multiplicity-weighted, as in ExS, a value occurring k
    times in a relation is k matched attributes.  Each relation scores
    the sum of its ``m`` best hits over ``m`` (missing slots count zero).
    Returns the distinct owners (ascending), their scores and hit counts.

    The ``m`` best are summed left to right, column by column, over a
    zero-padded ``(R, m)`` matrix: the order Python's ``sum`` over the
    descending list takes, so each score keeps those bits (a zero pad
    adds exactly nothing).  ``np.add.reduce`` would sum pairwise.
    """
    order = np.lexsort((-sims, owners))
    counts = counts[order]
    hit_owners = np.repeat(owners[order], counts)
    hit_sims = np.repeat(sims[order], counts)
    firsts = np.flatnonzero(np.r_[True, hit_owners[1:] != hit_owners[:-1]])
    n_hits = np.diff(np.r_[firsts, hit_owners.shape[0]])
    group = np.repeat(np.arange(firsts.shape[0]), n_hits)
    rank = np.arange(hit_owners.shape[0]) - firsts[group]
    best = np.zeros((firsts.shape[0], m))
    top = rank < m
    best[group[top], rank[top]] = hit_sims[top]
    total = np.zeros(firsts.shape[0])
    for column in best.T:
        total = total + column
    return hit_owners[firsts], total / m, n_hits
