"""The :class:`DiscoveryEngine` facade (Figure 2's framework, as code).

The engine owns the encoder and the federation's semantic
representation, builds each method's index lazily and exactly once, and
serves queries through a single entry point — so ExS, ANNS and CTS are
always compared over identical embeddings.

Federations churn in production, so the engine also owns the
incremental lifecycle: :meth:`add_relations`, :meth:`update_relations`
and :meth:`remove_relations` thread one delta through the semantic
store and every built method index atomically.  Mutations take the
writer side of a readers-writer lock while searches take the reader
side, so queries in flight — including the windows the serving layer
runs on its dispatch threads — always observe a complete generation,
never a torn one.
"""

from __future__ import annotations

import threading
import time
import weakref

import numpy as np
from collections.abc import Callable, Iterable, Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.anns import ANNSearch
from repro.core.base import SearchMethod
from repro.core.cts import ClusteredTargetedSearch
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.lifecycle import (
    FederationDelta,
    InstrumentedRWLock,
    RWLock,
    guarded_by,
    requires_lock,
)
from repro.core.results import BatchResult, SearchResult
from repro.core.semimg import (
    FederationEmbeddings,
    RelationEmbedding,
    build_federation_embeddings,
    build_relation_embedding,
    embeddings_from_snapshot,
    save_federation_embeddings,
)
from repro.datamodel.relation import Federation, Relation
from repro.embedding.base import SentenceEncoder
from repro.embedding.cache import CachingEncoder
from repro.embedding.semantic import SemanticHashEncoder
from repro.errors import ConfigurationError, NotFittedError
from repro.exec import ExecutionBackend, resolve_backend
from repro.obs import MetricsRegistry
from repro.sanitize import lockset, sanitize_enabled
from repro.storage import live_mapped_nbytes, open_snapshot

if TYPE_CHECKING:
    # Circular at runtime, so imported where used: repro.serving wraps
    # this engine, and repro.cache builds on repro.core.results — whose
    # import runs repro/core/__init__.py, hence this module, first.
    from repro.cache import CacheSignature, SemanticResultCache
    from repro.serving import ServingEngine

__all__ = ["DiscoveryEngine"]

#: Accepted shapes for the relation arguments of the lifecycle API.
RelationsLike = Mapping[str, Relation] | Iterable[tuple[str, Relation]]


@guarded_by("_lifecycle_lock", "_embeddings", "_methods")
class DiscoveryEngine:
    """Index a federation once, search it with any method.

    Parameters
    ----------
    encoder:
        Sentence encoder; defaults to a cached
        :class:`SemanticHashEncoder` at ``dim`` dimensions.
    dim:
        Dimensionality of the default encoder (ignored when ``encoder``
        is given). 768 matches the paper's model; experiments use
        smaller dims for speed.
    method_params:
        Per-method constructor overrides, e.g.
        ``{"cts": {"top_clusters": 3}, "anns": {"n_candidates": 64}}``.
    shards:
        Accepted for compatibility and validated (``>= 1``), but it no
        longer changes the execution plan: every method answers from
        one index over the whole federation, whatever the value.  ExS
        scores one centroid row per relation, and a row's score does
        not depend on where the row sits, so partitioning could only
        add work.  Kept because the frozen perf ledger (``bench/``)
        passes it.
    executor:
        Idle: no search path runs work on it; it stays because the
        frozen perf ledger (``bench/``) passes and reads it.  Pass a
        backend name (``"inline"`` / ``"thread"``), a ready
        :class:`~repro.exec.ExecutionBackend` instance (the caller then
        owns its lifecycle), or ``None`` for ``"thread"``.  Every method
        scans on the calling thread.  The engine closes a backend it
        created itself at :meth:`close`.
    sanitize:
        Arm the runtime sanitizers: the lifecycle lock becomes an
        :class:`~repro.core.lifecycle.InstrumentedRWLock` (raises on
        write-while-reading reentrancy, double-release and
        reader-starvation instead of deadlocking) and the scan
        kernels guard their operands against NaN/Inf and silent dtype
        promotion.  ``None`` (the default) defers to the
        ``REPRO_SANITIZE`` environment variable, which is how the CI
        sanitizer shard runs the ordinary test suite instrumented.
    query_cache:
        Semantic query-result cache above the methods
        (:class:`~repro.cache.SemanticResultCache`): exact text hits
        plus near-duplicate embedding hits (cosine >= tau), invalidated
        precisely by the store's generation counter.  Pass a ready
        instance (its metrics rebind to this engine's registry), ``True``
        for one with default settings, or ``False``/``None`` (the
        default) for no cache.

    Scans and snapshots are float32, the encoder's native precision:
    ExS quantises queries to it (its centroids are float64), ANNS
    searches the store's float32 value table in place, and CTS reduces
    and clusters in float64.

    Example
    -------
    >>> engine = DiscoveryEngine(dim=128)
    >>> engine.index(federation)                        # doctest: +SKIP
    >>> result = engine.search("covid vaccine", method="cts")  # doctest: +SKIP
    """

    METHODS = ("exs", "anns", "cts")

    # Lockset-tracked swap fields (REPRO_SANITIZE=2): readers are
    # lock-free by design, but every rebind must hold the writer side.
    _embeddings = lockset.TrackedField("publish")

    def __init__(
        self,
        encoder: SentenceEncoder | None = None,
        dim: int = 768,
        method_params: dict[str, dict[str, Any]] | None = None,
        shards: int = 1,
        executor: "ExecutionBackend | str | None" = None,
        sanitize: bool | None = None,
        query_cache: "SemanticResultCache | bool | None" = None,
    ) -> None:
        #: Shared observability registry: every method and its vector-db
        #: collections record counters and per-stage latencies here.
        self.metrics = MetricsRegistry()
        if encoder is None:
            encoder = CachingEncoder(SemanticHashEncoder(dim=dim), metrics=self.metrics)
        self.encoder = encoder
        self.method_params = dict(method_params or {})
        unknown = set(self.method_params) - set(self.METHODS)
        if unknown:
            raise ConfigurationError(f"unknown methods in method_params: {sorted(unknown)}")
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        self.shards = shards
        self.sanitize = sanitize_enabled() if sanitize is None else bool(sanitize)
        self._embeddings: FederationEmbeddings | None = None
        self._methods: dict[str, SearchMethod] = {}
        from repro.cache import resolve_query_cache

        #: Semantic query-result cache above the methods; ``None`` when
        #: caching is off (the default).
        self.query_cache = resolve_query_cache(query_cache, metrics=self.metrics)
        #: Idle backend kept for :attr:`executor`; ``exec.*`` metrics land
        #: in the shared registry.  Owned iff the engine resolved it
        #: from a name (an injected instance is the caller's to close).
        self._owns_executor = not isinstance(executor, ExecutionBackend)
        self._executor = resolve_backend(executor, metrics=self.metrics)
        if self._owns_executor:
            # close() is the deterministic path; the finalizer only
            # reaps pools of engines that were never closed.
            weakref.finalize(self, self._executor.close)
        # Readers (searches) overlap; a writer (delta) is exclusive.
        self._lifecycle_lock = InstrumentedRWLock() if self.sanitize else RWLock()
        # Serializes lazy method construction between reader threads.
        # The two locks guard disjoint state and never nest the other
        # way around, so no ordering deadlock is possible.
        self._build_lock = threading.Lock()  # repro-lint: disable=RL004 -- build serialization only; never taken around _lifecycle_lock

    # -- indexing -----------------------------------------------------------

    def index(self, federation: Federation) -> "DiscoveryEngine":
        """Vectorize the federation (methods build lazily on first use).

        Embedding runs outside the lifecycle lock; swapping the store
        and dropping the built methods happens under the writer side,
        so a re-``index()`` while queries are in flight can never leave
        a reader holding a half-replaced engine.  (Found by RL001: this
        path historically mutated guarded state with no lock at all.)
        """
        embeddings = build_federation_embeddings(federation, self.encoder)
        self._swap_store(embeddings)
        return self

    def _swap_store(self, store: FederationEmbeddings) -> None:
        """Publish ``store`` under the writer side: close the methods
        built over the old store, release its snapshot backing and
        reset the query cache."""
        with self._lifecycle_lock.write():
            old_store = self._embeddings
            self._embeddings = store
            self._close_methods()
            if old_store is not None:
                old_store.release_backing()
            self._reset_query_cache(store.generation)
            self.metrics.gauge("engine.generation").set(store.generation)
            self.metrics.gauge("storage.mapped_bytes").set(float(live_mapped_nbytes()))

    @requires_lock("write")
    def _reset_query_cache(self, generation: int) -> None:
        """Store swap: drop every cached answer and republish.

        A fresh build restarts generation numbering, so the cache's
        epoch-bumping ``invalidate_all`` is the only correct reset — a
        bare generation compare could serve pre-swap entries whose
        numbers happen to recur.
        """
        if self.query_cache is None:
            return
        self.query_cache.invalidate_all()
        for name in self.METHODS:
            self.query_cache.publish_generation(name, generation)

    @property
    def embeddings(self) -> FederationEmbeddings:
        if self._embeddings is None:
            raise NotFittedError("DiscoveryEngine.index() has not been called")
        return self._embeddings

    @property
    def is_indexed(self) -> bool:
        return self._embeddings is not None

    @property
    def dtype(self) -> np.dtype:
        """The scan and snapshot dtype: always float32."""
        return np.dtype(np.float32)

    def save_index(self, path: str | Path) -> None:
        """Persist the federation embeddings as a float32 segment
        snapshot (not the method indexes, which rebuild quickly relative
        to re-embedding), so a mapped reload serves the exact bytes a
        cold build would compute.
        """
        with self._lifecycle_lock.read():
            save_federation_embeddings(self.embeddings, Path(path), metrics=self.metrics)

    def load_index(self, path: str | Path, mmap: bool = False) -> "DiscoveryEngine":
        """Restore embeddings saved by :meth:`save_index`.

        The engine must be configured with the same encoder settings
        that built the saved embeddings; a snapshot whose embedding
        dimensionality disagrees with this engine is rejected with a
        :class:`ConfigurationError` here rather than surfacing later as
        a shape error deep inside a scan kernel.

        ``mmap=True`` maps the vector segments read-only instead of
        materializing them: the call returns in milliseconds with the
        scan matrices backed by the snapshot files, pages faulting in
        lazily on first access.  Rankings and scores are identical to
        an eager load.  A path that is not a current segment snapshot
        raises :class:`~repro.errors.StorageError`; one saved in a
        retired layout, or with float64 vectors, converts with
        ``python -m repro.storage migrate``.
        """
        snapshot = open_snapshot(Path(path), metrics=self.metrics)
        loaded = embeddings_from_snapshot(snapshot, self.encoder, mmap=mmap)
        # Same writer-side swap as index(): loading is a store mutation.
        self._swap_store(loaded)
        return self

    def _make_method(self, name: str) -> SearchMethod:
        classes = {"exs": ExhaustiveSearch, "anns": ANNSearch, "cts": ClusteredTargetedSearch}
        if name not in classes:
            raise ConfigurationError(f"unknown method {name!r}; expected one of {self.METHODS}")
        return classes[name](**self.method_params.get(name, {}))

    def method(self, name: str) -> SearchMethod:
        """Get (building if needed) a search method's index."""
        if name not in self._methods:
            with self._build_lock:
                if name not in self._methods:
                    method = self._make_method(name)
                    method.sanitize = self.sanitize
                    # Share the engine's registry BEFORE index() so
                    # index-time structures (vector-db collections)
                    # report into it too.
                    method.metrics = self.metrics
                    method.index(self.embeddings)
                    # Lazy build happens under the READER lock by design:
                    # _build_lock serializes builders, dict publication is
                    # atomic, and concurrent readers either see the built
                    # method or build it themselves.
                    lockset.write(self, "_methods", policy="anylock")
                    self._methods[name] = method  # repro-lint: disable=RL001 -- lazy publication serialized by _build_lock; readers tolerate either state
                    self._publish_index_bytes()
        return self._methods[name]

    def _publish_index_bytes(self) -> None:
        """Resident bytes of the store's value table, counted once, plus
        what each built method owns."""
        # Snapshot: another reader may lazily publish a method mid-sum.
        total = sum(method.index_bytes() for method in list(self._methods.values()))
        if self._embeddings is not None:
            total += self._embeddings.table_nbytes
        self.metrics.gauge("engine.index_bytes").set(float(total))

    # -- execution & teardown ----------------------------------------------

    @property
    def executor(self) -> ExecutionBackend:
        """The engine's idle backend; kept because the frozen perf
        ledger (``bench/``) reads its ``exec.*`` metrics."""
        return self._executor

    @requires_lock("write")
    def _close_methods(self) -> None:
        """Close and drop every built method (caller holds the write
        lock)."""
        lockset.write(self, "_methods", policy="anylock")
        for method in self._methods.values():
            method.close()
        self._methods.clear()

    def close(self) -> None:
        """Release everything the engine owns: method indexes, the
        store's mapped snapshot files and — when the engine created it —
        the execution backend and its pool.
        Idempotent; the engine can be re-``index()``-d afterwards only
        with an injected, still-open backend."""
        with self._lifecycle_lock.write():
            self._close_methods()
            if self._embeddings is not None:
                self._embeddings.release_backing()
            if self.query_cache is not None:
                self.query_cache.invalidate_all()
            self.metrics.gauge("storage.mapped_bytes").set(float(live_mapped_nbytes()))
        if self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "DiscoveryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- incremental lifecycle ---------------------------------------------

    @staticmethod
    def _relation_pairs(relations: RelationsLike) -> list[tuple[str, Relation]]:
        if isinstance(relations, Mapping):
            pairs = list(relations.items())
        else:
            pairs = list(relations)
        seen: set[str] = set()
        for relation_id, _ in pairs:
            if relation_id in seen:
                raise ConfigurationError(f"relation {relation_id!r} appears twice in one delta")
            seen.add(relation_id)
        return pairs

    def add_relations(self, relations: RelationsLike) -> FederationDelta:
        """Add new relations to the live federation.

        ``relations`` maps qualified ``dataset/relation`` ids to
        :class:`Relation` objects (a mapping or an iterable of pairs).
        Only the new relations are embedded — encoding happens before
        the write lock is taken, so in-flight queries are not blocked
        by it — then the store and every built method index absorb the
        delta atomically.
        """
        pairs = self._relation_pairs(relations)
        self.embeddings  # fail fast before paying for the encode
        embedded = [
            build_relation_embedding(relation_id, relation, self.encoder)
            for relation_id, relation in pairs
        ]
        with self._lifecycle_lock.write():
            # Re-read under the lock: a concurrent index() may have
            # swapped the store since the fail-fast check, and the delta
            # must land in the store readers actually see.
            store = self.embeddings
            for embedding in embedded:
                if embedding.relation_id in store:
                    raise ConfigurationError(
                        f"relation {embedding.relation_id!r} already in federation"
                    )
            for embedding in embedded:
                store.add_relation(embedding.relation_id, embedding)
            return self._propagate(added=embedded)

    def update_relations(self, relations: RelationsLike) -> FederationDelta:
        """Re-embed revised relations and patch every built index."""
        pairs = self._relation_pairs(relations)
        self.embeddings  # fail fast before paying for the encode
        embedded = [
            build_relation_embedding(relation_id, relation, self.encoder)
            for relation_id, relation in pairs
        ]
        with self._lifecycle_lock.write():
            store = self.embeddings  # re-read: index() may have swapped it
            for embedding in embedded:
                store.position(embedding.relation_id)  # validate before mutating
            for embedding in embedded:
                store.update_relation(embedding.relation_id, embedding)
            return self._propagate(updated=embedded)

    def remove_relations(self, relation_ids: Iterable[str]) -> FederationDelta:
        """Retire relations from the live federation."""
        ids = list(relation_ids)
        if len(ids) != len(set(ids)):
            raise ConfigurationError("duplicate relation ids in one delta")
        self.embeddings  # fail fast before taking the writer side
        with self._lifecycle_lock.write():
            store = self.embeddings  # re-read: index() may have swapped it
            for relation_id in ids:
                store.position(relation_id)  # validate before mutating
            if store.n_relations - len(ids) < 1:
                raise ConfigurationError("a delta may not empty the federation")
            for relation_id in ids:
                store.remove_relation(relation_id)
            return self._propagate(removed=ids)

    @requires_lock("write")
    def _propagate(
        self,
        added: Sequence[RelationEmbedding] = (),
        updated: Sequence[RelationEmbedding] = (),
        removed: Sequence[str] = (),
    ) -> FederationDelta:
        """Thread one (already stored) delta through every built method
        and record the lifecycle metrics.  Caller holds the write lock."""
        store = self.embeddings
        store.absorb_delta(added, updated, removed)
        for method in self._methods.values():
            method.apply_delta(added, updated, removed)
        if self.query_cache is not None:
            # Publishing from under the write lock is the invalidation:
            # entries stamped with the pre-delta generation stop matching
            # the moment readers can run again (per-method, lazily).
            # Every delta here mutates the store all methods share, so
            # all three publications advance together; the per-method
            # granularity matters for caches fed by several stores.
            for name in self.METHODS:
                self.query_cache.publish_generation(name, store.generation)
        self.metrics.counter("engine.deltas").inc()
        self.metrics.counter("engine.relations_added").inc(len(added))
        self.metrics.counter("engine.relations_updated").inc(len(updated))
        self.metrics.counter("engine.relations_removed").inc(len(removed))
        self.metrics.gauge("engine.generation").set(store.generation)
        self._publish_index_bytes()
        return FederationDelta(
            added=tuple(added),
            updated=tuple(updated),
            removed=tuple(removed),
            generation=store.generation,
        )

    # -- querying ---------------------------------------------------------------

    def _query_vector(self, query: str) -> np.ndarray:
        """The query's unit-normalized float32 embedding (cache key).

        Goes through the engine's encoder, so with the default
        :class:`CachingEncoder` the method's own encode of the same text
        is a dictionary hit, not a second embedding pass.
        """
        return np.asarray(self.embeddings.encode_query(query), dtype=np.float32)

    @staticmethod
    def _signature(method: str, k: int, h: float) -> "CacheSignature":
        from repro.cache import CacheSignature

        return CacheSignature(method=method, k=k, h=h)

    @requires_lock("read")
    def _through_cache(
        self,
        queries: Sequence[str],
        method: str,
        k: int,
        h: float,
        run: Callable[[list[str]], Sequence[SearchResult]],
    ) -> list[SearchResult]:
        """Answer ``queries`` through the query cache.

        Hits replay their cached rankings; the misses go to ``run`` as
        ONE call (an all-hit batch never reaches the method, so
        ``<method>.batches`` stays put), and its fresh answers backfill
        both the result and the cache.
        """
        cache = self.query_cache
        assert cache is not None
        signature = self._signature(method, k, h)
        results: "list[SearchResult | None]" = [None] * len(queries)
        missing: list[int] = []
        for i, query in enumerate(queries):
            hit = cache.lookup(
                signature, query, encode=lambda q=query: self._query_vector(q)
            )
            if hit is None:
                missing.append(i)
            else:
                results[i] = hit.as_result(query, method)
        if missing:
            fresh = run([queries[i] for i in missing])
            generation = self.embeddings.generation
            for i, result in zip(missing, fresh):
                results[i] = result
                cache.insert(
                    signature, queries[i], self._query_vector(queries[i]),
                    result.matches, generation,
                )
        filled = [result for result in results if result is not None]
        assert len(filled) == len(queries)
        return filled

    def search(
        self, query: str, method: str = "cts", k: int = 10, h: float = 0.0
    ) -> SearchResult:
        """Answer a keyword query with the chosen algorithm."""
        with self._lifecycle_lock.read():
            self.metrics.counter("engine.queries").inc()
            if self.query_cache is None:
                return self.method(method).search(query, k=k, h=h)
            (result,) = self._through_cache(
                [query], method, k, h,
                lambda missed: [self.method(method).search(missed[0], k=k, h=h)],
            )
            return result

    def search_batch(
        self, queries: Iterable[str], method: str = "cts", k: int = 10, h: float = 0.0
    ) -> BatchResult:
        """Answer many queries in one call, amortizing shared work.

        Rankings and scores are element-wise equivalent to calling
        :meth:`search` per query; the batched kernels encode the whole
        block up front and scan it with matrix-matrix products (ExS),
        batch candidate retrieval (ANNS) or medoid routing (CTS).  The
        whole batch runs under one reader-lock acquisition, so it
        observes one complete federation generation.  Per-stage
        latencies land in :attr:`metrics`.
        """
        queries = list(queries)
        with self._lifecycle_lock.read():
            self.metrics.counter("engine.queries").inc(len(queries))
            self.metrics.counter("engine.batches").inc()
            if self.query_cache is None or not queries:
                return self.method(method).search_batch(queries, k=k, h=h)
            started = time.perf_counter()
            results = self._through_cache(
                queries, method, k, h,
                lambda missed: self.method(method).search_batch(missed, k=k, h=h),
            )
            return BatchResult(results, elapsed_ms=(time.perf_counter() - started) * 1000.0)

    def serving(self, **kwargs: Any) -> "ServingEngine":
        """An async micro-batching front end over this engine.

        Keyword arguments are forwarded to
        :class:`~repro.serving.ServingEngine` (window size, batch and
        queue bounds, tenant rate limits).  The serving layer shares
        this engine's metrics registry and lifecycle lock.
        """
        from repro.serving import ServingEngine

        return ServingEngine(self, **kwargs)
