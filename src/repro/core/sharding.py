"""Sharded federation stores and scatter-gather search execution.

One monolithic :class:`~repro.core.semimg.FederationEmbeddings` caps
every method at what a single stacked matrix, value collection or
clustering can hold — and every delta at one global critical section.
This module splits the store into ``N`` shards and turns each search
method into a scatter-gather plan over per-shard indexes:

* :class:`ShardMap` — deterministic ``relation_id -> shard`` placement
  via rendezvous (highest-random-weight) hashing, so growing the shard
  count only moves relations *onto* the new shard and a delta never
  reshuffles untouched relations;
* :class:`ShardedStore` — partitions one federation store into
  per-shard :class:`FederationEmbeddings` (the immutable
  :class:`~repro.core.semimg.RelationEmbedding` objects are shared, not
  copied) and routes each lifecycle delta to the owning shards only;
* :class:`ShardedSearch` / :class:`ShardedANNSearch` — a
  :class:`~repro.core.base.SearchMethod` that owns one real method
  index per shard, scatters each query (or encoded query block) across
  them — one thread-pool task per shard when ``workers > 1`` — and
  gathers with an exact merge.

Exactness of the merge: ExS and CTS score a relation from that
relation's vectors alone and ``(-score, relation_id)`` is a total
order, so the global top-k is a subset of the union of the shards' own
top-k.  Every shard therefore cuts its answer to k, the gather feeds
those at most ``k * shards`` candidates per query into the shared
threshold/sort/top-k finalizer, and the sharded ranking equals the
unsharded one.  ANNS has one cross-relation coupling — the global
candidate budget — so its gather works at the *candidate* level: every
shard retrieves the global budget of nearest value points, duplicates
(the vector for a value text is canonical, so cross-shard copies score
identically) are folded together with their owner payloads merged, and
the merged list is re-cut to the global budget before relation
grouping — the classic distributed top-k.  With an exact index this
reproduces the unsharded candidate set, hence the unsharded scores;
graph indexes stay approximate per shard, exactly as they are
unsharded.  CTS clusters each shard independently and routes each
query into every shard's ``top_clusters`` best clusters, so its
sharded semantics are per-shard (documented in the README).
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.core.annotations import requires_lock
from repro.core.anns import ANNSearch
from repro.core.base import SearchMethod
from repro.core.results import RelationMatch
from repro.core.semimg import FederationEmbeddings, RelationEmbedding
from repro.errors import ConfigurationError
from repro.exec import ExecutionBackend
from repro.sanitize import lockset
from repro.vectordb.collection import ScoredPoint

__all__ = [
    "ShardMap",
    "ShardedANNSearch",
    "ShardedSearch",
    "ShardedStore",
    "make_sharded_method",
]

#: Builds a fresh, unindexed method instance (one per shard).
MethodFactory = Callable[[], SearchMethod]

#: One shard's slice of a federation delta.
ShardDelta = tuple[list[RelationEmbedding], list[RelationEmbedding], list[str]]

#: Distinguishes scan-state keys of same-named sharded methods on one
#: shared backend (an engine re-``index()`` builds a fresh wrapper).
_SCAN_SCOPES = itertools.count()


class ShardMap:
    """Deterministic ``relation_id -> shard`` placement.

    Rendezvous (highest-random-weight) hashing: every ``(shard,
    relation_id)`` pair gets a pseudo-random weight from a keyed
    blake2b digest and the relation lives on the shard with the
    highest weight.  Two properties matter here:

    * the mapping is a pure function of ``(seed, n_shards,
      relation_id)`` — identical across processes and sessions (unlike
      Python's salted ``hash``), so a reloaded engine re-partitions a
      persisted store exactly as before;
    * growing ``n_shards`` by one leaves every existing weight intact,
      so a relation either stays put or moves to the *new* shard —
      resharding never shuffles relations between surviving shards.
    """

    def __init__(self, n_shards: int, seed: int = 0) -> None:
        if n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.seed = seed
        self._memo: dict[str, int] = {}

    def _weight(self, shard: int, relation_id: str) -> int:
        payload = f"{self.seed}|{shard}|{relation_id}".encode()
        return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")

    def shard_of(self, relation_id: str) -> int:
        """The shard owning ``relation_id`` (memoized per instance)."""
        shard = self._memo.get(relation_id)
        if shard is None:
            if self.n_shards == 1:
                shard = 0
            else:
                shard = max(
                    range(self.n_shards),
                    key=lambda s: self._weight(s, relation_id),
                )
            self._memo[relation_id] = shard
        return shard

    def partition(self, relation_ids: Iterable[str]) -> list[list[str]]:
        """Group ``relation_ids`` by owning shard (order preserved)."""
        out: list[list[str]] = [[] for _ in range(self.n_shards)]
        for relation_id in relation_ids:
            out[self.shard_of(relation_id)].append(relation_id)
        return out


class ShardedStore:
    """One federation store partitioned into per-shard stores.

    The global ``store`` stays the source of truth (persistence and
    validation run against it); each shard holds a
    :class:`FederationEmbeddings` over *its* relations, sharing the
    embedded :class:`RelationEmbedding` objects — partitioning never
    re-embeds or copies vectors.  Shard stores are created with
    ``allow_empty=True``: hashing a small federation over many shards,
    or a delta retiring a shard's last relation, legitimately leaves a
    shard with nothing.
    """

    def __init__(
        self,
        store: FederationEmbeddings,
        shard_map: ShardMap,
        shards: "list[FederationEmbeddings] | None" = None,
    ) -> None:
        self.store = store
        self.shard_map = shard_map
        if shards is not None:
            # Adopt pre-partitioned shard stores — the snapshot reload
            # path, where each shard directory materialized (or mapped)
            # its own store and re-partitioning from the global store
            # would throw those per-shard backings away.  Placement must
            # agree with the shard map or scatter-gather would misroute
            # deltas.
            if len(shards) != shard_map.n_shards:
                raise ConfigurationError(
                    f"got {len(shards)} prebuilt shard stores for a "
                    f"{shard_map.n_shards}-shard map"
                )
            for index, shard in enumerate(shards):
                for relation in shard.relations:
                    owner = shard_map.shard_of(relation.relation_id)
                    if owner != index:
                        raise ConfigurationError(
                            f"relation {relation.relation_id!r} sits on shard "
                            f"{index} but the shard map places it on {owner}"
                        )
            self.shards: list[FederationEmbeddings] = list(shards)
            return
        self.shards = [
            FederationEmbeddings(relations=[], encoder=store.encoder, allow_empty=True)
            for _ in range(shard_map.n_shards)
        ]
        for relation in store.relations:
            self.shards[shard_map.shard_of(relation.relation_id)].relations.append(relation)

    @property
    def n_shards(self) -> int:
        return self.shard_map.n_shards

    def shard_sizes(self) -> list[int]:
        """Relations per shard (skew shows up here)."""
        return [shard.n_relations for shard in self.shards]

    def route(
        self,
        added: Sequence[RelationEmbedding],
        updated: Sequence[RelationEmbedding],
        removed: Sequence[str],
    ) -> dict[int, ShardDelta]:
        """Split one federation delta by owning shard.

        Only shards that actually own a touched relation appear in the
        result, which is what keeps a writer's critical section
        proportional to the shards a delta touches rather than to the
        shard count.
        """
        per_shard: dict[int, ShardDelta] = {}

        def slot(relation_id: str) -> ShardDelta:
            shard = self.shard_map.shard_of(relation_id)
            if shard not in per_shard:
                per_shard[shard] = ([], [], [])
            return per_shard[shard]

        for embedding in added:
            slot(embedding.relation_id)[0].append(embedding)
        for embedding in updated:
            slot(embedding.relation_id)[1].append(embedding)
        for relation_id in removed:
            slot(relation_id)[2].append(relation_id)
        return per_shard

    @requires_lock("write")
    def apply_delta(
        self,
        added: Sequence[RelationEmbedding],
        updated: Sequence[RelationEmbedding],
        removed: Sequence[str],
    ) -> dict[int, ShardDelta]:
        """Mutate the owning shard stores (the global store is already
        mutated by the engine) and return the per-shard routing."""
        lockset.write(self, "shards", policy="publish")
        routed = self.route(added, updated, removed)
        for shard, (to_add, to_update, to_remove) in routed.items():
            store = self.shards[shard]
            for embedding in to_add:
                store.add_relation(embedding.relation_id, embedding)
            for embedding in to_update:
                store.update_relation(embedding.relation_id, embedding)
            for relation_id in to_remove:
                store.remove_relation(relation_id)
        return routed


class ShardedSearch(SearchMethod):
    """Scatter-gather execution of one search method over N shards.

    Owns one real method instance per non-empty shard (named
    ``<method>.shard<i>`` so its stage timers — ``exs.shard3.scan`` —
    and gauges are distinguishable in the shared registry), presents
    the ordinary :class:`SearchMethod` surface, and serves queries by
    scattering across the shard indexes, letting each shard rank its
    own top-k, and gathering those with an exact merge through the
    shared threshold/sort/top-k finalizer.

    ``search_batch(..., workers=N)`` scatters the whole query block
    with one thread-pool task per shard — the sharded counterpart of
    the unsharded relation-chunked pool, with the chunk boundaries
    fixed at shard boundaries.
    """

    def __init__(
        self,
        factory: MethodFactory,
        store: ShardedStore,
        prototype: SearchMethod | None = None,
    ) -> None:
        super().__init__()
        self._factory = factory
        self._store = store
        #: Carries the method's hyper-parameters and scoring helpers;
        #: never indexed itself.
        self._prototype = prototype if prototype is not None else factory()
        self.name = self._prototype.name
        self._shard_methods: list[SearchMethod | None] = [None] * store.n_shards
        #: Shard -> generation of the scan state published to a
        #: process backend's workers (empty unless the backend hosts
        #: resident shard state).
        self._published: dict[int, int] = {}
        self._scan_scope = next(_SCAN_SCOPES)

    @property
    def shard_methods(self) -> list[SearchMethod | None]:
        """Per-shard method instances (``None`` for empty shards)."""
        return list(self._shard_methods)

    def _build(self) -> None:
        for method in self._shard_methods:
            if method is not None:
                method.close()
        self._shard_methods = [
            self._build_shard(i) if shard.n_relations else None
            for i, shard in enumerate(self._store.shards)
        ]
        for shard in range(self._store.n_shards):
            self._sync_worker(shard)

    def _build_shard(self, shard: int) -> SearchMethod:
        method = self._factory()
        method.name = f"{self.name}.shard{shard}"
        method.metrics = self.metrics
        method.executor = self._backend()
        method.index(self._store.shards[shard])
        return method

    def _live(self) -> list[SearchMethod]:
        return [method for method in self._shard_methods if method is not None]

    def index_bytes(self) -> int:
        """Total resident bytes across live shard indexes."""
        return sum(method.index_bytes() for method in self._live())

    # -- resident worker state ---------------------------------------------

    def _scan_key(self, shard: int) -> str:
        return f"{self.name}#{self._scan_scope}:{shard}"

    def _scan_backend(self) -> ExecutionBackend | None:
        """The backend hosting resident shard state, if ours does."""
        backend = self._backend()
        return backend if backend.supports_shard_scans else None

    def _sync_worker(self, shard: int) -> None:
        """Reconcile one shard's published worker state with its index.

        Publishes the shard method's :meth:`scan_spec` when the
        resident generation is stale (or state was never published),
        drops it when the shard drained empty or the method has no
        resident-scan form.  Runs at build and after every delta —
        under the engine's writer lock, so a scan never races a swap.
        """
        backend = self._scan_backend()
        if backend is None:
            return
        key = self._scan_key(shard)
        method = self._shard_methods[shard]
        spec = method.scan_spec() if method is not None else None
        if spec is None:
            if self._published.pop(shard, None) is not None:
                backend.drop_shard(key)
            return
        if self._published.get(shard) == spec.generation:
            return
        backend.publish_shard(key, spec)
        self._published[shard] = spec.generation

    def close(self) -> None:
        """Drop published worker state, close shard indexes (releasing
        their shared buffers), then the base method resources."""
        backend = self._executor if self._executor is not None else self._owned_executor
        if backend is not None and backend.supports_shard_scans:
            for shard in list(self._published):
                backend.drop_shard(self._scan_key(shard))
        self._published.clear()
        for method in self._shard_methods:
            if method is not None:
                method.close()
        super().close()

    # -- incremental lifecycle ---------------------------------------------

    @requires_lock("write")
    def _apply_delta(
        self,
        added: list[RelationEmbedding],
        updated: list[RelationEmbedding],
        removed: list[str],
    ) -> None:
        """Route index maintenance to the touched shards only.

        The shard *stores* were already mutated (the engine applies the
        delta to its :class:`ShardedStore` before propagating to method
        indexes, mirroring the unsharded store-then-index order).  A
        shard drained empty drops its index; a shard gaining its first
        relations builds one from its store.
        """
        for shard, (to_add, to_update, to_remove) in self._store.route(
            added, updated, removed
        ).items():
            method = self._shard_methods[shard]
            if not self._store.shards[shard].n_relations:
                self._shard_methods[shard] = None
                if method is not None:
                    method.close()
            elif method is None:
                self._shard_methods[shard] = self._build_shard(shard)
            else:
                method.apply_delta(to_add, to_update, to_remove)
            self._sync_worker(shard)

    # -- scatter-gather ----------------------------------------------------

    def _gather(
        self, parts: list[list[list[RelationMatch]]], k: int, h: float
    ) -> list[list[RelationMatch]]:
        """Exact merge of per-shard top-k lists (``parts[shard][query]``).

        Per-relation scores are shard-local and ``(-score,
        relation_id)`` is a total order, so the global top-k is a
        subset of the union of the shards' own top-k: the gather ranks
        at most ``k * shards`` candidates per query.
        """
        with self.metrics.timer(f"{self.name}.merge"):
            return [
                self._finalize([m for part in per_query for m in part], k, h)
                for per_query in zip(*parts)
            ]

    def _top_k(self, query: str, k: int, h: float) -> list[RelationMatch]:
        parts = [[method._top_k(query, k, h)] for method in self._live()]
        return self._gather(parts, k, h)[0]

    def _scan_resident(
        self, queries: Sequence[str], k: int, h: float
    ) -> list[list[list[RelationMatch]]] | None:
        """Scatter the encoded query block to worker-resident shards.

        The fast path on a process backend: every live shard's scan
        state already lives in a worker process (published at build /
        delta time), so the batch crosses the pipe as one encoded
        block per shard and only score matrices come back — no index
        pickling, no GIL — each cut to its shard's top-k on arrival.
        Returns ``None`` when the backend hosts no resident state or
        any live shard lacks a published spec (a method without a
        resident-scan form); callers then fall back to in-process
        per-shard scans.
        """
        backend = self._scan_backend()
        if backend is None:
            return None
        live_shards = [
            shard
            for shard, method in enumerate(self._shard_methods)
            if method is not None
        ]
        if not live_shards or any(s not in self._published for s in live_shards):
            return None
        with self.metrics.timer(f"{self.name}.encode"):
            block = np.stack([self.embeddings.encode_query(q) for q in queries])
        dtype = getattr(self._prototype, "dtype", None)
        if dtype is not None:
            block = block.astype(dtype, copy=False)
        block = np.ascontiguousarray(block)
        scores = backend.scan_shards(
            [(self._scan_key(s), self._published[s], block) for s in live_shards]
        )
        parts: list[list[list[RelationMatch]]] = []
        for shard, shard_scores in zip(live_shards, scores):
            method = self._shard_methods[shard]
            assert method is not None
            parts.append(method.rank_scores(shard_scores, k, h))
        return parts

    def _top_k_batch(
        self, queries: Sequence[str], k: int, h: float, workers: int = 1
    ) -> list[list[RelationMatch]]:
        """Every shard cuts the batch to its own top-k, then one merge.

        ``workers > 1`` runs one backend task per shard: on a thread
        backend the per-shard kernels release the GIL inside BLAS, on a
        process backend the scan runs in the workers holding resident
        state.
        """
        live = self._live()
        if len(live) > 1 and workers > 1:
            parts = self._scan_resident(queries, k, h)
            if parts is None:
                parts = self._backend().map(
                    lambda method: method._top_k_batch(queries, k, h), live, cap=workers
                )
        else:
            parts = [method._top_k_batch(queries, k, h) for method in live]
        return self._gather(parts, k, h)


class ShardedANNSearch(ShardedSearch):
    """ANNS scatter-gather with a candidate-level distributed top-k.

    ANNS is the one method whose relation scores couple across shards:
    a relation's evidence is its values *within the global candidate
    budget*.  Each shard therefore retrieves the full global budget of
    nearest value points, the gather folds duplicate values together
    (same text -> same canonical vector -> identical score; owner
    payloads are disjoint across shards and simply concatenate) and
    re-cuts the merged list to the global budget before grouping by
    relation — so with an exact index the candidate set, and hence
    every relation score, matches the unsharded engine.
    """

    def __init__(
        self,
        factory: MethodFactory,
        store: ShardedStore,
        prototype: SearchMethod | None = None,
    ) -> None:
        super().__init__(factory, store, prototype)
        if not isinstance(self._prototype, ANNSearch):
            raise ConfigurationError("ShardedANNSearch requires an ANNSearch factory")
        self._anns_prototype: ANNSearch = self._prototype

    def _budget(self) -> int:
        """The unsharded candidate budget — sized by the GLOBAL relation
        count, not any shard's."""
        return self._anns_prototype.candidate_budget(self.embeddings.n_relations)

    def _shard_anns(self) -> list[ANNSearch]:
        return [method for method in self._live() if isinstance(method, ANNSearch)]

    def _merge_hits(
        self, hit_lists: list[list[ScoredPoint]], budget: int
    ) -> list[ScoredPoint]:
        best: dict[str, ScoredPoint] = {}
        for hits in hit_lists:
            for hit in hits:
                value = str(hit.payload["value"])
                prev = best.get(value)
                if prev is None:
                    best[value] = hit
                else:
                    # Never mutate a shard's stored payload in place.
                    best[value] = ScoredPoint(
                        id=prev.id,
                        score=max(prev.score, hit.score),
                        payload={
                            "value": value,
                            "owners": list(prev.payload["owners"])
                            + list(hit.payload["owners"]),
                        },
                    )
        ranked = sorted(best.values(), key=lambda h: (-h.score, str(h.payload["value"])))
        return ranked[:budget]

    def _gather_hits(
        self, per_shard: list[list[list[ScoredPoint]]], budget: int, k: int, h: float
    ) -> list[list[RelationMatch]]:
        """Merge ``per_shard[shard][query]`` hit lists, then rank once,
        globally: relation scores only exist over the merged candidates."""
        with self.metrics.timer(f"{self.name}.merge"):
            merged = [self._merge_hits(list(hit_lists), budget) for hit_lists in zip(*per_shard)]
        return [self._finalize(self._anns_prototype._group_hits(hits), k, h) for hits in merged]

    def _top_k(self, query: str, k: int, h: float) -> list[RelationMatch]:
        with self.metrics.timer(f"{self.name}.encode"):
            q = self.embeddings.encode_query(query)
        budget = self._budget()
        per_shard = [[shard.retrieve(q, budget)] for shard in self._shard_anns()]
        return self._gather_hits(per_shard, budget, k, h)[0]

    def _top_k_batch(
        self, queries: Sequence[str], k: int, h: float, workers: int = 1
    ) -> list[list[RelationMatch]]:
        shards = self._shard_anns()
        block = self._encode_block(queries)
        budget = self._budget()
        if len(shards) > 1 and workers > 1:
            per_shard = self._backend().map(
                lambda shard: shard.retrieve_batch(block, budget), shards, cap=workers
            )
        else:
            per_shard = [shard.retrieve_batch(block, budget) for shard in shards]
        return self._gather_hits(per_shard, budget, k, h)

    def _encode_block(self, queries: Sequence[str]) -> np.ndarray:
        with self.metrics.timer(f"{self.name}.encode"):
            return np.stack([self.embeddings.encode_query(q) for q in queries])


def make_sharded_method(factory: MethodFactory, store: ShardedStore) -> ShardedSearch:
    """The scatter-gather wrapper fitting ``factory``'s method.

    ANNS needs the candidate-level gather; every method whose relation
    scores are shard-local takes the generic score-list merge.
    """
    prototype = factory()
    if isinstance(prototype, ANNSearch):
        return ShardedANNSearch(factory, store, prototype)
    return ShardedSearch(factory, store, prototype)
