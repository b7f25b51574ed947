"""The semantic query-result cache: exact + near-duplicate hits,
generation-precise invalidation, LRU + byte bounds.

Layered above the search methods and below the serving front end.
Discovery traffic is heavily repetitive — the same and near-duplicate
queries arrive over and over — so a warm cache turns repeated full
ExS/ANNS/CTS scans into sub-millisecond dictionary hits.

Design
------
* **Keys.**  Entries live in per-signature stores keyed by
  :class:`CacheSignature` ``(method, k, h, tenant?)``; within a store an
  entry is addressed by its exact query text *and* by its unit-normalized
  query embedding.
* **Lookup.**  An exact text hit is one dict probe.  On an exact miss,
  the near-duplicate probe scores the query vector against the store's
  cached vectors with ONE GEMM — :func:`repro.linalg.distances.
  cosine_similarity` in its ``normalized=True`` fast path, the exact
  cosine collection scan's kernel — and accepts the best neighbour at cosine
  ``>= tau``.  The probe matrix is republished lazily whenever the store
  changed, so the scan is a vectorized kernel call, never a Python loop.
* **Invalidation.**  Every entry records the store ``generation`` it was
  computed at (plus a cache ``epoch``); the writer publishes the current
  generation per method from under its write lock, and a lookup serves an
  entry only when both still match — so invalidation is lazy, exact, and
  per-method: publishing a new ExS generation never touches ANNS entries.
  ``invalidate_all`` (index swaps, where generation numbering restarts)
  bumps the epoch so recycled generation numbers can never resurrect
  pre-swap entries.
* **Concurrency.**  The cache owns NO lock (RL004: the read path is
  lock-free).  Entries and probe states are immutable once published;
  correctness rests entirely on the per-hit epoch/generation check.
  Insertions run on the engine's reader side (mutually exclusive with
  writer-side publication), while the serving event loop may probe
  lock-free from its own thread: under a racing writer it observes
  either the pre-delta publication (serving the pre-delta answer — the
  request overlaps the delta, so that order is linearizable) or the
  post-delta one (entries mismatch and the request falls through to the
  locked path).  Unsynchronized housekeeping races can at worst drop a
  live entry or reuse a slightly stale probe matrix — each candidate is
  still generation-checked — never serve a stale result.
* **Bounds.**  Capacity is bounded by entry count and by an estimated
  byte budget; eviction is LRU over a monotone use tick, surfaced with
  the ``cache.evictions`` counter and the ``cache.bytes`` gauge.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.annotations import requires_lock
from repro.core.results import RelationMatch, SearchResult
from repro.errors import ConfigurationError
from repro.linalg.distances import cosine_similarity
from repro.obs import MetricsRegistry
from repro.sanitize import lockset

__all__ = [
    "CacheHit",
    "CacheSignature",
    "SemanticResultCache",
    "resolve_query_cache",
]

#: Default near-duplicate acceptance threshold.  ``tau=1.0`` is
#: effectively exact-only: float32 roundoff keeps even an identical
#: re-encoded vector a hair below 1.0, so only the text hash map hits.
DEFAULT_TAU = 0.98

DEFAULT_CAPACITY = 4096
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class CacheSignature:
    """Everything besides the query that shapes a ranked answer."""

    method: str
    k: int
    h: float
    tenant: str | None = None


@dataclass(frozen=True)
class CacheHit:
    """One served lookup: the cached ranking plus provenance."""

    matches: tuple[RelationMatch, ...]
    kind: str  #: ``"exact"`` or ``"near"``
    similarity: float  #: cosine to the cached query (1.0 for exact)
    source_query: str  #: the query text that computed the entry
    generation: int  #: store generation the entry was computed at

    def as_result(self, query: str, method: str) -> SearchResult:
        """The hit as a :class:`SearchResult` for ``query``.

        Matches are the very objects the original computation produced,
        so an exact replay is bitwise-identical to the uncached answer.
        """
        return SearchResult(query=query, method=method, matches=list(self.matches))


class _Entry:
    """One cached answer; immutable but for the LRU use tick."""

    __slots__ = ("query", "vector", "matches", "epoch", "generation", "nbytes", "last_used")

    def __init__(
        self,
        query: str,
        vector: np.ndarray,
        matches: tuple[RelationMatch, ...],
        epoch: int,
        generation: int,
        nbytes: int,
        last_used: int,
    ) -> None:
        self.query = query
        self.vector = vector
        self.matches = matches
        self.epoch = epoch
        self.generation = generation
        self.nbytes = nbytes
        self.last_used = last_used


class _SignatureStore:
    """Entries for one :class:`CacheSignature` plus their probe state.

    ``probe`` is published as one immutable ``(version, matrix, entries)``
    tuple — a torn read is impossible, a stale one merely rescans an old
    matrix whose candidates are still generation-checked individually.
    """

    __slots__ = ("entries", "version", "probe")

    def __init__(self) -> None:
        self.entries: dict[str, _Entry] = {}
        self.version = 0
        self.probe: "tuple[int, np.ndarray, tuple[_Entry, ...]] | None" = None


class SemanticResultCache:
    """Query-result cache keyed on embedding geometry; module docstring
    has the full design.

    Parameters
    ----------
    capacity:
        Maximum cached entries across all signatures (LRU beyond).
    max_bytes:
        Estimated byte budget for vectors + rankings (LRU beyond).
    tau:
        Near-duplicate acceptance threshold on cosine similarity, in
        ``(0, 1]``.  ``1.0`` disables near hits in practice (see
        :data:`DEFAULT_TAU`).
    metrics:
        Registry for the ``cache.*`` vocabulary; the engine injects its
        own so one snapshot shows the whole request path.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        max_bytes: int = DEFAULT_MAX_BYTES,
        tau: float = DEFAULT_TAU,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        if max_bytes < 1:
            raise ConfigurationError("max_bytes must be >= 1")
        if not 0.0 < tau <= 1.0:
            raise ConfigurationError("tau must be in (0, 1]")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.tau = float(tau)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._stores: dict[CacheSignature, _SignatureStore] = {}
        self._generations: dict[str, int] = {}
        self._epoch = 0
        self._ticks = itertools.count(1)

    # -- writer-side publication ------------------------------------------

    @requires_lock("write")
    def publish_generation(self, method: str, generation: int) -> None:
        """Declare ``method``'s current store generation (writer side).

        Entries of other methods are untouched: an ExS-only publication
        never invalidates ANNS entries whose generation is unchanged.
        """
        lockset.write(self, "_generations", policy="anylock")
        self._generations[method] = int(generation)

    @requires_lock("write")
    def invalidate_all(self) -> None:
        """Drop everything and start a new epoch (writer side).

        Index swaps restart generation numbering, so a bare generation
        compare could resurrect pre-swap entries; the epoch bump makes
        every old entry fail its check even on a recycled number.  The
        store dict is rebound, not cleared, so a lock-free reader mid-
        lookup keeps a coherent (now unreachable) snapshot.
        """
        dropped = sum(len(store.entries) for store in self._stores.values())
        lockset.write(self, "_stores", policy="publish")
        lockset.write(self, "_generations", policy="publish")
        self._epoch += 1
        self._stores = {}
        self._generations = {}
        if dropped:
            self.metrics.counter("cache.evictions").inc(dropped)
        self.metrics.gauge("cache.bytes").set(0.0)

    # -- the read path (lock-free) ----------------------------------------

    def lookup(
        self,
        signature: CacheSignature,
        query: str,
        encode: "Callable[[], np.ndarray] | None" = None,
    ) -> CacheHit | None:
        """Serve ``query`` from cache, or record a miss.

        ``encode`` lazily supplies the query's unit vector and enables
        the near-duplicate probe; without it only exact text hits are
        considered.  Safe to call from any thread without holding the
        engine's lifecycle lock — validity is decided solely by the
        writer-published epoch/generation pair.
        """
        stores = self._stores
        store = stores.get(signature)
        current = self._generations.get(signature.method)
        epoch = self._epoch
        if store is not None and current is not None:
            entry = store.entries.get(query)
            if entry is not None:
                if entry.epoch == epoch and entry.generation == current:
                    entry.last_used = next(self._ticks)
                    self.metrics.counter("cache.hits").inc()
                    return CacheHit(entry.matches, "exact", 1.0, entry.query, entry.generation)
                self._discard(store, entry)
            if encode is not None and self.tau < 1.0:
                hit = self._probe(store, encode, epoch, current)
                if hit is not None:
                    return hit
        self.metrics.counter("cache.misses").inc()
        return None

    def _probe(
        self,
        store: _SignatureStore,
        encode: "Callable[[], np.ndarray]",
        epoch: int,
        current: int,
    ) -> CacheHit | None:
        """Near-duplicate scan: ONE GEMM over the store's query vectors."""
        state = store.probe
        version = store.version
        if state is None or state[0] != version:
            entries = tuple(store.entries.values())
            if not entries:
                return None
            matrix = np.stack([entry.vector for entry in entries])
            state = (version, matrix, entries)
            store.probe = state
        _, matrix, entries = state
        qvec = np.asarray(encode(), dtype=np.float32).reshape(1, -1)
        if qvec.shape[1] != matrix.shape[1]:
            return None  # stale probe state across an index swap
        with self.metrics.timer("cache.probe_ms"):
            sims = cosine_similarity(matrix, qvec, normalized=True)[:, 0]
        best = int(np.argmax(sims))
        similarity = float(sims[best])
        if similarity < self.tau:
            return None
        entry = entries[best]
        if entry.epoch != epoch or entry.generation != current:
            self._discard(store, entry)
            return None
        entry.last_used = next(self._ticks)
        self.metrics.counter("cache.near_hits").inc()
        return CacheHit(entry.matches, "near", similarity, entry.query, entry.generation)

    # -- insertion and bounds (engine reader side) ------------------------

    @requires_lock("read")
    def insert(
        self,
        signature: CacheSignature,
        query: str,
        vector: np.ndarray,
        matches: Sequence[RelationMatch],
        generation: int,
    ) -> None:
        """Record one computed answer at ``generation``.

        Call with the engine's reader lock held: that makes insertion
        mutually exclusive with writer-side publication, so an entry can
        never be stamped with a generation that is already stale.  An
        insert whose generation disagrees with the published one (a
        standalone-cache misuse) is silently dropped.
        """
        lockset.write(self, "_stores", policy="anylock")
        lockset.write(self, "_generations", policy="anylock")
        current = self._generations.setdefault(signature.method, int(generation))
        if int(generation) != current:
            return
        vec = np.ascontiguousarray(np.asarray(vector, dtype=np.float32).reshape(-1))
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec = vec / np.float32(norm)
        vec.setflags(write=False)
        matches_t = tuple(matches)
        entry = _Entry(
            query=query,
            vector=vec,
            matches=matches_t,
            epoch=self._epoch,
            generation=int(generation),
            nbytes=self._entry_nbytes(query, vec, matches_t),
            last_used=next(self._ticks),
        )
        store = self._stores.get(signature)
        if store is None:
            store = self._stores.setdefault(signature, _SignatureStore())
        store.entries[query] = entry
        store.version += 1
        self._enforce_bounds()
        self.metrics.gauge("cache.bytes").set(float(self.total_bytes()))

    @staticmethod
    def _entry_nbytes(query: str, vector: np.ndarray, matches: tuple[RelationMatch, ...]) -> int:
        """Deterministic estimate of one entry's resident footprint."""
        nbytes = int(vector.nbytes) + 64 + 2 * len(query)
        for match in matches:
            nbytes += 120 + 2 * len(match.relation_id)
        return nbytes

    def _discard(self, store: _SignatureStore, entry: _Entry) -> None:
        """Drop one entry (stale or evicted); races may drop a same-key
        successor instead, which only costs a future recompute."""
        removed = store.entries.pop(entry.query, None)
        store.version += 1
        if removed is not None:
            self.metrics.counter("cache.evictions").inc()

    def _enforce_bounds(self) -> None:
        """Evict least-recently-used entries past either bound."""
        items = [
            (entry.last_used, store, entry)
            for store in list(self._stores.values())
            for entry in list(store.entries.values())
        ]
        count = len(items)
        nbytes = sum(entry.nbytes for _, _, entry in items)
        if count <= self.capacity and nbytes <= self.max_bytes:
            return
        items.sort(key=lambda item: item[0])
        for _, store, entry in items:
            if count <= self.capacity and nbytes <= self.max_bytes:
                break
            self._discard(store, entry)
            count -= 1
            nbytes -= entry.nbytes

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(store.entries) for store in list(self._stores.values()))

    def total_bytes(self) -> int:
        """Estimated resident bytes across all cached entries."""
        return sum(
            entry.nbytes
            for store in list(self._stores.values())
            for entry in list(store.entries.values())
        )

    def info(self) -> dict[str, int | float]:
        """Size/occupancy snapshot for instrumentation."""
        return {
            "entries": len(self),
            "bytes": self.total_bytes(),
            "signatures": len(self._stores),
            "epoch": self._epoch,
            "tau": self.tau,
        }


def resolve_query_cache(
    spec: "SemanticResultCache | bool | None",
    metrics: MetricsRegistry | None = None,
) -> SemanticResultCache | None:
    """Resolve the engine's ``query_cache`` argument to an instance.

    ``spec`` may be a ready :class:`SemanticResultCache` (adopted as-is,
    its registry rebound to ``metrics`` when given), ``True`` for a
    cache with default settings, or ``False``/``None`` for no cache.
    Anything else raises :class:`~repro.errors.ConfigurationError`.
    """
    if isinstance(spec, SemanticResultCache):
        if metrics is not None:
            spec.metrics = metrics
        return spec
    if spec is None or spec is False:
        return None
    if spec is True:
        return SemanticResultCache(metrics=metrics)
    raise ConfigurationError(
        f"query_cache takes a SemanticResultCache, a bool or None, not {spec!r}"
    )
