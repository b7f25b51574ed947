"""Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2018).

A from-scratch HNSW index:

* multi-layer proximity graph; the top layer of each element is drawn
  from an exponentially decaying distribution (paper Sec 4.2: "the
  maximum layer in which an element is present is selected randomly
  with an exponentially decaying probability distribution");
* greedy descent through upper layers, beam (``ef``) search at the
  target layer;
* the heuristic neighbour-selection rule (Algorithm 4 of the HNSW
  paper) that keeps graphs navigable in clustered data.

Insertion evaluates each hop's candidate neighbourhood in one numpy
gather + GEMV.  A query instead computes its distance to every stored
vector in one pass up front (a GEMV for cosine): the greedy descent and
the layer-0 beam then read those distances from Python, with no numpy
call per hop.  Both drive the same descent and beam loops through a
``dist_of(ids)`` callable.  The trade pays while the beam touches most
of the store, as ANNS's wide beam does (DESIGN.md measures the share).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

import numpy as np

from repro.ann.base import VectorIndex
from repro.errors import ConfigurationError
from repro.linalg.distances import Metric, normalize_rows

__all__ = ["HNSWIndex"]

#: ``dist_of(ids)``: distances (smaller = closer) from the current query
#: to the given node ids, as Python floats.
DistOf = Callable[[list[int]], list[float]]


class HNSWIndex(VectorIndex):
    """HNSW approximate nearest-neighbour index.

    Parameters
    ----------
    metric:
        Similarity metric; cosine (the paper's choice) pre-normalizes
        stored vectors.
    m:
        Target out-degree per node on upper layers (layer 0 allows 2m).
    ef_construction:
        Beam width while inserting; larger builds better graphs slower.
    ef_search:
        Default beam width at query time (overridable per query).
    seed:
        Seed for level sampling, making index construction
        deterministic.
    """

    def __init__(
        self,
        metric: Metric = Metric.COSINE,
        m: int = 16,
        ef_construction: int = 100,
        ef_search: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(metric)
        if m < 2:
            raise ConfigurationError("m must be >= 2")
        if ef_construction < m:
            raise ConfigurationError("ef_construction must be >= m")
        if ef_search < 1:
            raise ConfigurationError("ef_search must be >= 1")
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.seed = seed
        self._level_mult = 1.0 / math.log(m)
        # repro-lint: disable=RL003 -- pre-build placeholder; build() adopts the input dtype
        self._vectors = np.empty((0, 0), dtype=np.float64)
        # _graph[node][layer] -> list of neighbour ids
        self._graph: list[list[list[int]]] = []
        self._entry_point: int | None = None
        self._max_layer = -1
        self._rng = np.random.default_rng(seed)

    # -- distances ------------------------------------------------------

    def _prepare(self, vectors: np.ndarray) -> np.ndarray:
        if self.metric is Metric.COSINE:
            return normalize_rows(vectors)
        return vectors

    def _dist(self, query: np.ndarray, ids: list[int] | np.ndarray) -> np.ndarray:
        """Distances (smaller = closer) from query to the given rows."""
        rows = self._vectors[np.asarray(ids, dtype=np.intp)]
        if self.metric is Metric.EUCLIDEAN:
            return np.linalg.norm(rows - query, axis=1)
        # cosine vectors are pre-normalized, so dot == cosine similarity
        return 1.0 - rows @ query

    def _hop_distances(self, query: np.ndarray) -> DistOf:
        """Insert's distance source: one gather + GEMV per call."""
        return lambda ids: self._dist(query, ids).tolist()

    def _query_distances(self, query: np.ndarray) -> DistOf:
        """A query's distance source: one pass over the whole store,
        then plain list lookups.

        The euclidean pass gives every row the same bits a gather would.
        BLAS GEMV does not quite: a row that lands in the tail of a
        gathered block (its last ``n % 4`` rows) can differ in the last
        ulp, so cosine distances may differ from insert's per-hop ones
        by an ulp.
        """
        if self.metric is Metric.EUCLIDEAN:
            table = np.linalg.norm(self._vectors - query, axis=1).tolist()
        else:
            table = (1.0 - self._vectors @ query).tolist()
        take = table.__getitem__
        return lambda ids: list(map(take, ids))

    def _score(self, distances: np.ndarray) -> np.ndarray:
        """Convert internal distances back to the similarity convention."""
        if self.metric is Metric.EUCLIDEAN:
            return -distances
        return 1.0 - distances

    # -- construction -----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._graph)

    @property
    def nbytes(self) -> int:
        return int(self._vectors.nbytes)

    def build(self, vectors: np.ndarray) -> "HNSWIndex":
        """Build the index from scratch over ``vectors``."""
        vectors = self._validate_build(vectors)
        self._vectors = self._prepare(vectors)
        self._graph = []
        self._entry_point = None
        self._max_layer = -1
        self._rng = np.random.default_rng(self.seed)
        for node in range(self._vectors.shape[0]):
            self._insert(node)
        return self

    def add(self, vectors: np.ndarray) -> "HNSWIndex":
        """Incrementally insert more vectors (must match index dim)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=self._dtype))
        if self.size == 0:
            return self.build(vectors)
        if vectors.shape[1] != self._dim:
            raise ConfigurationError(
                f"cannot add vectors of dim {vectors.shape[1]} to index of dim {self._dim}"
            )
        prepared = self._prepare(vectors)
        start = self._vectors.shape[0]
        self._vectors = np.vstack([self._vectors, prepared])
        for node in range(start, start + prepared.shape[0]):
            self._insert(node)
        return self

    def _sample_level(self) -> int:
        u = float(self._rng.random())
        u = max(u, 1e-12)
        return int(-math.log(u) * self._level_mult)

    def _insert(self, node: int) -> None:
        level = self._sample_level()
        self._graph.append([[] for _ in range(level + 1)])
        if self._entry_point is None:
            self._entry_point = node
            self._max_layer = level
            return

        query = self._vectors[node]
        dist_of = self._hop_distances(query)
        entry = self._entry_point
        # Greedy descent through layers above the node's level.
        for layer in range(self._max_layer, level, -1):
            entry = self._greedy_closest(dist_of, entry, layer)
        # Beam search + heuristic linking on the layers the node joins.
        for layer in range(min(level, self._max_layer), -1, -1):
            candidates = self._search_layer(dist_of, [entry], layer, self.ef_construction)
            m_max = self.m0 if layer == 0 else self.m
            neighbours = self._select_heuristic(query, candidates, self.m)
            self._graph[node][layer] = [n for _, n in neighbours]
            for dist, neighbour in neighbours:
                links = self._graph[neighbour][layer]
                links.append(node)
                if len(links) > m_max:
                    self._shrink(neighbour, layer, m_max)
            if candidates:
                entry = min(candidates)[1]
        if level > self._max_layer:
            self._max_layer = level
            self._entry_point = node

    def _shrink(self, node: int, layer: int, m_max: int) -> None:
        """Re-select a node's neighbour list with the heuristic."""
        links = self._graph[node][layer]
        dists = self._dist(self._vectors[node], links)
        candidates = sorted(zip(dists.tolist(), links))
        selected = self._select_heuristic(self._vectors[node], candidates, m_max)
        self._graph[node][layer] = [n for _, n in selected]

    def _select_heuristic(
        self,
        query: np.ndarray,
        candidates: list[tuple[float, int]],
        m: int,
    ) -> list[tuple[float, int]]:
        """Algorithm 4: keep candidates closer to the query than to any
        already-selected neighbour, so edges spread across directions."""
        selected: list[tuple[float, int]] = []
        for dist, node in sorted(candidates):
            if len(selected) >= m:
                break
            if selected:
                chosen_ids = [c for _, c in selected]
                to_chosen = self._dist(self._vectors[node], chosen_ids)
                if float(to_chosen.min()) < dist:
                    continue
            selected.append((dist, node))
        # Backfill with nearest rejected candidates if under-full.
        if len(selected) < m:
            chosen_ids = {n for _, n in selected}
            for dist, node in sorted(candidates):
                if len(selected) >= m:
                    break
                if node not in chosen_ids:
                    selected.append((dist, node))
                    chosen_ids.add(node)
        return selected

    # -- search -----------------------------------------------------------

    def _greedy_closest(self, dist_of: DistOf, entry: int, layer: int) -> int:
        current = entry
        current_dist = dist_of([entry])[0]
        while True:
            links = self._graph[current][layer]
            if not links:
                return current
            dists = dist_of(links)
            best = min(range(len(dists)), key=dists.__getitem__)  # first minimum
            if not dists[best] < current_dist:
                return current
            current, current_dist = links[best], dists[best]

    def _search_layer(
        self,
        dist_of: DistOf,
        entries: list[int],
        layer: int,
        ef: int,
    ) -> list[tuple[float, int]]:
        """Beam search on one layer; returns (distance, node) pairs."""
        push, pop, pushpop = heapq.heappush, heapq.heappop, heapq.heappushpop
        graph = self._graph
        visited = set(entries)
        # candidates: min-heap by distance; results: max-heap (negated).
        candidates = list(zip(dist_of(entries), entries))
        heapq.heapify(candidates)
        results = [(-d, n) for d, n in candidates]
        heapq.heapify(results)
        while candidates:
            dist, node = pop(candidates)
            if len(results) >= ef and dist > -results[0][0]:
                break
            links = graph[node][layer]
            if visited.issuperset(links):  # the common case once the beam is wide
                continue
            fresh = [n for n in links if n not in visited]
            visited.update(fresh)
            worst = -results[0][0] if results else math.inf
            for d, n in zip(dist_of(fresh), fresh):
                if len(results) < ef:
                    push(candidates, (d, n))
                    push(results, (-d, n))
                elif d < worst:
                    push(candidates, (d, n))
                    pushpop(results, (-d, n))
                else:
                    continue
                worst = -results[0][0]
        return sorted((-negd, n) for negd, n in results)

    def search_rows(
        self, queries: np.ndarray, k: int, ef: int | None = None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Approximate k nearest rows of each query, best first, as
        ``(rows, scores)`` arrays.

        The beam width is ``max(ef, k)``, with ``ef`` defaulting to
        ``ef_search``.  Each query pays one distance pass over the store
        (:meth:`_query_distances`); descent and beam are pure Python.
        """
        queries = self._validate_query_block(queries)
        ef = max(ef if ef is not None else self.ef_search, k)
        assert self._entry_point is not None
        out: list[tuple[np.ndarray, np.ndarray]] = []
        for query in queries:
            if self.metric is Metric.COSINE:
                query = normalize_rows(query)
            dist_of = self._query_distances(query)
            entry = self._entry_point
            for layer in range(self._max_layer, 0, -1):
                entry = self._greedy_closest(dist_of, entry, layer)
            found = self._search_layer(dist_of, [entry], 0, ef)[:k]
            # (distance, node) pairs as a float64 (k, 2) block: the
            # distances stay the Python floats the beam computed.
            # repro-lint: disable=RL003 -- holds Python-float distances and node ids exactly
            pairs = np.array(found, dtype=np.float64).reshape(-1, 2)
            out.append((pairs[:, 1].astype(np.intp), self._score(pairs[:, 0])))
        return out
