"""The array-valued query path of ANNS and CTS against the loops it replaced.

The oracles below are the per-hop HNSW descent and beam and the
dict-of-lists CTS scoring as they stood before queries ran on arrays,
copied here unchanged apart from taking the distance function as an
argument.  The new code must return the same bits.

One caveat bounds what "the same" can mean for cosine HNSW.  The old
loop computed each hop's distances with a gather + GEMV, and BLAS GEMV
can round the last ``n % 4`` rows of a block differently from the rest,
so a node's distance depended on where it fell in that hop's block.  A
query now computes every distance in one pass over the store.  The
oracle is therefore fed the same per-node distances (both metrics), and
a separate test bounds the per-hop kernel's difference from the one-pass
kernel: exact for euclidean, within rounding for cosine.
"""

from __future__ import annotations

import heapq
import inspect
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import BruteForceIndex, HNSWIndex
from repro.core import ANNSearch, DiscoveryEngine
from repro.core.base import evidence_scores
from repro.datamodel import Federation, Relation
from repro.embedding import SemanticHashEncoder
from repro.errors import SanitizerError
from repro.linalg.distances import Metric, normalize_rows
from repro.vectordb.collection import Collection
from repro.vectordb.index import HNSWPQIndex

# -- the old HNSW query loops (oracle) ------------------------------------


def oracle_greedy_closest(index, dist, query, entry, layer):
    current = entry
    current_dist = float(dist(query, [entry])[0])
    improved = True
    while improved:
        improved = False
        links = index._graph[current][layer]
        if not links:
            break
        dists = dist(query, links)
        best = int(np.argmin(dists))
        if dists[best] < current_dist:
            current = links[best]
            current_dist = float(dists[best])
            improved = True
    return current


def oracle_search_layer(index, dist, query, entries, layer, ef):
    visited = set(entries)
    entry_dists = dist(query, entries)
    candidates = [(float(d), n) for d, n in zip(entry_dists, entries)]
    heapq.heapify(candidates)
    results = [(-d, n) for d, n in candidates]
    heapq.heapify(results)
    while candidates:
        dist_, node = heapq.heappop(candidates)
        if len(results) >= ef and dist_ > -results[0][0]:
            break
        fresh = [n for n in index._graph[node][layer] if n not in visited]
        if not fresh:
            continue
        visited.update(fresh)
        dists = dist(query, fresh)
        worst = -results[0][0] if results else math.inf
        for d, n in zip(dists.tolist(), fresh):
            if len(results) < ef or d < worst:
                heapq.heappush(candidates, (d, n))
                heapq.heappush(results, (-d, n))
                if len(results) > ef:
                    heapq.heappop(results)
                worst = -results[0][0]
    return sorted((-negd, n) for negd, n in results)


def oracle_search(index, query, k, ef, dist):
    query = index._validate_query(query)
    if index.metric is Metric.COSINE:
        query = normalize_rows(query)
    ef = max(ef if ef is not None else index.ef_search, k)
    entry = index._entry_point
    for layer in range(index._max_layer, 0, -1):
        entry = oracle_greedy_closest(index, dist, query, entry, layer)
    found = oracle_search_layer(index, dist, query, [entry], 0, ef)
    to_score = (lambda d: -d) if index.metric is Metric.EUCLIDEAN else (lambda d: 1.0 - d)
    return [(node, to_score(d)) for d, node in found[:k]]


def one_pass_distances(index):
    """The query path's per-node distances, as a ``dist(query, ids)``."""

    def dist(query, ids):
        if index.metric is Metric.EUCLIDEAN:
            table = np.linalg.norm(index._vectors - query, axis=1)
        else:
            table = 1.0 - index._vectors @ query
        return table[np.asarray(ids, dtype=np.intp)]

    return dist


@st.composite
def hnsw_cases(draw):
    n = draw(st.integers(2, 60))
    dim = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):  # small integers: duplicates and exact ties
        points = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    else:
        points = rng.standard_normal((n, dim))
    if draw(st.booleans()):
        points = points.astype(np.float32)
    m = draw(st.integers(2, 6))
    index = HNSWIndex(
        metric=draw(st.sampled_from([Metric.COSINE, Metric.EUCLIDEAN])),
        m=m,
        ef_construction=draw(st.integers(m, 40)),
        seed=seed,
    ).build(points)
    if draw(st.booleans()):
        query = points[draw(st.integers(0, n - 1))]
    else:
        query = rng.standard_normal(dim)
    k = draw(st.integers(1, 20))
    ef = draw(st.one_of(st.none(), st.integers(1, 80)))
    return index, query, k, ef


class TestHNSWAgainstOldLoops:
    @settings(max_examples=150, deadline=None)
    @given(hnsw_cases())
    def test_search_matches_old_loop(self, case):
        index, query, k, ef = case
        got = [(hit.index, hit.score) for hit in index.search(query, k, ef=ef)]
        assert got == oracle_search(index, query, k, ef, one_pass_distances(index))

    @settings(max_examples=60, deadline=None)
    @given(hnsw_cases())
    def test_euclidean_matches_old_per_hop_kernel(self, case):
        index, query, k, ef = case
        if index.metric is not Metric.EUCLIDEAN:
            return
        got = [(hit.index, hit.score) for hit in index.search(query, k, ef=ef)]
        assert got == oracle_search(index, query, k, ef, index._dist)

    @settings(max_examples=60, deadline=None)
    @given(hnsw_cases(), st.data())
    def test_per_hop_kernel_within_ulps_of_one_pass(self, case, data):
        index, query, _, _ = case
        query = index._validate_query(query)
        if index.metric is Metric.COSINE:
            query = normalize_rows(query)
        ids = data.draw(
            st.lists(st.integers(0, index.size - 1), min_size=1, max_size=index.size, unique=True)
        )
        per_hop = index._dist(query, ids)
        one_pass = one_pass_distances(index)(query, ids)
        if index.metric is Metric.EUCLIDEAN:
            np.testing.assert_array_equal(per_hop, one_pass)
        else:
            # Unit vectors: a dot's rounding error is at most dim ulps of 1.
            eps = np.finfo(per_hop.dtype).eps
            np.testing.assert_allclose(per_hop, one_pass, rtol=0, atol=index.dim * eps)

    def test_queries_make_no_per_hop_distance_call(self, monkeypatch):
        points = np.random.default_rng(5).standard_normal((200, 8))
        index = HNSWIndex(m=4, ef_construction=20).build(points)
        calls = []
        monkeypatch.setattr(HNSWIndex, "_dist", lambda self, query, ids: calls.append(ids))
        index.search(points[3], 5, ef=50)
        index.search_rows(points[:4], 5)
        assert calls == []

    def test_batch_equals_single(self):
        points = np.random.default_rng(3).standard_normal((300, 12))
        index = HNSWIndex(m=6, ef_construction=30).build(points)
        queries = np.random.default_rng(4).standard_normal((5, 12))
        rows = index.search_rows(queries, 7, ef=20)
        for q, (r, s) in zip(queries, rows):
            hits = index.search(q, 7, ef=20)
            assert [h.index for h in hits] == r.tolist()
            assert [h.score for h in hits] == s.tolist()


# -- CTS grouping: the old dict-of-lists scoring (oracle) -----------------


def oracle_evidence(owners, sims, counts, m):
    per_relation = defaultdict(list)
    for owner, sim, count in zip(owners, sims, counts):
        per_relation[int(owner)].extend([float(sim)] * int(count))
    return {
        owner: (sum(sorted(scores, reverse=True)[:m]) / m, len(scores))
        for owner, scores in per_relation.items()
    }


@st.composite
def evidence_cases(draw):
    n = draw(st.integers(1, 80))
    n_owners = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    owners = rng.integers(0, n_owners, size=n)
    if draw(st.booleans()):  # coarse values: ties within and across owners
        sims = rng.integers(-4, 5, size=n) / 7.0
    else:
        sims = rng.uniform(-1.0, 1.0, size=n)
    counts = rng.integers(1, draw(st.integers(2, 6)), size=n)
    return owners, sims, counts, draw(st.integers(1, 20))


class TestCTSGroupingAgainstOldScoring:
    @settings(max_examples=300, deadline=None)
    @given(evidence_cases())
    def test_bit_identical(self, case):
        owners, sims, counts, m = case
        got_owners, scores, n_hits = evidence_scores(owners, sims, counts, m)
        got = {
            owner: (score, hits)
            for owner, score, hits in zip(got_owners.tolist(), scores.tolist(), n_hits.tolist())
        }
        want = oracle_evidence(owners, sims, counts, m)
        assert {o: (repr(s), h) for o, (s, h) in got.items()} == {
            o: (repr(s), h) for o, (s, h) in want.items()
        }

    def test_count_weighting_and_short_relations(self):
        owners = np.array([0, 1, 0, 2])
        sims = np.array([0.5, 0.9, 0.25, 0.1])
        counts = np.array([3, 1, 1, 2])
        got_owners, scores, n_hits = evidence_scores(owners, sims, counts, 4)
        assert got_owners.tolist() == [0, 1, 2]
        assert scores.tolist() == [(0.5 * 3 + 0.25) / 4, 0.9 / 4, 0.2 / 4]
        assert n_hits.tolist() == [4, 1, 2]


# -- the collection boundary ----------------------------------------------


def _values_collection(dtype=np.float64, n=60, dim=16):
    rng = np.random.default_rng(0)
    return Collection("values", rng.standard_normal((n, dim)).astype(dtype))


class ExplodingIndex(BruteForceIndex):
    """An index whose search fails inside with a TypeError."""

    calls = 0

    def search_rows(self, queries, k):
        type(self).calls += 1
        raise TypeError("failure inside the index")


class TestIndexedSearch:
    def test_type_error_inside_an_index_propagates(self, monkeypatch):
        monkeypatch.setattr(
            "repro.vectordb.collection.make_index", lambda kind, metric, **p: ExplodingIndex(metric)
        )
        collection = _values_collection()
        collection.create_index("exact")
        ExplodingIndex.calls = 0
        with pytest.raises(TypeError, match="failure inside the index"):
            collection.search_rows(np.ones((1, 16)), k=3)
        with pytest.raises(TypeError, match="failure inside the index"):
            collection.search_rows(np.ones((2, 16)), k=3)
        assert ExplodingIndex.calls == 2  # one call each, no retry

    @pytest.mark.parametrize("kind", ["exact"])
    def test_indexes_without_ef_are_asked_once(self, monkeypatch, kind):
        """One index call per query block, with no beam keyword."""
        collection = _values_collection()
        collection.create_index(kind)
        index_type = type(collection._index)
        calls = []
        original = index_type.search_rows

        def counted(self, queries, k):
            calls.append(len(queries))
            return original(self, queries, k)

        monkeypatch.setattr(index_type, "search_rows", counted)
        collection.search_rows(np.ones((3, 16)), k=4)
        assert calls == [3]

    @pytest.mark.parametrize("kind", ["hnsw", "hnsw+pq", "exact"])
    def test_wrappers_match_search_rows(self, kind):
        # A block's rows answer exactly as one-row blocks do.
        collection = _values_collection()
        params = {"n_centroids": 16} if "pq" in kind else {}
        collection.create_index(kind, **params)
        queries = np.random.default_rng(1).standard_normal((3, 16))
        rows = collection.search_rows(queries, k=5)
        for q, (r, s) in zip(queries, rows):
            single_rows, single_scores = collection.search_rows(q[np.newaxis, :], k=5)[0]
            assert single_rows.tolist() == r.tolist()
            assert single_scores.tolist() == s.tolist()

    def test_float64_block_trips_the_dtype_guard(self, monkeypatch):
        # Collections arm their guards from the environment, as the
        # hardened CI shards set it.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        engine = DiscoveryEngine(encoder=SemanticHashEncoder(dim=32))
        engine.index(Federation.from_relations(_relations()))
        try:
            collection = engine.method("anns")._values
            assert collection.dtype == np.float32 and collection.sanitize
            block = np.ones((1, 32))
            with pytest.raises(SanitizerError, match="dtype"):
                collection.search_rows(block, k=5)
            # ANNS casts before it crosses the boundary.
            assert len(engine.search("football", method="anns", k=3)) > 0
            assert len(engine.search_batch(["football", "gdp"], method="anns", k=3)) == 2
        finally:
            engine.close()


# -- the beam width ANNS uses ---------------------------------------------


def _relations():
    words = ["league", "vaccine", "gdp", "harbor", "glacier", "census", "tempo"]
    return [
        Relation(
            f"t{i}",
            ["A", "B"],
            [[f"{words[(i + r) % len(words)]} {r}", str(100 * i + r)] for r in range(8)],
            caption=f"{words[i % len(words)]} table {i}",
        )
        for i in range(12)
    ]


class TestANNSBeamWidth:
    """Pins the layer-0 beam of ANNS's graph at budget ``b``.  The beam is
    no parameter: the collection fetches ``fetch = max(b, int(1.5 * b))``
    candidates, and the graph's beam is exactly its request — ``fetch``
    for ``"hnsw"``, ``max(2 * fetch, fetch + 8)`` for ``"hnsw+pq"``.
    Changing it changes answers, so a change must be deliberate and
    reported."""

    @pytest.mark.parametrize(
        ("params", "beam"),
        [
            ({}, 768),  # hnsw+pq at the default budget of 256
            ({"n_candidates": 40}, 120),
            ({"index_kind": "hnsw", "n_candidates": 80}, 120),
            ({"n_candidates": 40, "m": 8, "ef_construction": 16}, 120),
            ({"n_candidates": 1}, 9),
            ({"n_candidates": 5}, 15),
            ({"index_kind": "hnsw", "n_candidates": 1}, 1),
            ({"index_kind": "hnsw", "n_candidates": 42}, 63),
            ({"index_kind": "hnsw"}, 384),
        ],
    )
    def test_beam(self, monkeypatch, params, beam):
        engine = DiscoveryEngine(
            encoder=SemanticHashEncoder(dim=32), method_params={"anns": params}
        )
        engine.index(Federation.from_relations(_relations()))
        try:
            engine.method("anns")
            beams = []
            original = HNSWIndex._search_layer

            def spy(self, dist_of, entries, layer, ef):
                if layer == 0:
                    beams.append(ef)
                return original(self, dist_of, entries, layer, ef)

            monkeypatch.setattr(HNSWIndex, "_search_layer", spy)
            engine.search("league", method="anns", k=5)
            engine.search_batch(["gdp", "census"], method="anns", k=5)
            assert beams == [beam, beam, beam]
        finally:
            engine.close()

    def test_ef_search_is_gone(self):
        with pytest.raises(TypeError):
            ANNSearch(ef_search=64)


def test_exact_index_ignores_ef_by_type():
    """No collection search takes a beam: neither the collection nor the
    indexes it attaches accept ``ef``; only a standalone HNSW graph does."""
    for search_rows in (Collection.search_rows, BruteForceIndex.search_rows,
                        HNSWPQIndex.search_rows):
        assert "ef" not in inspect.signature(search_rows).parameters
    assert "ef" in inspect.signature(HNSWIndex.search_rows).parameters
