"""Batched serving: equivalence with sequential search, concurrent
callers, metrics.

The contract under test is the one the engine promises: for every
method, ``search_batch(qs)`` ranks exactly the relations that
``[search(q) for q in qs]`` ranks, in the same order, with the same
scores up to BLAS reduction order (batched kernels sum the very same
products, but matrix-matrix and matrix-vector kernels may order the
reductions differently).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DiscoveryEngine
from repro.core.results import BatchResult, same_ranking
from repro.exec import ThreadBackend

METHODS = ("exs", "anns", "cts")


#: Sequential-vs-batched score tolerance.  At the float32 scan dtype
#: BLAS's matrix-vector (sequential) and matrix-matrix (batched) kernels
#: order the reductions differently; at d≈100 the observed divergence
#: is ~1.5e-5, so we allow 1e-4 while still requiring identical rankings.
SCORE_TOL = 1e-4

QUERIES = [
    "covid vaccine europe",
    "football cup results",
    "gdp economy germany",
    "hospital admissions 2021",
    "comirnaty doses",
]

#: Word pool for hypothesis-generated keyword queries: mixes terms that
#: hit the COVID federation, miss it, and collide across relations.
WORDS = [
    "covid",
    "vaccine",
    "comirnaty",
    "germany",
    "france",
    "football",
    "league",
    "gdp",
    "economy",
    "2021",
    "hospital",
    "doses",
    "zebra",
    "quasar",
]

query_lists = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
    min_size=1,
    max_size=6,
)


def assert_batch_matches_sequential(engine, queries, method, k=10, h=0.0, callers=1):
    """``callers > 1`` issues the same batch from that many threads at
    once; every one of them must answer like the sequential loop."""
    sequential = [engine.search(q, method=method, k=k, h=h) for q in queries]
    with ThreadBackend(max_workers=callers) as pool:
        batches = pool.map(
            lambda _: engine.search_batch(queries, method=method, k=k, h=h), range(callers)
        )
    for batched in batches:
        assert len(batched) == len(sequential)
        for seq, bat in zip(sequential, batched):
            assert bat.query == seq.query
            assert bat.method == seq.method
            assert bat.relation_ids() == seq.relation_ids()
            for m_seq, m_bat in zip(seq.matches, bat.matches):
                assert m_bat.score == pytest.approx(m_seq.score, abs=SCORE_TOL)
            assert same_ranking(seq, bat, score_tol=SCORE_TOL)


@pytest.mark.parametrize("method", METHODS)
def test_batch_equals_sequential(indexed_engine, method):
    assert_batch_matches_sequential(indexed_engine, QUERIES, method)


@pytest.mark.parametrize("method", METHODS)
def test_batch_equals_sequential_with_workers(indexed_engine, method):
    assert_batch_matches_sequential(indexed_engine, QUERIES, method, callers=3)


@pytest.mark.parametrize("method", METHODS)
def test_batch_respects_k_and_threshold(indexed_engine, method):
    assert_batch_matches_sequential(indexed_engine, QUERIES, method, k=2, h=0.15)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=12, deadline=None)
@given(queries=query_lists)
def test_batch_equivalence_property(indexed_engine, method, queries):
    assert_batch_matches_sequential(indexed_engine, queries, method)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=6, deadline=None)
@given(queries=query_lists)
def test_batch_equivalence_property_parallel(indexed_engine, method, queries):
    assert_batch_matches_sequential(indexed_engine, queries, method, callers=2)


def test_empty_batch(indexed_engine):
    result = indexed_engine.search_batch([], method="exs")
    assert isinstance(result, BatchResult)
    assert list(result) == []
    assert result.queries_per_second == 0.0


def test_empty_batch_still_counted(covid_fed):
    # Regression: the empty-batch early return used to skip the
    # method-level batch counter, so engine.batches and exs.batches
    # disagreed after an empty call.
    engine = DiscoveryEngine(dim=64)
    engine.index(covid_fed)
    engine.search_batch([], method="exs")
    engine.search_batch(["covid"], method="exs")
    counters = engine.metrics.snapshot()["counters"]
    assert counters["engine.batches"] == 2
    assert counters["exs.batches"] == 2
    assert counters["engine.queries"] == counters["exs.queries"] == 1


@pytest.mark.parametrize("method", METHODS)
def test_negative_k_is_rejected(indexed_engine, method):
    """``matches[:k]`` slice semantics used to leak through the ranker:
    ``k=-1`` answered with every match but the last."""
    for k in (-1, -3):
        with pytest.raises(ValueError, match="k must be >= 0"):
            indexed_engine.search(QUERIES[0], method=method, k=k)
        with pytest.raises(ValueError, match="k must be >= 0"):
            indexed_engine.search_batch(QUERIES, method=method, k=k)
    assert indexed_engine.search(QUERIES[0], method=method, k=0).matches == []
    empty = indexed_engine.search_batch(QUERIES, method=method, k=0)
    assert [result.matches for result in empty] == [[]] * len(QUERIES)


def test_batch_result_reports_throughput(indexed_engine):
    result = indexed_engine.search_batch(QUERIES, method="exs")
    assert result.elapsed_ms > 0.0
    assert result.queries_per_second > 0.0
    # Per-query elapsed is the amortized share of the batch wall clock.
    for item in result:
        assert item.elapsed_ms == pytest.approx(result.elapsed_ms / len(result))


def test_duplicate_queries_in_one_batch(indexed_engine):
    queries = ["covid vaccine", "covid vaccine", "football"]
    batched = indexed_engine.search_batch(queries, method="exs", k=5)
    assert batched[0].relation_ids() == batched[1].relation_ids()
    assert [r.query for r in batched] == queries


class TestMetricsPopulation:
    @pytest.fixture(scope="class")
    def fresh_engine(self, covid_fed):
        engine = DiscoveryEngine(
            dim=96,
            method_params={
                "cts": {"min_cluster_size": 4, "umap_neighbors": 5, "umap_epochs": 30},
                "anns": {"n_subvectors": 8, "n_centroids": 16},
            },
        )
        return engine.index(covid_fed)

    def test_search_populates_counters_and_stages(self, fresh_engine):
        fresh_engine.search("covid vaccine", method="exs")
        snap = fresh_engine.metrics.snapshot()
        assert snap["counters"]["engine.queries"] >= 1
        assert snap["counters"]["exs.queries"] >= 1
        for stage in ("exs.encode", "exs.scan", "exs.rank", "exs.latency_ms"):
            assert snap["stages"][stage]["count"] >= 1

    def test_batch_populates_per_stage_percentiles(self, fresh_engine):
        fresh_engine.search_batch(QUERIES, method="cts")
        snap = fresh_engine.metrics.snapshot()
        assert snap["counters"]["engine.batches"] >= 1
        assert snap["counters"]["cts.queries"] >= len(QUERIES)
        for stage in ("cts.encode", "cts.route", "cts.scan", "cts.rank"):
            summary = snap["stages"][stage]
            assert summary["count"] >= 1
            assert 0.0 <= summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
            assert summary["p99_ms"] <= summary["max_ms"]

    def test_vectordb_metrics_flow_into_engine_registry(self, fresh_engine):
        fresh_engine.search_batch(QUERIES, method="anns")
        snap = fresh_engine.metrics.snapshot()
        # ANNS probes the HNSW-indexed values collection per query.
        assert snap["counters"]["vectordb.index_probes"] >= len(QUERIES)
        assert snap["counters"]["vectordb.searches"] >= len(QUERIES)
        assert snap["stages"]["vectordb.scan"]["count"] >= 1

    def test_one_search_moves_the_scan_counters_exactly(self, fresh_engine):
        """The perf ledger reads these counters per call: one ANNS query
        is one collection search and one index probe and scores no point
        by exact scan; one CTS query scans exactly its medoids."""

        def scan_counters():
            counters = fresh_engine.metrics.snapshot()["counters"]
            return {
                name: counters.get(f"vectordb.{name}", 0)
                for name in ("searches", "index_probes", "points_scanned")
            }

        fresh_engine.method("anns")
        cts = fresh_engine.method("cts")
        before = scan_counters()
        fresh_engine.search("measles outbreak counts", method="anns")
        after_anns = scan_counters()
        assert after_anns["index_probes"] - before["index_probes"] == 1
        assert after_anns["searches"] - before["searches"] == 1
        assert after_anns["points_scanned"] == before["points_scanned"]
        fresh_engine.search("measles outbreak counts", method="cts")
        after_cts = scan_counters()
        assert after_cts["points_scanned"] - after_anns["points_scanned"] == cts.n_clusters

    def test_format_table_is_printable(self, fresh_engine):
        fresh_engine.search_batch(QUERIES, method="exs")
        table = fresh_engine.metrics.format_table()
        assert "engine.queries" in table
        assert "exs.scan" in table
