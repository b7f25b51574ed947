"""Scan kernels: ExS against the Algorithm-1 oracle, batched ADC, dtype
and memory.

The perf work rewired three serving paths — the ExS scan (row-wise
centroid scores), dtype-preserving vector storage, and batched ADC for
PQ configurations.  These tests pin the invariant that made the rewiring
safe: the fast paths rank *exactly* what the reference paths rank.

The ExS reference is ``tests.test_exs_result_path.oracle_scores``:
every value vector against the query in float64, then the
count-weighted mean.  The engine quantises queries to float32.
Tolerance model: 1e-9 when the oracle quantises its query the same way
(the ``float32`` arms); a float64 oracle query (the ``float64`` arms)
sees the quantisation, so scores drift by up to ~1e-5 on unit-norm
embeddings; rankings must still be identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann.hnsw import HNSWIndex
from repro.ann.pq import ProductQuantizer
from repro.core.anns import ANNSearch
from repro.core.engine import DiscoveryEngine
from repro.core.exhaustive import ExhaustiveSearch
from repro.datamodel.relation import Federation, Relation
from repro.exec import ThreadBackend
from repro.linalg.distances import Metric, cosine_similarity, normalize_rows
from repro.linalg.topk import top_k_indices, top_k_indices_rowwise
from repro.vectordb.collection import Collection
from repro.vectordb.index import HNSWPQIndex
from tests.test_exs_result_path import oracle_scores

TOPICS = [
    ["vaccine", "dose", "immunity", "booster", "trial"],
    ["league", "striker", "goal", "stadium", "referee"],
    ["gdp", "inflation", "export", "tariff", "budget"],
    ["galaxy", "nebula", "quasar", "orbit", "comet"],
    ["sonata", "violin", "tempo", "chord", "opera"],
    ["glacier", "monsoon", "drought", "humidity", "frost"],
]

QUERIES = ["vaccine booster trial", "league stadium", "gdp export", "quasar orbit"]


def make_relation(slot: int, version: int = 0) -> Relation:
    words = TOPICS[slot % len(TOPICS)]
    tag = f"v{version}"
    return Relation(
        f"rel{slot}",
        ["Topic", "Measure", "Year"],
        [
            [f"{words[r % len(words)]} {tag}", str(100 * slot + r), str(2018 + version)]
            for r in range(3 + slot % 2)
        ],
        caption=f"{words[0]} {words[1]} table {tag}",
    )


def qualified(slot: int) -> str:
    return f"rel{slot}/rel{slot}"


def federation(slots) -> Federation:
    return Federation.from_relations([make_relation(s) for s in slots])


def score_tol(oracle_dtype) -> float:
    """1e-9 when the oracle's query is quantised to float32 like the
    engine's; a float64 oracle query also sees the quantisation."""
    return 1e-9 if np.dtype(oracle_dtype) == np.float32 else 1e-4


def make_exs_engine(shards: int = 1) -> DiscoveryEngine:
    return DiscoveryEngine(dim=48, shards=shards)


def assert_matches_reference(engine: DiscoveryEngine, oracle_dtype) -> None:
    """ExS ranks like the oracle, its query taken at ``oracle_dtype``."""
    batch = engine.search_batch(QUERIES, method="exs", k=100, h=-1.0)
    for query, got in zip(QUERIES, batch):
        truth = oracle_scores(engine.embeddings, query, query_dtype=oracle_dtype)
        want = sorted(truth, key=lambda rid: (-truth[rid], rid))
        assert got.relation_ids() == want
        for match in got.matches:
            assert match.score == pytest.approx(
                truth[match.relation_id], abs=score_tol(oracle_dtype)
            )


# -- the ExS scan vs the per-block reference ---------------------------------


class TestFusedVsPerBlock:
    @pytest.mark.parametrize("oracle_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("aggregate", ["mean"])
    def test_batch_rank_identity(self, oracle_dtype, aggregate):
        engine = make_exs_engine().index(federation(range(8)))
        assert_matches_reference(engine, oracle_dtype)

    @pytest.mark.parametrize("oracle_dtype", [np.float32, np.float64])
    def test_single_query_paths_agree(self, oracle_dtype):
        """A single query is a batch of one: ``search`` returns the bits
        ``search_batch`` does, and both rank like the reference."""
        engine = make_exs_engine().index(federation(range(6)))
        batch = engine.search_batch(QUERIES, method="exs", k=100, h=-1.0)
        for query, via_batch in zip(QUERIES, batch):
            single = engine.search(query, method="exs", k=100, h=-1.0)
            assert [(m.relation_id, m.score) for m in single.matches] == [
                (m.relation_id, m.score) for m in via_batch.matches
            ]
        assert_matches_reference(engine, oracle_dtype)

    @pytest.mark.parametrize("oracle_dtype", [np.float32, np.float64])
    def test_parallel_workers_match_sequential(self, oracle_dtype):
        fed = federation(range(8))
        engine = make_exs_engine().index(fed)
        sequential = engine.search_batch(QUERIES, method="exs", k=100, h=-1.0)
        # Four caller threads scanning the same index at once.
        with ThreadBackend(max_workers=4) as pool:
            batches = pool.map(
                lambda _: engine.search_batch(QUERIES, method="exs", k=100, h=-1.0), range(4)
            )
        for parallel in batches:
            for s, p in zip(sequential, parallel):
                assert s.relation_ids() == p.relation_ids()
                for ms, mp in zip(s.matches, p.matches):
                    # Same kernel, same operands: bitwise identical.
                    assert ms.score == mp.score
        assert_matches_reference(engine, oracle_dtype)

    @pytest.mark.parametrize("shards", [2, 5])
    @pytest.mark.parametrize("oracle_dtype", [np.float32, np.float64])
    def test_sharded_fused_matches_unsharded_loop(self, shards, oracle_dtype):
        sharded = make_exs_engine(shards=shards).index(federation(range(8)))
        assert_matches_reference(sharded, oracle_dtype)

    @pytest.mark.parametrize("oracle_dtype", [np.float32, np.float64])
    def test_delta_sequence_keeps_rank_identity(self, oracle_dtype):
        """add/update/remove deltas patch the scan matrix and its block
        offsets exactly like a per-block view of the store."""
        engine = make_exs_engine().index(federation(range(5)))
        engine.method("exs")  # build before deltas so the index patches in place
        steps = [
            ("add", {qualified(8): make_relation(8)}),
            ("update", {qualified(2): make_relation(2, version=1)}),
            ("remove", [qualified(0)]),
            ("add", {qualified(9): make_relation(9), qualified(10): make_relation(10)}),
            ("update", {qualified(8): make_relation(8, version=2)}),
            ("remove", [qualified(3), qualified(9)]),
        ]
        for op, payload in steps:
            getattr(engine, f"{op}_relations")(payload)
            assert_matches_reference(engine, oracle_dtype)

    @pytest.mark.parametrize("oracle_dtype", [np.float32, np.float64])
    def test_sharded_delta_sequence(self, oracle_dtype):
        sharded = make_exs_engine(shards=2).index(federation(range(6)))
        sharded.method("exs")
        sharded.add_relations({qualified(7): make_relation(7)})
        sharded.update_relations({qualified(1): make_relation(1, version=1)})
        sharded.remove_relations([qualified(4)])
        assert_matches_reference(sharded, oracle_dtype)

    def test_rejects_unsupported_dtype(self):
        # float32 is the one scan dtype: no method or engine takes another.
        for make in (ExhaustiveSearch, ANNSearch, DiscoveryEngine):
            with pytest.raises(TypeError):
                make(dtype=np.float16)


# -- batched ADC ------------------------------------------------------------


@pytest.fixture()
def pq_vectors(rng) -> np.ndarray:
    return rng.normal(size=(200, 32))


class TestBatchedADC:
    def test_tables_match_single_query_tables(self, rng, pq_vectors):
        pq = ProductQuantizer(n_subvectors=4, n_centroids=16).fit(pq_vectors)
        queries = rng.normal(size=(5, 32))
        ip_tables = pq.adc_inner_product_tables(queries)
        l2_tables = pq.adc_l2_tables(queries)
        assert ip_tables.shape == (5, 4, 16)
        for q in range(5):
            one_row = queries[q : q + 1]
            np.testing.assert_array_equal(ip_tables[q], pq.adc_inner_product_tables(one_row)[0])
            np.testing.assert_array_equal(l2_tables[q], pq.adc_l2_tables(one_row)[0])

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_anns_batch_matches_sequential_after_deltas(self, shards):
        """The batched-ADC serving path (HNSW+PQ through
        Collection.search_rows) ranks what per-query serving ranks,
        sharded or not, after a delta sequence."""
        engine = DiscoveryEngine(
            dim=48,
            shards=shards,
            method_params={"anns": {"n_subvectors": 8, "n_centroids": 16}},
        ).index(federation(range(6)))
        engine.method("anns")
        engine.add_relations({qualified(7): make_relation(7)})
        engine.update_relations({qualified(1): make_relation(1, version=1)})
        engine.remove_relations([qualified(4)])
        batched = engine.search_batch(QUERIES, method="anns", k=100, h=-1.0)
        for query, got in zip(QUERIES, batched):
            want = engine.search(query, method="anns", k=100, h=-1.0)
            assert want.relation_ids() == got.relation_ids()
            for mw, mg in zip(want.matches, got.matches):
                assert mg.score == pytest.approx(mw.score, abs=1e-4)

    @pytest.mark.parametrize("metric", [Metric.COSINE, Metric.EUCLIDEAN])
    def test_hnswpq_batch_bitwise_matches_sequential(self, rng, pq_vectors, metric):
        index = HNSWPQIndex(
            metric=metric, n_subvectors=4, n_centroids=16, seed=0
        ).build(pq_vectors)
        queries = rng.normal(size=(4, 32))
        batched = index.search_rows(queries, k=8)
        for q, (rows, scores) in enumerate(batched):
            single = index.search(queries[q], k=8)
            assert [h.index for h in single] == rows.tolist()
            assert [h.score for h in single] == scores.tolist()


# -- rowwise top-k ----------------------------------------------------------


class TestTopKRowwise:
    def test_matches_1d_helper_per_row(self, rng):
        scores = rng.normal(size=(7, 40))
        for k in (1, 5, 40):
            rows = top_k_indices_rowwise(scores, k)
            for q in range(scores.shape[0]):
                np.testing.assert_array_equal(rows[q], top_k_indices(scores[q], k))

    def test_stable_tie_breaking(self):
        scores = np.array([[1.0, 3.0, 3.0, 3.0, 2.0], [2.0, 2.0, 2.0, 2.0, 2.0]])
        best = top_k_indices_rowwise(scores, 3)
        np.testing.assert_array_equal(best[0], [1, 2, 3])  # ties by index order
        np.testing.assert_array_equal(best[1], [0, 1, 2])

    def test_largest_false(self):
        scores = np.array([[4.0, 1.0, 3.0, 2.0]])
        np.testing.assert_array_equal(
            top_k_indices_rowwise(scores, 2, largest=False)[0], [1, 3]
        )

    def test_k_clamped_to_row_width(self):
        scores = np.array([[2.0, 1.0, 3.0]])
        best = top_k_indices_rowwise(scores, 10)
        np.testing.assert_array_equal(best[0], [2, 0, 1])

    def test_degenerate_shapes(self):
        assert top_k_indices_rowwise(np.empty((0, 5)), 3).shape == (0, 0)
        assert top_k_indices_rowwise(np.empty((4, 0)), 3).shape == (4, 0)
        assert top_k_indices_rowwise(np.ones((2, 3)), 0).shape == (2, 0)
        with pytest.raises(ValueError):
            top_k_indices_rowwise(np.ones(3), 2)


# -- collection: batch freshness + byte gauges ------------------------------


def make_matrix(rng, n: int, dim: int = 16, dtype=np.float64) -> np.ndarray:
    return rng.normal(size=(n, dim)).astype(dtype)


class TestCollectionBatching:
    def test_stale_index_rebuilt_exactly_once_per_batch(self, rng, monkeypatch):
        matrix = make_matrix(rng, 30)
        col = Collection("c", matrix)
        col.create_index("hnsw")
        builds = []
        original = HNSWIndex.build

        def counting_build(self, vectors):
            builds.append(vectors.shape[0])
            return original(self, vectors)

        monkeypatch.setattr(HNSWIndex, "build", counting_build)
        col.reset(np.vstack([matrix, make_matrix(rng, 10)]))  # stales the index
        queries = rng.normal(size=(5, 16))
        col.search_rows(queries, k=3)
        assert builds == [40], "stale index must rebuild exactly once per batch"
        col.search_rows(queries, k=3)
        assert builds == [40], "fresh index must not rebuild again"

    def test_batch_matches_sequential_exact(self, rng):
        col = Collection("c", make_matrix(rng, 25))
        queries = rng.normal(size=(4, 16))
        batched = col.search_rows(queries, k=5)
        for q, (rows, scores) in enumerate(batched):
            single_rows, single_scores = col.search_rows(queries[q : q + 1], k=5)[0]
            assert single_rows.tolist() == rows.tolist()
            # Q=1 and Q=4 blocks may hit different BLAS kernels
            # (gemv vs gemm), drifting by an ulp even at float64.
            np.testing.assert_allclose(single_scores, scores, rtol=1e-12)

    def test_bytes_gauge_tracks_mutations(self, rng):
        # The gauge counts what the collection adds to its matrix: the
        # cached norms and the index.
        matrix = make_matrix(rng, 20, dtype=np.float32)
        col = Collection("values", matrix)
        gauge = col.metrics.gauge("vectordb.values.bytes")
        col.create_index("exact")
        col.search_rows(matrix[:1], k=1)
        after_search = gauge.value
        assert after_search == col.nbytes == 20 * 4 + 20 * 16 * 4  # norms + exact index
        col.reset(matrix[4:])
        col.search_rows(matrix[:1], k=1)
        assert gauge.value == col.nbytes < after_search

    def test_float32_store_halves_vector_bytes(self, rng):
        matrix = make_matrix(rng, 20)
        small = Collection("a", matrix.astype(np.float32))
        big = Collection("b", matrix)
        for col in (small, big):
            col.search_rows(matrix[:1].astype(col.dtype), k=1)
        assert big.vectors.nbytes == 2 * small.vectors.nbytes
        assert big.nbytes == 2 * small.nbytes


# -- engine memory + counter observability ----------------------------------


class TestMemoryObservability:
    def test_float32_halves_engine_index_bytes(self):
        """ANNS searches the store's float32 value table in place: the
        table is counted once, and ANNS owns only its exact index, a
        normalized float32 copy of the table (half a float64 one)."""
        fed = federation(range(6))
        engine = DiscoveryEngine(dim=48, method_params={"anns": {"index_kind": "exact"}}).index(fed)
        anns = engine.method("anns")  # only ANNS built: the sums are exact
        table = engine.embeddings.value_table()
        assert table.vectors.dtype == np.float32
        assert anns.index_bytes() == table.vectors.nbytes > 0
        assert (
            engine.metrics.gauge("engine.index_bytes").value
            == engine.embeddings.table_nbytes + anns.index_bytes()
        )

    def test_exs_index_bytes_is_stacked_matrix(self):
        engine = make_exs_engine().index(federation(range(6)))
        assert engine.method("exs").index_bytes() == 6 * 48 * 8  # R centroids x d x float64
        assert engine.embeddings.nbytes > 0  # semantic store reports too


# -- linalg fast paths ------------------------------------------------------


class TestNormalizedFastPath:
    def test_normalized_skips_renormalization(self, rng):
        a = normalize_rows(rng.normal(size=(5, 12)))
        b = normalize_rows(rng.normal(size=(7, 12)))
        fast = cosine_similarity(a, b, normalized=True)
        np.testing.assert_array_equal(fast, a @ b.T)
        np.testing.assert_allclose(fast, cosine_similarity(a, b), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_normalize_rows_preserves_dtype(self, rng, dtype):
        a = rng.normal(size=(4, 8)).astype(dtype)
        assert normalize_rows(a).dtype == np.dtype(dtype)
